#include "src/hv/sim_vbox/vbox.h"

#include <sstream>

#include "src/arch/vmx_bits.h"
#include "src/support/bits.h"

namespace neco {

SimVbox::SimVbox()
    : cov_("vbox/VMMR0/HMVMXR0+IEM-nested", kVboxNestedVmxCoveragePoints),
      config_(VcpuConfig::Default(Arch::kIntel)),
      nested_caps_(MakeVmxCapabilities(config_.features)) {}

void SimVbox::StartVm(const VcpuConfig& config) {
  config_ = config;
  config_.arch = Arch::kIntel;  // VirtualBox nested VMX is Intel-only here.
  nested_caps_ =
      MakeVmxCapabilities(config_.features.RestrictedTo(Arch::kIntel));
  guest_memory_.Clear();
  vmxon_ = false;
  vmxon_ptr_ = kNoPtr;
  current_ptr_ = kNoPtr;
  vmcs12_cache_.clear();
  launched_.clear();
  vmcs01_ = MakeDefaultVmcs();
  vmcs02_ = Vmcs();
  in_l2_ = false;
  vm_dead_ = false;
}

bool SimVbox::CheckPermission() {
  if (vm_dead_) {
    NVCOV(cov_);
    return false;
  }
  if (!config_.nested()) {
    NVCOV(cov_);
    return false;
  }
  if (!vmxon_) {
    NVCOV(cov_);
    return false;
  }
  NVCOV(cov_);
  return true;
}

VmxEmuResult SimVbox::HandleVmxInstruction(const VmxInsn& insn) {
  VmxEmuResult r;
  if (host_crashed_ || vm_dead_) {
    return r;
  }
  switch (insn.op) {
    case VmxOp::kVmxon:
      if (!config_.nested() || vmxon_) {
        NVCOV(cov_);
        return r;
      }
      if (!IsAligned(insn.operand, 12) || insn.operand == 0) {
        NVCOV(cov_);
        return r;
      }
      NVCOV(cov_);
      vmxon_ = true;
      vmxon_ptr_ = insn.operand;
      r.ok = true;
      return r;
    case VmxOp::kVmxoff:
      if (!CheckPermission()) {
        return r;
      }
      NVCOV(cov_);
      vmxon_ = false;
      current_ptr_ = kNoPtr;
      in_l2_ = false;
      r.ok = true;
      return r;
    case VmxOp::kVmclear:
      if (!CheckPermission()) {
        return r;
      }
      if (!IsAligned(insn.operand, 12) || insn.operand == vmxon_ptr_) {
        NVCOV(cov_);
        return r;
      }
      NVCOV(cov_);
      launched_[insn.operand] = false;
      r.ok = true;
      return r;
    case VmxOp::kVmptrld:
      if (!CheckPermission()) {
        return r;
      }
      if (!IsAligned(insn.operand, 12) || insn.operand == 0 ||
          insn.operand == vmxon_ptr_) {
        NVCOV(cov_);
        return r;
      }
      if (guest_memory_.Read32(insn.operand) != Vmcs::kRevisionId) {
        NVCOV(cov_);
        return r;
      }
      NVCOV(cov_);
      vmcs12_cache_[insn.operand];
      current_ptr_ = insn.operand;
      r.ok = true;
      return r;
    case VmxOp::kVmptrst:
      if (!CheckPermission()) {
        return r;
      }
      NVCOV(cov_);
      r.ok = true;
      r.read_value = current_ptr_;
      return r;
    case VmxOp::kVmwrite: {
      if (!CheckPermission()) {
        return r;
      }
      auto it = vmcs12_cache_.find(current_ptr_);
      if (it == vmcs12_cache_.end()) {
        NVCOV(cov_);
        return r;
      }
      if (FindVmcsField(insn.field) == nullptr ||
          IsReadOnlyField(insn.field)) {
        NVCOV(cov_);
        return r;
      }
      NVCOV(cov_);
      it->second.Write(insn.field, insn.value);
      r.ok = true;
      return r;
    }
    case VmxOp::kVmread: {
      if (!CheckPermission()) {
        return r;
      }
      auto it = vmcs12_cache_.find(current_ptr_);
      if (it == vmcs12_cache_.end() ||
          FindVmcsField(insn.field) == nullptr) {
        NVCOV(cov_);
        return r;
      }
      NVCOV(cov_);
      r.ok = true;
      r.read_value = it->second.Read(insn.field);
      return r;
    }
    case VmxOp::kVmlaunch:
      return VmlaunchVmresume(/*launch=*/true);
    case VmxOp::kVmresume:
      return VmlaunchVmresume(/*launch=*/false);
    case VmxOp::kInvept:
      if (!CheckPermission()) {
        return r;
      }
      NVCOV(cov_);
      r.ok = config_.features.Has(CpuFeature::kEpt);
      return r;
    case VmxOp::kInvvpid:
      if (!CheckPermission()) {
        return r;
      }
      NVCOV(cov_);
      r.ok = config_.features.Has(CpuFeature::kVpid);
      return r;
    case VmxOp::kCount:
      break;
  }
  return r;
}

bool SimVbox::IemCheckControls(const Vmcs& v12) {
  if (!nested_caps_.pinbased.Permits(static_cast<uint32_t>(
          v12.Read(VmcsField::kPinBasedVmExecControl)))) {
    NVCOV(cov_);
    return false;
  }
  const uint32_t proc =
      static_cast<uint32_t>(v12.Read(VmcsField::kCpuBasedVmExecControl));
  if (!nested_caps_.procbased.Permits(proc)) {
    NVCOV(cov_);
    return false;
  }
  if ((proc & ProcCtl::kActivateSecondary) != 0 &&
      !nested_caps_.procbased2.Permits(static_cast<uint32_t>(
          v12.Read(VmcsField::kSecondaryVmExecControl)))) {
    NVCOV(cov_);
    return false;
  }
  if (!nested_caps_.exit.Permits(static_cast<uint32_t>(
          v12.Read(VmcsField::kVmExitControls)))) {
    NVCOV(cov_);
    return false;
  }
  if (!nested_caps_.entry.Permits(static_cast<uint32_t>(
          v12.Read(VmcsField::kVmEntryControls)))) {
    NVCOV(cov_);
    return false;
  }
  // MSR-load area: VirtualBox validates the COUNT and ALIGNMENT of the
  // area, but not the values inside it (CVE-2024-21106 gap is in
  // LoadEntryMsrs below).
  const uint64_t count = v12.Read(VmcsField::kVmEntryMsrLoadCount);
  if (count != 0) {
    NVCOV(cov_);
    if (count > nested_caps_.max_msr_list_count ||
        !IsAligned(v12.Read(VmcsField::kVmEntryMsrLoadAddr), 4)) {
      NVCOV(cov_);
      return false;
    }
  }
  NVCOV(cov_);
  return true;
}

bool SimVbox::IemCheckGuest(const Vmcs& v12) {
  const uint64_t cr0 = v12.Read(VmcsField::kGuestCr0);
  if ((cr0 & nested_caps_.cr0_fixed0) != nested_caps_.cr0_fixed0) {
    NVCOV(cov_);
    return false;
  }
  if ((v12.Read(VmcsField::kGuestCr4) & nested_caps_.cr4_fixed0) !=
      nested_caps_.cr4_fixed0) {
    NVCOV(cov_);
    return false;
  }
  if ((v12.Read(VmcsField::kGuestRflags) & Rflags::kFixed1) == 0) {
    NVCOV(cov_);
    return false;
  }
  NVCOV(cov_);
  return true;
}

bool SimVbox::LoadEntryMsrs(const Vmcs& v12) {
  const uint64_t count = v12.Read(VmcsField::kVmEntryMsrLoadCount);
  if (count == 0) {
    NVCOV(cov_);
    return true;
  }
  NVCOV(cov_);
  const uint64_t base = v12.Read(VmcsField::kVmEntryMsrLoadAddr);
  for (uint64_t i = 0; i < count && i < nested_caps_.max_msr_list_count;
       ++i) {
    const MsrAreaEntry e = ReadMsrAreaEntry(guest_memory_, base, i);
    switch (e.index) {
      case Msr::kKernelGsBase:
      case Msr::kFsBase:
      case Msr::kGsBase: {
        // CVE-2024-21106: the value is written to the real MSR with NO
        // canonicality check. A non-canonical address #GPs in the host.
        NVCOV(cov_);
        if (!IsCanonical(e.value)) {
          NVCOV(cov_);
          std::ostringstream msg;
          msg << "general protection fault, probably for non-canonical "
                 "address 0x"
              << std::hex << e.value << " (wrmsr 0x" << e.index
              << " during nested VM entry)";
          sanitizers_.Report(AnomalyKind::kVmCrash, "vbox-msr-noncanonical",
                             msg.str());
          vm_dead_ = true;  // The VM process dies / hangs on shutdown.
          return false;
        }
        break;
      }
      case Msr::kIa32Efer:
        NVCOV(cov_);  // EFER handled via dedicated logic, values masked.
        break;
      default:
        NVCOV(cov_);
        break;
    }
  }
  NVCOV(cov_);
  return true;
}

VmxEmuResult SimVbox::VmlaunchVmresume(bool launch) {
  VmxEmuResult r;
  if (!CheckPermission()) {
    return r;
  }
  auto it = vmcs12_cache_.find(current_ptr_);
  if (it == vmcs12_cache_.end()) {
    NVCOV(cov_);
    return r;
  }
  const bool launched = launched_[current_ptr_];
  if (launch == launched) {
    NVCOV(cov_);  // Launch-state mismatch VMfail.
    return r;
  }
  Vmcs& v12 = it->second;

  if (!IemCheckControls(v12)) {
    NVCOV(cov_);
    return r;
  }
  if (!IemCheckGuest(v12)) {
    NVCOV(cov_);
    v12.Write(VmcsField::kVmExitReason,
              static_cast<uint32_t>(ExitReason::kInvalidGuestState) |
                  kExitReasonFailedEntryBit);
    r.ok = true;
    return r;
  }
  // The vulnerable ordering: MSRs are loaded onto the host before the
  // final hardware entry.
  if (!LoadEntryMsrs(v12)) {
    NVCOV(cov_);
    return r;  // VM process is gone.
  }

  // Merge and enter. vmcs01 is the boot-built default image, never written
  // after StartVm, so copying it is byte-identical to rebuilding
  // MakeDefaultVmcs per entry.
  vmcs02_ = vmcs01_;
  vmcs02_.set_launch_state(Vmcs::LaunchState::kClear);
  static constexpr VmcsField kGuestCopy[] = {
      VmcsField::kGuestCr0, VmcsField::kGuestCr3, VmcsField::kGuestCr4,
      VmcsField::kGuestIa32Efer, VmcsField::kGuestRflags,
      VmcsField::kGuestRip, VmcsField::kGuestRsp,
      VmcsField::kGuestCsSelector, VmcsField::kGuestCsArBytes,
      VmcsField::kGuestActivityState,
  };
  for (VmcsField f : kGuestCopy) {
    vmcs02_.Write(f, v12.Read(f));
  }
  // VirtualBox sanitizes the activity state (no Xen-style bug here).
  const uint64_t activity = vmcs02_.Read(VmcsField::kGuestActivityState);
  if (activity > static_cast<uint64_t>(ActivityState::kHlt)) {
    NVCOV(cov_);
    vmcs02_.Write(VmcsField::kGuestActivityState, 0);
  }
  vmcs02_.Write(VmcsField::kVmcsLinkPointer, ~0ULL);

  const EntryOutcome hw = vmx_cpu_.TryEntry(vmcs02_, /*launch=*/true);
  if (hw.status == EntryStatus::kEntered) {
    NVCOV(cov_);
    in_l2_ = true;
    launched_[current_ptr_] = true;
    r.ok = true;
    r.entered_l2 = true;
    return r;
  }
  if (hw.status == EntryStatus::kEntryFailGuest) {
    NVCOV(cov_);
    v12.Write(VmcsField::kVmExitReason,
              static_cast<uint32_t>(ExitReason::kInvalidGuestState) |
                  kExitReasonFailedEntryBit);
    r.ok = true;
    return r;
  }
  NVCOV(cov_);
  return r;
}

void SimVbox::ReflectExit(ExitReason reason, uint64_t qual) {
  NVCOV(cov_);
  auto it = vmcs12_cache_.find(current_ptr_);
  if (it != vmcs12_cache_.end()) {
    NVCOV(cov_);
    it->second.Write(VmcsField::kVmExitReason,
                     static_cast<uint32_t>(reason));
    it->second.Write(VmcsField::kExitQualification, qual);
  }
  in_l2_ = false;
}

SvmEmuResult SimVbox::HandleSvmInstruction(const SvmInsn& insn) {
  // No nested SVM support in this model.
  return {};
}

HandledBy SimVbox::HandleGuestInstruction(const GuestInsn& insn,
                                          GuestLevel level) {
  if (host_crashed_ || vm_dead_) {
    return HandledBy::kHostCrash;
  }
  if (level == GuestLevel::kL1) {
    NVCOV(cov_);
    return HandledBy::kL0;
  }
  if (!in_l2_) {
    NVCOV(cov_);
    return HandledBy::kNoExit;
  }
  auto it = vmcs12_cache_.find(current_ptr_);
  if (it == vmcs12_cache_.end()) {
    NVCOV(cov_);
    return HandledBy::kNoExit;
  }
  const Vmcs& v12 = it->second;
  const uint32_t proc =
      static_cast<uint32_t>(v12.Read(VmcsField::kCpuBasedVmExecControl));

  switch (insn.kind) {
    case GuestInsnKind::kCpuid:
      NVCOV(cov_);
      ReflectExit(ExitReason::kCpuid, 0);
      return HandledBy::kL1;
    case GuestInsnKind::kVmcall:
      NVCOV(cov_);
      ReflectExit(ExitReason::kVmcall, 0);
      return HandledBy::kL1;
    case GuestInsnKind::kHlt:
      if ((proc & ProcCtl::kHltExiting) != 0) {
        NVCOV(cov_);
        ReflectExit(ExitReason::kHlt, 0);
        return HandledBy::kL1;
      }
      NVCOV(cov_);
      return HandledBy::kL0;
    case GuestInsnKind::kRdmsr:
    case GuestInsnKind::kWrmsr:
      if ((proc & ProcCtl::kUseMsrBitmaps) == 0) {
        NVCOV(cov_);
        ReflectExit(insn.kind == GuestInsnKind::kRdmsr
                        ? ExitReason::kMsrRead
                        : ExitReason::kMsrWrite,
                    insn.arg0);
        return HandledBy::kL1;
      }
      NVCOV(cov_);
      return HandledBy::kL0;
    case GuestInsnKind::kIoIn:
    case GuestInsnKind::kIoOut:
      if ((proc & ProcCtl::kUncondIoExiting) != 0) {
        NVCOV(cov_);
        ReflectExit(ExitReason::kIoInstruction, insn.arg0);
        return HandledBy::kL1;
      }
      NVCOV(cov_);
      return HandledBy::kL0;
    case GuestInsnKind::kMovToCr0: {
      const uint64_t mask = v12.Read(VmcsField::kCr0GuestHostMask);
      const uint64_t shadow = v12.Read(VmcsField::kCr0ReadShadow);
      if (((insn.arg0 ^ shadow) & mask) != 0) {
        NVCOV(cov_);
        ReflectExit(ExitReason::kCrAccess, 0);
        return HandledBy::kL1;
      }
      NVCOV(cov_);
      return HandledBy::kL0;
    }
    default:
      NVCOV(cov_);
      return HandledBy::kL0;
  }
}

const size_t kVboxNestedVmxCoveragePoints = __COUNTER__;

}  // namespace neco
