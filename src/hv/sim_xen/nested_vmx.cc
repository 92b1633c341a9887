// Xen nested VMX engine (vvmx.c analog). One translation unit so the
// NVCOV/__COUNTER__ point ids stay dense and private to this "source file".
#include "src/hv/sim_xen/xen.h"

#include <string>

#include "src/arch/vmx_bits.h"
#include "src/support/bits.h"

namespace neco {

XenNestedVmx::XenNestedVmx(CoverageUnit& cov, SanitizerSink& san,
                           GuestMemory& mem, VmxCpu& cpu, bool* host_crashed)
    : cov_(cov), san_(san), mem_(mem), cpu_(cpu),
      host_crashed_(host_crashed) {
  Reset(VcpuConfig::Default(Arch::kIntel));
}

void XenNestedVmx::Reset(const VcpuConfig& config) {
  config_ = config;
  nested_caps_ =
      MakeVmxCapabilities(config.features.RestrictedTo(Arch::kIntel));
  vmxon_ = false;
  vmxon_ptr_ = kNoPtr;
  vvmcs_ptr_ = kNoPtr;
  vvmcs_cache_.clear();
  launched_.clear();
  vmcs01_ = MakeDefaultVmcs();
  vmcs02_ = Vmcs();
  in_l2_ = false;
}

bool XenNestedVmx::CheckPermission() {
  if (!config_.nested()) {
    NVCOV(cov_);  // nestedhvm=0: #UD.
    return false;
  }
  if (!vmxon_) {
    NVCOV(cov_);
    return false;
  }
  NVCOV(cov_);
  return true;
}

VmxEmuResult XenNestedVmx::HandleInstruction(const VmxInsn& insn) {
  VmxEmuResult r;
  switch (insn.op) {
    case VmxOp::kVmxon: {
      if (!config_.nested()) {
        NVCOV(cov_);
        return r;
      }
      if (vmxon_) {
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
    }
    case VmxOp::kVmxoff:
      if (!CheckPermission()) {
        return r;
      }
      NVCOV(cov_);
      vmxon_ = false;
      vvmcs_ptr_ = kNoPtr;
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
      if (insn.operand == vvmcs_ptr_) {
        NVCOV(cov_);
        vvmcs_ptr_ = kNoPtr;
      }
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
      // Xen maps the vvmcs page; a bad revision shows up as a map failure.
      if (mem_.Read32(insn.operand) != Vmcs::kRevisionId) {
        NVCOV(cov_);
        return r;
      }
      NVCOV(cov_);
      vvmcs_cache_[insn.operand];
      vvmcs_ptr_ = insn.operand;
      r.ok = true;
      return r;
    case VmxOp::kVmptrst:
      if (!CheckPermission()) {
        return r;
      }
      NVCOV(cov_);
      r.ok = true;
      r.read_value = vvmcs_ptr_;
      return r;
    case VmxOp::kVmwrite: {
      if (!CheckPermission()) {
        return r;
      }
      auto it = vvmcs_cache_.find(vvmcs_ptr_);
      if (it == vvmcs_cache_.end()) {
        NVCOV(cov_);
        return r;
      }
      if (FindVmcsField(insn.field) == nullptr) {
        NVCOV(cov_);
        return r;
      }
      NVCOV(cov_);  // Xen permits vmwrite to read-only fields in the vvmcs.
      it->second.Write(insn.field, insn.value);
      r.ok = true;
      return r;
    }
    case VmxOp::kVmread: {
      if (!CheckPermission()) {
        return r;
      }
      auto it = vvmcs_cache_.find(vvmcs_ptr_);
      if (it == vvmcs_cache_.end()) {
        NVCOV(cov_);
        return r;
      }
      if (FindVmcsField(insn.field) == nullptr) {
        NVCOV(cov_);
        return r;
      }
      NVCOV(cov_);
      r.ok = true;
      r.read_value = it->second.Read(insn.field);
      return r;
    }
    case VmxOp::kVmlaunch:
      return VirtualVmentry(/*launch=*/true);
    case VmxOp::kVmresume:
      return VirtualVmentry(/*launch=*/false);
    case VmxOp::kInvept:
      if (!CheckPermission()) {
        return r;
      }
      if (!config_.features.Has(CpuFeature::kEpt)) {
        NVCOV(cov_);
        return r;
      }
      NVCOV(cov_);
      r.ok = true;
      return r;
    case VmxOp::kInvvpid:
      if (!CheckPermission()) {
        return r;
      }
      if (!config_.features.Has(CpuFeature::kVpid)) {
        NVCOV(cov_);
        return r;
      }
      NVCOV(cov_);
      r.ok = true;
      return r;
    case VmxOp::kCount:
      break;
  }
  return r;
}

// Xen's replica checks are sparser than KVM's: controls and host checks
// exist, guest-state validation is delegated to hardware almost entirely.
bool XenNestedVmx::NvmxCheckControls(const Vmcs& v12) {
  const uint32_t pin =
      static_cast<uint32_t>(v12.Read(VmcsField::kPinBasedVmExecControl));
  const uint32_t proc =
      static_cast<uint32_t>(v12.Read(VmcsField::kCpuBasedVmExecControl));
  if (!nested_caps_.pinbased.Permits(pin)) {
    NVCOV(cov_);
    return false;
  }
  if (!nested_caps_.procbased.Permits(proc)) {
    NVCOV(cov_);
    return false;
  }
  if ((proc & ProcCtl::kActivateSecondary) != 0) {
    NVCOV(cov_);
    const uint32_t sec = static_cast<uint32_t>(
        v12.Read(VmcsField::kSecondaryVmExecControl));
    if (!nested_caps_.procbased2.Permits(sec)) {
      NVCOV(cov_);
      return false;
    }
    if ((sec & Proc2Ctl::kEnableEpt) != 0) {
      NVCOV(cov_);
      const uint64_t eptp = v12.Read(VmcsField::kEptPointer);
      if ((eptp & 0x7) != 6 || ExtractBits(eptp, 3, 3) != 3) {
        NVCOV(cov_);
        return false;
      }
    }
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
  if ((proc & ProcCtl::kUseMsrBitmaps) != 0 &&
      !IsAligned(v12.Read(VmcsField::kMsrBitmap), 12)) {
    NVCOV(cov_);
    return false;
  }
  if ((proc & ProcCtl::kUseIoBitmaps) != 0) {
    NVCOV(cov_);
    if (!IsAligned(v12.Read(VmcsField::kIoBitmapA), 12) ||
        !IsAligned(v12.Read(VmcsField::kIoBitmapB), 12)) {
      NVCOV(cov_);
      return false;
    }
  }
  NVCOV(cov_);
  return true;
}

bool XenNestedVmx::NvmxCheckHost(const Vmcs& v12) {
  if ((v12.Read(VmcsField::kHostCr0) & nested_caps_.cr0_fixed0) !=
      nested_caps_.cr0_fixed0) {
    NVCOV(cov_);
    return false;
  }
  if ((v12.Read(VmcsField::kHostCr4) & nested_caps_.cr4_fixed0) !=
      nested_caps_.cr4_fixed0) {
    NVCOV(cov_);
    return false;
  }
  if (!IsCanonical(v12.Read(VmcsField::kHostRip))) {
    NVCOV(cov_);
    return false;
  }
  if (v12.Read(VmcsField::kHostCsSelector) == 0) {
    NVCOV(cov_);
    return false;
  }
  NVCOV(cov_);
  return true;
}

bool XenNestedVmx::NvmxCheckGuest(const Vmcs& v12) {
  // Xen only pre-validates the few pieces it must interpret itself; the
  // rest rides on the hardware checks over VMCS02.
  const uint64_t cr0 = v12.Read(VmcsField::kGuestCr0);
  uint64_t cr0_fixed0 = nested_caps_.cr0_fixed0;
  const uint32_t proc =
      static_cast<uint32_t>(v12.Read(VmcsField::kCpuBasedVmExecControl));
  if ((proc & ProcCtl::kActivateSecondary) != 0 &&
      (v12.Read(VmcsField::kSecondaryVmExecControl) &
       Proc2Ctl::kUnrestrictedGuest) != 0) {
    NVCOV(cov_);
    cr0_fixed0 &= ~(Cr0::kPe | Cr0::kPg);
  }
  if ((cr0 & cr0_fixed0) != cr0_fixed0) {
    NVCOV(cov_);
    return false;
  }
  if ((v12.Read(VmcsField::kGuestCr4) & nested_caps_.cr4_fixed0) !=
      nested_caps_.cr4_fixed0) {
    NVCOV(cov_);
    return false;
  }
  NVCOV(cov_);
  return true;
  // NOTE (bug X1): no activity-state sanitization anywhere in this path.
}

void XenNestedVmx::LoadVvmcs(const Vmcs& v12) {
  NVCOV(cov_);
  // vmcs01 is the boot-built default image, never written after Reset, so
  // copying it is byte-identical to rebuilding MakeDefaultVmcs per entry.
  vmcs02_ = vmcs01_;
  vmcs02_.set_launch_state(Vmcs::LaunchState::kClear);
  const uint32_t proc =
      static_cast<uint32_t>(v12.Read(VmcsField::kCpuBasedVmExecControl));
  vmcs02_.Write(VmcsField::kPinBasedVmExecControl,
                nested_caps_.pinbased.Round(static_cast<uint32_t>(
                    v12.Read(VmcsField::kPinBasedVmExecControl))));
  vmcs02_.Write(VmcsField::kCpuBasedVmExecControl,
                nested_caps_.procbased.Round(proc) |
                    ProcCtl::kUseMsrBitmaps | ProcCtl::kUseIoBitmaps);
  if ((proc & ProcCtl::kActivateSecondary) != 0) {
    NVCOV(cov_);
    vmcs02_.Write(VmcsField::kSecondaryVmExecControl,
                  nested_caps_.procbased2.Round(static_cast<uint32_t>(
                      v12.Read(VmcsField::kSecondaryVmExecControl))) |
                      (config_.features.Has(CpuFeature::kEpt)
                           ? Proc2Ctl::kEnableEpt
                           : 0u));
  } else if (config_.features.Has(CpuFeature::kEpt)) {
    NVCOV(cov_);
    vmcs02_.Write(VmcsField::kCpuBasedVmExecControl,
                  vmcs02_.Read(VmcsField::kCpuBasedVmExecControl) |
                      ProcCtl::kActivateSecondary);
    vmcs02_.Write(VmcsField::kSecondaryVmExecControl, Proc2Ctl::kEnableEpt);
  }
  if (config_.features.Has(CpuFeature::kEpt)) {
    NVCOV(cov_);
    vmcs02_.Write(VmcsField::kEptPointer, 0x1000 | 0x6 | (3u << 3));
  }
  vmcs02_.Write(VmcsField::kVmExitControls,
                nested_caps_.exit.Round(static_cast<uint32_t>(
                    v12.Read(VmcsField::kVmExitControls))) |
                    ExitCtl::kHostAddrSpaceSize | ExitCtl::kSaveEfer |
                    ExitCtl::kLoadEfer);
  vmcs02_.Write(VmcsField::kVmEntryControls,
                nested_caps_.entry.Round(static_cast<uint32_t>(
                    v12.Read(VmcsField::kVmEntryControls))));

  static constexpr VmcsField kGuestCopy[] = {
      VmcsField::kGuestCr0, VmcsField::kGuestCr3, VmcsField::kGuestCr4,
      VmcsField::kGuestIa32Efer, VmcsField::kGuestRflags,
      VmcsField::kGuestRip, VmcsField::kGuestRsp, VmcsField::kGuestDr7,
      VmcsField::kGuestCsSelector, VmcsField::kGuestCsBase,
      VmcsField::kGuestCsLimit, VmcsField::kGuestCsArBytes,
      VmcsField::kGuestSsSelector, VmcsField::kGuestSsBase,
      VmcsField::kGuestSsLimit, VmcsField::kGuestSsArBytes,
      VmcsField::kGuestDsSelector, VmcsField::kGuestDsArBytes,
      VmcsField::kGuestEsSelector, VmcsField::kGuestEsArBytes,
      VmcsField::kGuestFsSelector, VmcsField::kGuestFsArBytes,
      VmcsField::kGuestGsSelector, VmcsField::kGuestGsArBytes,
      VmcsField::kGuestLdtrSelector, VmcsField::kGuestLdtrArBytes,
      VmcsField::kGuestTrSelector, VmcsField::kGuestTrBase,
      VmcsField::kGuestTrLimit, VmcsField::kGuestTrArBytes,
      VmcsField::kGuestGdtrBase, VmcsField::kGuestGdtrLimit,
      VmcsField::kGuestIdtrBase, VmcsField::kGuestIdtrLimit,
      VmcsField::kGuestInterruptibilityInfo,
      VmcsField::kGuestPendingDbgExceptions,
      // Bug X1: the activity state is copied VERBATIM into VMCS02. Xen
      // never filters SHUTDOWN / WAIT-FOR-SIPI here.
      VmcsField::kGuestActivityState,
      VmcsField::kGuestFsBase, VmcsField::kGuestGsBase,
      VmcsField::kGuestSysenterCs, VmcsField::kGuestSysenterEsp,
      VmcsField::kGuestSysenterEip,
  };
  for (VmcsField f : kGuestCopy) {
    vmcs02_.Write(f, v12.Read(f));
  }
  vmcs02_.Write(VmcsField::kVmcsLinkPointer, ~0ULL);
}

VmxEmuResult XenNestedVmx::VirtualVmentry(bool launch) {
  VmxEmuResult r;
  if (!CheckPermission()) {
    return r;
  }
  auto it = vvmcs_cache_.find(vvmcs_ptr_);
  if (it == vvmcs_cache_.end()) {
    NVCOV(cov_);
    return r;
  }
  const bool launched = launched_[vvmcs_ptr_];
  if (launch && launched) {
    NVCOV(cov_);
    return r;
  }
  if (!launch && !launched) {
    NVCOV(cov_);
    return r;
  }
  Vmcs& v12 = it->second;

  if (!NvmxCheckControls(v12)) {
    NVCOV(cov_);
    return r;
  }
  if (!NvmxCheckHost(v12)) {
    NVCOV(cov_);
    return r;
  }
  if (!NvmxCheckGuest(v12)) {
    NVCOV(cov_);
    v12.Write(VmcsField::kVmExitReason,
              static_cast<uint32_t>(ExitReason::kInvalidGuestState) |
                  kExitReasonFailedEntryBit);
    r.ok = true;
    return r;
  }

  LoadVvmcs(v12);
  const EntryOutcome hw = cpu_.TryEntry(vmcs02_, /*launch=*/true);
  if (hw.status == EntryStatus::kEntered) {
    NVCOV(cov_);
    in_l2_ = true;
    launched_[vvmcs_ptr_] = true;
    r.ok = true;
    r.entered_l2 = true;
    // Bug X1 manifestation: entering L2 in WAIT-FOR-SIPI blocks every
    // interrupt except SIPI; SHUTDOWN resets the platform. Either way the
    // host never regains control of this CPU.
    const uint64_t activity =
        vmcs02_.Read(VmcsField::kGuestActivityState);
    if (activity == static_cast<uint64_t>(ActivityState::kWaitForSipi) ||
        activity == static_cast<uint64_t>(ActivityState::kShutdown)) {
      NVCOV(cov_);
      san_.Report(AnomalyKind::kHostCrash, "xen-nvmx-activity-state",
                  "host unresponsive: VMCS02 entered with activity state " +
                      std::to_string(activity) +
                      " copied unsanitized from VMCS12");
      *host_crashed_ = true;
    }
    return r;
  }
  if (hw.status == EntryStatus::kEntryFailGuest) {
    NVCOV(cov_);  // Hardware rejected the merged state; reflect to L1.
    v12.Write(VmcsField::kVmExitReason,
              static_cast<uint32_t>(ExitReason::kInvalidGuestState) |
                  kExitReasonFailedEntryBit);
    v12.Write(VmcsField::kExitQualification,
              static_cast<uint64_t>(hw.failed_check));
    r.ok = true;
    return r;
  }
  NVCOV(cov_);  // VMfail on the merged controls.
  return r;
}

void XenNestedVmx::VirtualVmexit(ExitReason reason, uint64_t qual) {
  NVCOV(cov_);
  auto it = vvmcs_cache_.find(vvmcs_ptr_);
  if (it != vvmcs_cache_.end()) {
    NVCOV(cov_);
    Vmcs& v12 = it->second;
    static constexpr VmcsField kSync[] = {
        VmcsField::kGuestCr0, VmcsField::kGuestCr3, VmcsField::kGuestCr4,
        VmcsField::kGuestRflags, VmcsField::kGuestRip, VmcsField::kGuestRsp,
        VmcsField::kGuestInterruptibilityInfo,
        VmcsField::kGuestActivityState,
    };
    for (VmcsField f : kSync) {
      v12.Write(f, vmcs02_.Read(f));
    }
    v12.Write(VmcsField::kVmExitReason, static_cast<uint32_t>(reason));
    v12.Write(VmcsField::kExitQualification, qual);
    if (!IsCanonical(v12.Read(VmcsField::kHostRip))) {
      NVCOV(cov_);  // Xen domain_crash() on bad L1 host state.
      san_.Report(AnomalyKind::kLogWarning, "xen-nvmx-domain-crash",
                  "domain_crash: invalid VMCS12 host state on nested exit");
    }
  }
  in_l2_ = false;
}

bool XenNestedVmx::InterceptedByL1(const GuestInsn& insn,
                                   ExitReason* reason) {
  auto it = vvmcs_cache_.find(vvmcs_ptr_);
  if (it == vvmcs_cache_.end()) {
    NVCOV(cov_);
    *reason = ExitReason::kCpuid;
    return false;
  }
  const Vmcs& v12 = it->second;
  const uint32_t proc =
      static_cast<uint32_t>(v12.Read(VmcsField::kCpuBasedVmExecControl));
  const uint32_t sec =
      (proc & ProcCtl::kActivateSecondary) != 0
          ? static_cast<uint32_t>(
                v12.Read(VmcsField::kSecondaryVmExecControl))
          : 0;
  switch (insn.kind) {
    case GuestInsnKind::kCpuid:
      NVCOV(cov_);
      *reason = ExitReason::kCpuid;
      return true;
    case GuestInsnKind::kVmcall:
      NVCOV(cov_);
      *reason = ExitReason::kVmcall;
      return true;
    case GuestInsnKind::kHlt:
      *reason = ExitReason::kHlt;
      if ((proc & ProcCtl::kHltExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kRdtsc:
    case GuestInsnKind::kRdtscp:
      *reason = ExitReason::kRdtsc;
      if ((proc & ProcCtl::kRdtscExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kMovToCr0: {
      *reason = ExitReason::kCrAccess;
      const uint64_t mask = v12.Read(VmcsField::kCr0GuestHostMask);
      const uint64_t shadow = v12.Read(VmcsField::kCr0ReadShadow);
      if (((insn.arg0 ^ shadow) & mask) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    }
    case GuestInsnKind::kMovToCr4: {
      *reason = ExitReason::kCrAccess;
      const uint64_t mask = v12.Read(VmcsField::kCr4GuestHostMask);
      const uint64_t shadow = v12.Read(VmcsField::kCr4ReadShadow);
      if (((insn.arg0 ^ shadow) & mask) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    }
    case GuestInsnKind::kMovToCr3:
      *reason = ExitReason::kCrAccess;
      if ((proc & ProcCtl::kCr3LoadExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kIoIn:
    case GuestInsnKind::kIoOut:
      *reason = ExitReason::kIoInstruction;
      if ((proc & ProcCtl::kUseIoBitmaps) != 0) {
        NVCOV(cov_);
        const uint64_t port = insn.arg0 & 0xffff;
        const uint64_t bitmap = port < 0x8000
                                    ? v12.Read(VmcsField::kIoBitmapA)
                                    : v12.Read(VmcsField::kIoBitmapB);
        return mem_.TestBit(bitmap, port & 0x7fff);
      }
      if ((proc & ProcCtl::kUncondIoExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kRdmsr:
    case GuestInsnKind::kWrmsr: {
      *reason = insn.kind == GuestInsnKind::kRdmsr ? ExitReason::kMsrRead
                                                   : ExitReason::kMsrWrite;
      if ((proc & ProcCtl::kUseMsrBitmaps) == 0) {
        NVCOV(cov_);
        return true;
      }
      const uint32_t msr = static_cast<uint32_t>(insn.arg0);
      const uint64_t bitmap = v12.Read(VmcsField::kMsrBitmap);
      uint64_t bit;
      if (msr < 0x2000) {
        bit = msr;
      } else if (msr >= 0xc0000000 && msr < 0xc0002000) {
        bit = 0x2000 + (msr - 0xc0000000);
      } else {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return mem_.TestBit(bitmap, bit);
    }
    case GuestInsnKind::kInvlpg:
      *reason = ExitReason::kInvlpg;
      if ((proc & ProcCtl::kInvlpgExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kPause:
      *reason = ExitReason::kPause;
      if ((proc & ProcCtl::kPauseExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kWbinvd:
      *reason = ExitReason::kWbinvd;
      if ((sec & Proc2Ctl::kWbinvdExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kRaiseException: {
      *reason = ExitReason::kExceptionNmi;
      const uint64_t bitmap = v12.Read(VmcsField::kExceptionBitmap);
      if ((bitmap & (1ULL << (insn.arg0 & 31))) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    }
    default:
      NVCOV(cov_);
      *reason = ExitReason::kCpuid;
      return false;
  }
}

HandledBy XenNestedVmx::HandleL2Instruction(const GuestInsn& insn) {
  if (!in_l2_) {
    NVCOV(cov_);
    return HandledBy::kNoExit;
  }
  ExitReason reason = ExitReason::kCpuid;
  if (InterceptedByL1(insn, &reason)) {
    NVCOV(cov_);
    VirtualVmexit(reason, insn.arg0);
    return HandledBy::kL1;
  }
  NVCOV(cov_);  // Handled by Xen itself; L2 resumes.
  return HandledBy::kL0;
}

HandledBy XenNestedVmx::HandleL1Instruction(const GuestInsn& insn) {
  switch (insn.kind) {
    case GuestInsnKind::kRdmsr: {
      const uint32_t msr = static_cast<uint32_t>(insn.arg0);
      if (msr >= Msr::kIa32VmxBasic && msr <= Msr::kIa32VmxBasic + 0x11) {
        NVCOV(cov_);  // nvmx_msr_read_intercept().
        return HandledBy::kL0;
      }
      NVCOV(cov_);
      return HandledBy::kL0;
    }
    case GuestInsnKind::kVmcall:
      NVCOV(cov_);
      return HandledBy::kL0;
    default:
      NVCOV(cov_);
      return HandledBy::kNoExit;
  }
}

const size_t kXenNestedVmxCoveragePoints = __COUNTER__;

}  // namespace neco
