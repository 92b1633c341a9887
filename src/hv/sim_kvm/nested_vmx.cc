#include "src/hv/sim_kvm/nested_vmx.h"

#include <string>

#include "src/arch/vmx_bits.h"
#include "src/support/bits.h"

namespace neco {

KvmNestedVmx::KvmNestedVmx(CoverageUnit& cov, SanitizerSink& san,
                           GuestMemory& mem, VmxCpu& cpu)
    : cov_(cov), san_(san), mem_(mem), cpu_(cpu) {
  Reset(VcpuConfig::Default(Arch::kIntel));
}

void KvmNestedVmx::Reset(const VcpuConfig& config) {
  config_ = config;
  nested_caps_ = MakeVmxCapabilities(config.features.RestrictedTo(Arch::kIntel));
  vmxon_ = false;
  vmxon_ptr_ = kNoPtr;
  current_ptr_ = kNoPtr;
  vmcs12_cache_.clear();
  vmcs01_ = MakeDefaultVmcs();
  vmcs02_ = Vmcs();
  in_l2_ = false;
  l2_ever_ran_ = false;
}

const Vmcs* KvmNestedVmx::current_vmcs12() const {
  auto it = vmcs12_cache_.find(current_ptr_);
  return it != vmcs12_cache_.end() ? &it->second.vmcs : nullptr;
}

// ---------------------------------------------------------------------------
// Permission / instruction entry points (handle_vmx_instruction dispatch).
// ---------------------------------------------------------------------------

bool KvmNestedVmx::NestedVmxCheckPermission() {
  if (!config_.nested()) {
    NVCOV(cov_);  // nested=0: VMX instructions raise #UD in the guest.
    return false;
  }
  if (!vmxon_) {
    NVCOV(cov_);  // Outside VMX operation: #UD.
    return false;
  }
  NVCOV(cov_);
  return true;
}

VmxEmuResult KvmNestedVmx::HandleInstruction(const VmxInsn& insn) {
  switch (insn.op) {
    case VmxOp::kVmxon:
      return HandleVmxon(insn.operand);
    case VmxOp::kVmxoff:
      return HandleVmxoff();
    case VmxOp::kVmclear:
      return HandleVmclear(insn.operand);
    case VmxOp::kVmptrld:
      return HandleVmptrld(insn.operand);
    case VmxOp::kVmptrst:
      return HandleVmptrst();
    case VmxOp::kVmwrite:
      return HandleVmwrite(insn.field, insn.value);
    case VmxOp::kVmread:
      return HandleVmread(insn.field);
    case VmxOp::kVmlaunch:
      return NestedVmxRun(/*launch=*/true);
    case VmxOp::kVmresume:
      return NestedVmxRun(/*launch=*/false);
    case VmxOp::kInvept:
      return HandleInvept(insn.operand);
    case VmxOp::kInvvpid:
      return HandleInvvpid(insn.operand);
    case VmxOp::kCount:
      break;
  }
  return {};
}

VmxEmuResult KvmNestedVmx::HandleVmxon(uint64_t pa) {
  VmxEmuResult r;
  if (!config_.nested()) {
    NVCOV(cov_);  // CPUID.VMX clear: #UD.
    return r;
  }
  if (vmxon_) {
    NVCOV(cov_);  // VMXON within VMX operation: VMfail.
    return r;
  }
  if (!IsAligned(pa, 12) || pa == 0) {
    NVCOV(cov_);
    return r;
  }
  if (pa > nested_caps_.MaxPhysicalAddress()) {
    NVCOV(cov_);
    return r;
  }
  // The VMXON region header carries the revision identifier.
  if (mem_.Read32(pa) != Vmcs::kRevisionId) {
    NVCOV(cov_);
    return r;
  }
  NVCOV(cov_);
  vmxon_ = true;
  vmxon_ptr_ = pa;
  current_ptr_ = kNoPtr;
  r.ok = true;
  return r;
}

VmxEmuResult KvmNestedVmx::HandleVmxoff() {
  VmxEmuResult r;
  if (!NestedVmxCheckPermission()) {
    return r;
  }
  NVCOV(cov_);
  // free_nested(): drop all nested state.
  vmxon_ = false;
  vmxon_ptr_ = kNoPtr;
  current_ptr_ = kNoPtr;
  in_l2_ = false;
  r.ok = true;
  return r;
}

VmxEmuResult KvmNestedVmx::HandleVmclear(uint64_t pa) {
  VmxEmuResult r;
  if (!NestedVmxCheckPermission()) {
    return r;
  }
  if (!IsAligned(pa, 12) || pa == 0 ||
      pa > nested_caps_.MaxPhysicalAddress()) {
    NVCOV(cov_);  // VMfail(VMCLEAR with invalid address).
    return r;
  }
  if (pa == vmxon_ptr_) {
    NVCOV(cov_);  // VMfail(VMCLEAR with VMXON pointer).
    return r;
  }
  NVCOV(cov_);
  CachedVmcs12& entry = vmcs12_cache_[pa];
  entry.launched = false;
  if (pa == current_ptr_) {
    NVCOV(cov_);  // Clearing the current VMCS releases it.
    current_ptr_ = kNoPtr;
  }
  r.ok = true;
  return r;
}

VmxEmuResult KvmNestedVmx::HandleVmptrld(uint64_t pa) {
  VmxEmuResult r;
  if (!NestedVmxCheckPermission()) {
    return r;
  }
  if (!IsAligned(pa, 12) || pa == 0 ||
      pa > nested_caps_.MaxPhysicalAddress()) {
    NVCOV(cov_);
    return r;
  }
  if (pa == vmxon_ptr_) {
    NVCOV(cov_);
    return r;
  }
  if (config_.features.Has(CpuFeature::kEnlightenedVmcs)) {
    // Hyper-V enlightened VMCS path: only reachable when the guest
    // negotiated evmcs via Hyper-V hypercalls, which the fuzz harness does
    // not model (paper Section 5.2, residual-coverage category).
    NVCOV(cov_);
  }
  // The region header in guest memory carries the revision identifier.
  if (mem_.Read32(pa) != Vmcs::kRevisionId) {
    NVCOV(cov_);  // VMfail(VMPTRLD with incorrect VMCS revision id).
    return r;
  }
  NVCOV(cov_);
  vmcs12_cache_[pa];  // Materialize the cache entry (copy_vmcs12 on load).
  current_ptr_ = pa;
  r.ok = true;
  return r;
}

VmxEmuResult KvmNestedVmx::HandleVmptrst() {
  VmxEmuResult r;
  if (!NestedVmxCheckPermission()) {
    return r;
  }
  NVCOV(cov_);
  r.ok = true;
  r.read_value = current_ptr_;
  return r;
}

VmxEmuResult KvmNestedVmx::HandleVmwrite(VmcsField field, uint64_t value) {
  VmxEmuResult r;
  if (!NestedVmxCheckPermission()) {
    return r;
  }
  auto it = vmcs12_cache_.find(current_ptr_);
  if (it == vmcs12_cache_.end()) {
    NVCOV(cov_);  // VMfailInvalid: no current VMCS.
    return r;
  }
  if (FindVmcsField(field) == nullptr) {
    NVCOV(cov_);  // VMfail(unsupported VMCS component).
    return r;
  }
  if (IsReadOnlyField(field)) {
    NVCOV(cov_);  // VMfail(read-only VMCS component).
    return r;
  }
  NVCOV(cov_);
  it->second.vmcs.Write(field, value);
  r.ok = true;
  return r;
}

VmxEmuResult KvmNestedVmx::HandleVmread(VmcsField field) {
  VmxEmuResult r;
  if (!NestedVmxCheckPermission()) {
    return r;
  }
  auto it = vmcs12_cache_.find(current_ptr_);
  if (it == vmcs12_cache_.end()) {
    NVCOV(cov_);
    return r;
  }
  if (FindVmcsField(field) == nullptr) {
    NVCOV(cov_);
    return r;
  }
  NVCOV(cov_);
  r.ok = true;
  r.read_value = it->second.vmcs.Read(field);
  return r;
}

VmxEmuResult KvmNestedVmx::HandleInvept(uint64_t type) {
  VmxEmuResult r;
  if (!NestedVmxCheckPermission()) {
    return r;
  }
  if (!config_.features.Has(CpuFeature::kEpt)) {
    NVCOV(cov_);  // INVEPT without EPT exposure: #UD.
    return r;
  }
  if (type != 1 && type != 2) {
    NVCOV(cov_);  // VMfail(invalid operand to INVEPT).
    return r;
  }
  if (type == 1) {
    NVCOV(cov_);  // Single-context invalidation.
  } else {
    NVCOV(cov_);  // Global invalidation.
  }
  r.ok = true;
  return r;
}

VmxEmuResult KvmNestedVmx::HandleInvvpid(uint64_t type) {
  VmxEmuResult r;
  if (!NestedVmxCheckPermission()) {
    return r;
  }
  if (!config_.features.Has(CpuFeature::kVpid)) {
    NVCOV(cov_);
    return r;
  }
  if (type > 3) {
    NVCOV(cov_);  // VMfail(invalid operand to INVVPID).
    return r;
  }
  NVCOV(cov_);
  r.ok = true;
  return r;
}

// ---------------------------------------------------------------------------
// VMCS12 consistency checks (nested_vmx_check_* family).
// ---------------------------------------------------------------------------

bool KvmNestedVmx::NestedVmxCheckEptp(uint64_t eptp) {
  const uint64_t memtype = eptp & 0x7;
  if (memtype != 0 && memtype != 6) {
    NVCOV(cov_);
    return false;
  }
  if (ExtractBits(eptp, 3, 3) != 3) {
    NVCOV(cov_);  // Only 4-level EPT walks are exposed to L1.
    return false;
  }
  if (ExtractBits(eptp, 7, 5) != 0) {
    NVCOV(cov_);
    return false;
  }
  if (TestBit(eptp, 6) && !nested_caps_.ept_ad_bits) {
    NVCOV(cov_);
    return false;
  }
  NVCOV(cov_);
  // NOTE (bug K2): the address-range check is missing here — a huge EPTP
  // address sails through and only trips mmu_check_root() much later.
  return true;
}

bool KvmNestedVmx::CheckVmControls(const Vmcs& v12) {
  const uint32_t pin =
      static_cast<uint32_t>(v12.Read(VmcsField::kPinBasedVmExecControl));
  const uint32_t proc =
      static_cast<uint32_t>(v12.Read(VmcsField::kCpuBasedVmExecControl));
  const bool has_sec = (proc & ProcCtl::kActivateSecondary) != 0;
  const uint32_t sec =
      has_sec ? static_cast<uint32_t>(
                    v12.Read(VmcsField::kSecondaryVmExecControl))
              : 0;
  const uint32_t exit_ctl =
      static_cast<uint32_t>(v12.Read(VmcsField::kVmExitControls));
  const uint32_t entry_ctl =
      static_cast<uint32_t>(v12.Read(VmcsField::kVmEntryControls));

  if (!nested_caps_.pinbased.Permits(pin)) {
    NVCOV(cov_);
    return false;
  }
  if (!nested_caps_.procbased.Permits(proc)) {
    NVCOV(cov_);
    return false;
  }
  if (has_sec) {
    NVCOV(cov_);
    if (!nested_caps_.procbased2.Permits(sec)) {
      NVCOV(cov_);
      return false;
    }
  }
  if (!nested_caps_.exit.Permits(exit_ctl)) {
    NVCOV(cov_);
    return false;
  }
  if (!nested_caps_.entry.Permits(entry_ctl)) {
    NVCOV(cov_);
    return false;
  }
  if (v12.Read(VmcsField::kCr3TargetCount) > 4) {
    NVCOV(cov_);
    return false;
  }

  if ((proc & ProcCtl::kUseIoBitmaps) != 0) {
    NVCOV(cov_);
    const uint64_t a = v12.Read(VmcsField::kIoBitmapA);
    const uint64_t b = v12.Read(VmcsField::kIoBitmapB);
    if (!IsAligned(a, 12) || !IsAligned(b, 12) ||
        a > nested_caps_.MaxPhysicalAddress() ||
        b > nested_caps_.MaxPhysicalAddress()) {
      NVCOV(cov_);
      return false;
    }
  }
  if ((proc & ProcCtl::kUseMsrBitmaps) != 0) {
    NVCOV(cov_);
    const uint64_t m = v12.Read(VmcsField::kMsrBitmap);
    if (!IsAligned(m, 12) || m > nested_caps_.MaxPhysicalAddress()) {
      NVCOV(cov_);
      return false;
    }
  }
  if ((proc & ProcCtl::kUseTprShadow) != 0) {
    NVCOV(cov_);
    const uint64_t vapic = v12.Read(VmcsField::kVirtualApicPageAddr);
    if (!IsAligned(vapic, 12) ||
        vapic > nested_caps_.MaxPhysicalAddress()) {
      NVCOV(cov_);
      return false;
    }
    if ((sec & Proc2Ctl::kVirtIntrDelivery) == 0 &&
        (v12.Read(VmcsField::kTprThreshold) & ~0xfULL) != 0) {
      NVCOV(cov_);
      return false;
    }
  }

  const bool nmi_exiting = (pin & PinCtl::kNmiExiting) != 0;
  const bool vnmi = (pin & PinCtl::kVirtualNmis) != 0;
  if (!nmi_exiting && vnmi) {
    NVCOV(cov_);
    return false;
  }
  if (!vnmi && (proc & ProcCtl::kNmiWindowExiting) != 0) {
    NVCOV(cov_);
    return false;
  }

  if ((sec & Proc2Ctl::kVirtX2apicMode) != 0 &&
      (sec & Proc2Ctl::kVirtApicAccesses) != 0) {
    NVCOV(cov_);
    return false;
  }
  if ((sec & Proc2Ctl::kVirtIntrDelivery) != 0 &&
      (pin & PinCtl::kExtIntExiting) == 0) {
    NVCOV(cov_);
    return false;
  }
  if ((pin & PinCtl::kPostedInterrupts) != 0) {
    NVCOV(cov_);
    if ((sec & Proc2Ctl::kVirtIntrDelivery) == 0 ||
        (exit_ctl & ExitCtl::kAckIntrOnExit) == 0) {
      NVCOV(cov_);
      return false;
    }
    const uint64_t desc = v12.Read(VmcsField::kPostedIntrDescAddr);
    if (!IsAligned(desc, 6) || desc > nested_caps_.MaxPhysicalAddress()) {
      NVCOV(cov_);
      return false;
    }
  }
  if ((sec & Proc2Ctl::kEnableVpid) != 0 &&
      v12.Read(VmcsField::kVirtualProcessorId) == 0) {
    NVCOV(cov_);
    return false;
  }
  if ((sec & Proc2Ctl::kEnableEpt) != 0) {
    NVCOV(cov_);
    if (!NestedVmxCheckEptp(v12.Read(VmcsField::kEptPointer))) {
      NVCOV(cov_);
      return false;
    }
  }
  if ((sec & Proc2Ctl::kUnrestrictedGuest) != 0 &&
      (sec & Proc2Ctl::kEnableEpt) == 0) {
    NVCOV(cov_);
    return false;
  }
  if ((sec & Proc2Ctl::kEnablePml) != 0) {
    NVCOV(cov_);
    const uint64_t pml = v12.Read(VmcsField::kPmlAddress);
    if ((sec & Proc2Ctl::kEnableEpt) == 0 || !IsAligned(pml, 12) ||
        pml > nested_caps_.MaxPhysicalAddress()) {
      NVCOV(cov_);
      return false;
    }
  }
  if ((sec & Proc2Ctl::kVmcsShadowing) != 0) {
    NVCOV(cov_);
    const uint64_t rd = v12.Read(VmcsField::kVmreadBitmap);
    const uint64_t wr = v12.Read(VmcsField::kVmwriteBitmap);
    if (!IsAligned(rd, 12) || !IsAligned(wr, 12) ||
        rd > nested_caps_.MaxPhysicalAddress() ||
        wr > nested_caps_.MaxPhysicalAddress()) {
      NVCOV(cov_);
      return false;
    }
  }
  if ((sec & Proc2Ctl::kEnableVmfunc) != 0) {
    NVCOV(cov_);
    const uint64_t list = v12.Read(VmcsField::kEptpListAddress);
    if ((sec & Proc2Ctl::kEnableEpt) == 0 || !IsAligned(list, 12) ||
        list > nested_caps_.MaxPhysicalAddress()) {
      NVCOV(cov_);
      return false;
    }
  }

  // VM-entry interruption-information checks.
  const uint32_t intr_info =
      static_cast<uint32_t>(v12.Read(VmcsField::kVmEntryIntrInfoField));
  if (TestBit(intr_info, 31)) {
    NVCOV(cov_);
    const uint32_t vector = intr_info & 0xff;
    const uint32_t type = ExtractBits(intr_info, 8, 3);
    if (type == 1) {
      NVCOV(cov_);
      return false;
    }
    if (type == 2 && vector != 2) {
      NVCOV(cov_);
      return false;
    }
    if ((type == 3 || type == 6) && vector > 31) {
      NVCOV(cov_);
      return false;
    }
    if (TestBit(intr_info, 11)) {
      NVCOV(cov_);
      const bool contributory =
          type == 3 && (vector == 8 || vector == 10 || vector == 11 ||
                        vector == 12 || vector == 13 || vector == 14 ||
                        vector == 17);
      if (!contributory) {
        NVCOV(cov_);
        return false;
      }
      if ((v12.Read(VmcsField::kVmEntryExceptionErrorCode) & ~0x7fffULL) !=
          0) {
        NVCOV(cov_);
        return false;
      }
    }
    if (type == 4 || type == 5 || type == 6) {
      NVCOV(cov_);
      const uint64_t len = v12.Read(VmcsField::kVmEntryInstructionLen);
      if (len == 0 || len > 15) {
        NVCOV(cov_);
        return false;
      }
    }
  }
  NVCOV(cov_);
  return true;
}

bool KvmNestedVmx::CheckHostStateArea(const Vmcs& v12) {
  const uint64_t cr0 = v12.Read(VmcsField::kHostCr0);
  const uint64_t cr4 = v12.Read(VmcsField::kHostCr4);
  const uint32_t exit_ctl =
      static_cast<uint32_t>(v12.Read(VmcsField::kVmExitControls));
  const bool host64 = (exit_ctl & ExitCtl::kHostAddrSpaceSize) != 0;

  if ((cr0 & nested_caps_.cr0_fixed0) != nested_caps_.cr0_fixed0 ||
      (cr0 & Cr0::kReservedMask) != 0) {
    NVCOV(cov_);
    return false;
  }
  if ((cr4 & nested_caps_.cr4_fixed0) != nested_caps_.cr4_fixed0 ||
      (cr4 & Cr4::kReservedMask) != 0) {
    NVCOV(cov_);
    return false;
  }
  if (v12.Read(VmcsField::kHostCr3) > nested_caps_.MaxPhysicalAddress()) {
    NVCOV(cov_);
    return false;
  }
  for (VmcsField f : {VmcsField::kHostFsBase, VmcsField::kHostGsBase,
                      VmcsField::kHostTrBase, VmcsField::kHostGdtrBase,
                      VmcsField::kHostIdtrBase}) {
    if (!IsCanonical(v12.Read(f))) {
      NVCOV(cov_);
      return false;
    }
  }
  if (!IsCanonical(v12.Read(VmcsField::kHostIa32SysenterEsp)) ||
      !IsCanonical(v12.Read(VmcsField::kHostIa32SysenterEip))) {
    NVCOV(cov_);
    return false;
  }
  for (VmcsField f :
       {VmcsField::kHostCsSelector, VmcsField::kHostSsSelector,
        VmcsField::kHostDsSelector, VmcsField::kHostEsSelector,
        VmcsField::kHostFsSelector, VmcsField::kHostGsSelector,
        VmcsField::kHostTrSelector}) {
    if ((v12.Read(f) & 0x7) != 0) {
      NVCOV(cov_);
      return false;
    }
  }
  if (v12.Read(VmcsField::kHostCsSelector) == 0 ||
      v12.Read(VmcsField::kHostTrSelector) == 0) {
    NVCOV(cov_);
    return false;
  }
  if (!host64 && v12.Read(VmcsField::kHostSsSelector) == 0) {
    NVCOV(cov_);
    return false;
  }
  if (host64) {
    NVCOV(cov_);
    if ((cr4 & Cr4::kPae) == 0 ||
        !IsCanonical(v12.Read(VmcsField::kHostRip))) {
      NVCOV(cov_);
      return false;
    }
  } else {
    NVCOV(cov_);
    if ((cr4 & Cr4::kPcide) != 0 ||
        (v12.Read(VmcsField::kHostRip) >> 32) != 0) {
      NVCOV(cov_);
      return false;
    }
  }
  if ((exit_ctl & ExitCtl::kLoadEfer) != 0) {
    NVCOV(cov_);
    const uint64_t efer = v12.Read(VmcsField::kHostIa32Efer);
    if ((efer & Efer::kReservedMask) != 0 ||
        ((efer & Efer::kLma) != 0) != host64 ||
        ((efer & Efer::kLme) != 0) != host64) {
      NVCOV(cov_);
      return false;
    }
  }
  NVCOV(cov_);
  return true;
}

bool KvmNestedVmx::CheckGuestStateArea(const Vmcs& v12, CheckId* failed) {
  *failed = CheckId::kNone;
  const uint64_t cr0 = v12.Read(VmcsField::kGuestCr0);
  const uint64_t cr4 = v12.Read(VmcsField::kGuestCr4);
  const uint64_t rflags = v12.Read(VmcsField::kGuestRflags);
  const uint32_t entry_ctl =
      static_cast<uint32_t>(v12.Read(VmcsField::kVmEntryControls));
  const uint32_t proc =
      static_cast<uint32_t>(v12.Read(VmcsField::kCpuBasedVmExecControl));
  const uint32_t sec =
      (proc & ProcCtl::kActivateSecondary) != 0
          ? static_cast<uint32_t>(
                v12.Read(VmcsField::kSecondaryVmExecControl))
          : 0;
  const bool unrestricted = (sec & Proc2Ctl::kUnrestrictedGuest) != 0;
  const bool ia32e = (entry_ctl & EntryCtl::kIa32eModeGuest) != 0;

  uint64_t cr0_fixed0 = nested_caps_.cr0_fixed0;
  if (unrestricted) {
    NVCOV(cov_);
    cr0_fixed0 &= ~(Cr0::kPe | Cr0::kPg);
  }
  if ((cr0 & cr0_fixed0) != cr0_fixed0 || (cr0 & Cr0::kReservedMask) != 0) {
    NVCOV(cov_);
    *failed = CheckId::kGuestCr0Fixed;
    return false;
  }
  if ((cr0 & Cr0::kPg) != 0 && (cr0 & Cr0::kPe) == 0) {
    NVCOV(cov_);
    *failed = CheckId::kGuestCr0PgWithoutPe;
    return false;
  }
  if ((cr4 & nested_caps_.cr4_fixed0) != nested_caps_.cr4_fixed0 ||
      (cr4 & Cr4::kReservedMask) != 0) {
    NVCOV(cov_);
    *failed = CheckId::kGuestCr4Fixed;
    return false;
  }
  if (v12.Read(VmcsField::kGuestCr3) > nested_caps_.MaxPhysicalAddress()) {
    NVCOV(cov_);
    *failed = CheckId::kGuestCr3Range;
    return false;
  }
  // NOTE (bug K1 / CVE-2023-30456): the SDM requires CR4.PAE=1 whenever
  // the "IA-32e mode guest" entry control is set, but no check exists
  // here — mirroring the vulnerable KVM, which relied on hardware... which
  // also does not enforce it.
  if (!ia32e && (cr4 & Cr4::kPcide) != 0) {
    NVCOV(cov_);
    *failed = CheckId::kGuestPcideWithoutIa32e;
    return false;
  }
  if ((entry_ctl & EntryCtl::kLoadEfer) != 0) {
    NVCOV(cov_);
    const uint64_t efer = v12.Read(VmcsField::kGuestIa32Efer);
    if ((efer & Efer::kReservedMask) != 0) {
      NVCOV(cov_);
      *failed = CheckId::kGuestEferReserved;
      return false;
    }
    if (((efer & Efer::kLma) != 0) != ia32e) {
      NVCOV(cov_);
      *failed = CheckId::kGuestEferLmaVsEntryCtl;
      return false;
    }
    if ((cr0 & Cr0::kPg) != 0 &&
        ((efer & Efer::kLma) != 0) != ((efer & Efer::kLme) != 0)) {
      NVCOV(cov_);
      *failed = CheckId::kGuestEferLmaVsLme;
      return false;
    }
  }
  if ((rflags & Rflags::kFixed1) == 0 ||
      (rflags & Rflags::kReservedMask) != 0) {
    NVCOV(cov_);
    *failed = CheckId::kGuestRflagsReserved;
    return false;
  }
  if ((rflags & Rflags::kVm) != 0 && (ia32e || (cr0 & Cr0::kPe) == 0)) {
    NVCOV(cov_);
    *failed = CheckId::kGuestRflagsVmInIa32e;
    return false;
  }

  // Segment subset KVM replicates (full fidelity lives in hardware).
  const uint32_t cs_ar =
      static_cast<uint32_t>(v12.Read(VmcsField::kGuestCsArBytes));
  if (!SegAr::Usable(cs_ar)) {
    NVCOV(cov_);
    *failed = CheckId::kGuestCsType;
    return false;
  }
  if (ia32e && (cs_ar & SegAr::kL) != 0 && (cs_ar & SegAr::kDb) != 0) {
    NVCOV(cov_);
    *failed = CheckId::kGuestCsLAndDb;
    return false;
  }
  const uint32_t tr_ar =
      static_cast<uint32_t>(v12.Read(VmcsField::kGuestTrArBytes));
  if (!SegAr::Usable(tr_ar)) {
    NVCOV(cov_);
    *failed = CheckId::kGuestTrUsable;
    return false;
  }
  if ((v12.Read(VmcsField::kGuestTrSelector) & 0x4) != 0) {
    NVCOV(cov_);
    *failed = CheckId::kGuestTrTiFlag;
    return false;
  }

  const uint64_t activity = v12.Read(VmcsField::kGuestActivityState);
  const uint32_t interruptibility = static_cast<uint32_t>(
      v12.Read(VmcsField::kGuestInterruptibilityInfo));
  if (activity > kMaxActivityState) {
    NVCOV(cov_);
    *failed = CheckId::kGuestActivityStateRange;
    return false;
  }
  if (activity != 0) {
    NVCOV(cov_);
    if ((nested_caps_.supported_activity_states &
         (1u << (activity - 1))) == 0) {
      NVCOV(cov_);
      *failed = CheckId::kGuestActivityStateSupported;
      return false;
    }
    if ((interruptibility & (Interruptibility::kStiBlocking |
                             Interruptibility::kMovSsBlocking)) != 0) {
      NVCOV(cov_);
      *failed = CheckId::kGuestActivityVsInterruptibility;
      return false;
    }
  }
  if ((interruptibility & Interruptibility::kReservedMask) != 0) {
    NVCOV(cov_);
    *failed = CheckId::kGuestInterruptibilityReserved;
    return false;
  }
  if ((interruptibility & Interruptibility::kStiBlocking) != 0 &&
      (interruptibility & Interruptibility::kMovSsBlocking) != 0) {
    NVCOV(cov_);
    *failed = CheckId::kGuestStiMovssExclusive;
    return false;
  }

  const uint64_t link = v12.Read(VmcsField::kVmcsLinkPointer);
  if (link != ~0ULL) {
    NVCOV(cov_);
    if (!IsAligned(link, 12) || link > nested_caps_.MaxPhysicalAddress()) {
      NVCOV(cov_);
      *failed = CheckId::kGuestVmcsLinkPointer;
      return false;
    }
  }

  // PAE PDPTE validation when shadowing a PAE guest without EPT.
  if ((cr0 & Cr0::kPg) != 0 && (cr4 & Cr4::kPae) != 0 && !ia32e &&
      (sec & Proc2Ctl::kEnableEpt) == 0) {
    NVCOV(cov_);
    for (VmcsField f : {VmcsField::kGuestPdptr0, VmcsField::kGuestPdptr1,
                        VmcsField::kGuestPdptr2, VmcsField::kGuestPdptr3}) {
      const uint64_t pdpte = v12.Read(f);
      if (TestBit(pdpte, 0) && (pdpte & 0x1e6ULL) != 0) {
        NVCOV(cov_);
        *failed = CheckId::kGuestPdpteReserved;
        return false;
      }
    }
  }
  NVCOV(cov_);
  return true;
}

bool KvmNestedVmx::CheckEntryMsrLoadArea(const Vmcs& v12) {
  const uint64_t count = v12.Read(VmcsField::kVmEntryMsrLoadCount);
  if (count == 0) {
    NVCOV(cov_);
    return true;
  }
  NVCOV(cov_);
  if (count > nested_caps_.max_msr_list_count) {
    NVCOV(cov_);
    return false;
  }
  const uint64_t base = v12.Read(VmcsField::kVmEntryMsrLoadAddr);
  for (uint64_t i = 0; i < count; ++i) {
    const MsrAreaEntry e = ReadMsrAreaEntry(mem_, base, i);
    switch (e.index) {
      case Msr::kIa32Efer:
        NVCOV(cov_);
        if ((e.value & Efer::kReservedMask) != 0) {
          NVCOV(cov_);
          return false;
        }
        break;
      case Msr::kFsBase:
      case Msr::kGsBase:
      case Msr::kKernelGsBase:
        // KVM validates canonicality of base-address MSRs — the check
        // VirtualBox is missing (CVE-2024-21106).
        NVCOV(cov_);
        if (!IsCanonical(e.value)) {
          NVCOV(cov_);
          return false;
        }
        break;
      case Msr::kIa32Pat:
        NVCOV(cov_);
        break;
      default:
        NVCOV(cov_);
        break;
    }
  }
  NVCOV(cov_);
  return true;
}

// ---------------------------------------------------------------------------
// VMCS02 preparation and the shadow MMU (bug sites).
// ---------------------------------------------------------------------------

bool KvmNestedVmx::MmuCheckRoot(uint64_t root_gpa) {
  if (root_gpa > nested_caps_.MaxPhysicalAddress()) {
    NVCOV(cov_);
    return false;
  }
  NVCOV(cov_);
  return true;
}

void KvmNestedVmx::LoadShadowMmu(const Vmcs& v12) {
  const uint64_t cr0 = v12.Read(VmcsField::kGuestCr0);
  const uint64_t cr4 = v12.Read(VmcsField::kGuestCr4);
  const uint64_t efer = v12.Read(VmcsField::kGuestIa32Efer);
  const uint32_t proc =
      static_cast<uint32_t>(v12.Read(VmcsField::kCpuBasedVmExecControl));
  const uint32_t sec =
      (proc & ProcCtl::kActivateSecondary) != 0
          ? static_cast<uint32_t>(
                v12.Read(VmcsField::kSecondaryVmExecControl))
          : 0;
  const bool l2_uses_ept = (sec & Proc2Ctl::kEnableEpt) != 0;
  const bool lma = (efer & Efer::kLma) != 0;

  if (!config_.features.Has(CpuFeature::kEpt)) {
    // Shadow paging: L0 walks L2's page tables in software. The root level
    // is derived from CR4.PAE *literally* — the vulnerable computation.
    NVCOV(cov_);
    if ((cr0 & Cr0::kPg) == 0) {
      NVCOV(cov_);  // Non-paged guest: identity shadow.
      return;
    }
    const int root_level =
        (cr4 & Cr4::kPae) != 0 ? (lma ? 4 : 3) : 2;
    // Hardware walks 4 levels whenever the guest is in long mode,
    // regardless of what CR4.PAE claims (it "assumes" PAE). The walk
    // cache below is sized by root_level; a long-mode guest with
    // CR4.PAE=0 underflows the index. This is CVE-2023-30456.
    uint8_t walk_cache[4] = {0, 0, 0, 0};
    const int hw_levels = lma ? 4 : root_level;
    for (int level = hw_levels; level >= 1; --level) {
      const int idx = root_level - level;
      if (idx < 0 || idx >= root_level) {
        NVCOV(cov_);
        san_.Report(AnomalyKind::kUbsan, "kvm-nvmx-cr4pae-oob",
                    "UBSAN: array-index-out-of-bounds in paging_tmpl walk: "
                    "index " + std::to_string(idx) +
                    " (root_level=" + std::to_string(root_level) +
                    ", guest IA-32e with CR4.PAE=0)");
        return;  // Sim clamps where the real kernel corrupted memory.
      }
      walk_cache[idx] = static_cast<uint8_t>(level);
    }
    NVCOV(cov_);
    (void)walk_cache;
    return;
  }

  if (l2_uses_ept) {
    // Nested EPT: L0 shadows L1's EPT tables.
    NVCOV(cov_);
    const uint64_t eptp12 = v12.Read(VmcsField::kEptPointer);
    if (!MmuCheckRoot(AlignDown(eptp12, 12))) {
      // Bug K2: instead of failing the VM entry, the vulnerable code
      // synthesizes a triple-fault exit to L1 — even though L2 never ran.
      NVCOV(cov_);
      san_.Report(AnomalyKind::kAssertion, "kvm-nvmx-dummy-root",
                  "WARN_ON_ONCE: triple-fault VM exit synthesized before L2 "
                  "entry (mmu_check_root failed for nested EPTP)");
      NestedVmxVmexit(ExitReason::kTripleFault, 0);
      return;
    }
    NVCOV(cov_);
    return;
  }

  // EPT on the L0 side but the L1 hypervisor runs L2 with shadow paging of
  // its own: two-dimensional paging against L1's CR3.
  NVCOV(cov_);
}

void KvmNestedVmx::PrepareVmcs02(const Vmcs& v12) {
  NVCOV(cov_);
  // L0-owned base state: vmcs01 is the boot-built default image and is
  // never written after Reset, so copying it is byte-identical to (and
  // much cheaper than) rebuilding MakeDefaultVmcs per entry.
  vmcs02_ = vmcs01_;
  vmcs02_.set_launch_state(Vmcs::LaunchState::kClear);

  // Controls: L1's requests merged with L0's own requirements.
  const uint32_t pin =
      static_cast<uint32_t>(v12.Read(VmcsField::kPinBasedVmExecControl));
  vmcs02_.Write(VmcsField::kPinBasedVmExecControl,
                nested_caps_.pinbased.Round(pin));
  const uint32_t proc =
      static_cast<uint32_t>(v12.Read(VmcsField::kCpuBasedVmExecControl));
  // L0 always intercepts I/O and MSR accesses itself.
  vmcs02_.Write(VmcsField::kCpuBasedVmExecControl,
                nested_caps_.procbased.Round(proc) | ProcCtl::kUseIoBitmaps |
                    ProcCtl::kUseMsrBitmaps);
  uint32_t sec = 0;
  if ((proc & ProcCtl::kActivateSecondary) != 0) {
    NVCOV(cov_);
    sec = nested_caps_.procbased2.Round(static_cast<uint32_t>(
        v12.Read(VmcsField::kSecondaryVmExecControl)));
  }
  if (config_.features.Has(CpuFeature::kEpt)) {
    NVCOV(cov_);
    // L0 runs L2 on its own EPT (shadowing L1's if L1 uses EPT).
    sec |= Proc2Ctl::kEnableEpt;
    vmcs02_.Write(VmcsField::kEptPointer, 0x1000 | 0x6 | (3u << 3));
  } else {
    NVCOV(cov_);
    sec &= ~Proc2Ctl::kEnableEpt;
    vmcs02_.Write(VmcsField::kEptPointer, 0);
  }
  if (config_.features.Has(CpuFeature::kVpid)) {
    NVCOV(cov_);
    sec |= Proc2Ctl::kEnableVpid;
    vmcs02_.Write(VmcsField::kVirtualProcessorId, 2);  // vpid02.
  }
  vmcs02_.Write(VmcsField::kSecondaryVmExecControl,
                sec | (sec != 0 ? 0u : 0u));
  if (sec != 0) {
    NVCOV(cov_);
    vmcs02_.Write(
        VmcsField::kCpuBasedVmExecControl,
        vmcs02_.Read(VmcsField::kCpuBasedVmExecControl) |
            ProcCtl::kActivateSecondary);
  }

  vmcs02_.Write(VmcsField::kVmExitControls,
                nested_caps_.exit.Round(static_cast<uint32_t>(
                    v12.Read(VmcsField::kVmExitControls))) |
                    ExitCtl::kHostAddrSpaceSize | ExitCtl::kSaveEfer |
                    ExitCtl::kLoadEfer);
  vmcs02_.Write(VmcsField::kVmEntryControls,
                nested_caps_.entry.Round(static_cast<uint32_t>(
                    v12.Read(VmcsField::kVmEntryControls))));

  // Exception bitmap: union of L1's and L0's needs.
  vmcs02_.Write(VmcsField::kExceptionBitmap,
                v12.Read(VmcsField::kExceptionBitmap) | (1u << 14));

  // TSC offset composes across levels.
  if ((proc & ProcCtl::kUseTscOffsetting) != 0) {
    NVCOV(cov_);
    vmcs02_.Write(VmcsField::kTscOffset, v12.Read(VmcsField::kTscOffset));
  }

  // Guest state: copied from VMCS12 wholesale. KVM sanitizes the activity
  // state against what it can actually virtualize (cf. the Xen bug that
  // skips this).
  static constexpr VmcsField kGuestCopy[] = {
      VmcsField::kGuestCr0, VmcsField::kGuestCr3, VmcsField::kGuestCr4,
      VmcsField::kGuestIa32Efer, VmcsField::kGuestRflags,
      VmcsField::kGuestRip, VmcsField::kGuestRsp, VmcsField::kGuestDr7,
      VmcsField::kGuestIa32Pat, VmcsField::kGuestIa32Debugctl,
      VmcsField::kGuestCsSelector, VmcsField::kGuestCsBase,
      VmcsField::kGuestCsLimit, VmcsField::kGuestCsArBytes,
      VmcsField::kGuestSsSelector, VmcsField::kGuestSsBase,
      VmcsField::kGuestSsLimit, VmcsField::kGuestSsArBytes,
      VmcsField::kGuestDsSelector, VmcsField::kGuestDsBase,
      VmcsField::kGuestDsLimit, VmcsField::kGuestDsArBytes,
      VmcsField::kGuestEsSelector, VmcsField::kGuestEsBase,
      VmcsField::kGuestEsLimit, VmcsField::kGuestEsArBytes,
      VmcsField::kGuestFsSelector, VmcsField::kGuestFsBase,
      VmcsField::kGuestFsLimit, VmcsField::kGuestFsArBytes,
      VmcsField::kGuestGsSelector, VmcsField::kGuestGsBase,
      VmcsField::kGuestGsLimit, VmcsField::kGuestGsArBytes,
      VmcsField::kGuestLdtrSelector, VmcsField::kGuestLdtrBase,
      VmcsField::kGuestLdtrLimit, VmcsField::kGuestLdtrArBytes,
      VmcsField::kGuestTrSelector, VmcsField::kGuestTrBase,
      VmcsField::kGuestTrLimit, VmcsField::kGuestTrArBytes,
      VmcsField::kGuestGdtrBase, VmcsField::kGuestGdtrLimit,
      VmcsField::kGuestIdtrBase, VmcsField::kGuestIdtrLimit,
      VmcsField::kGuestInterruptibilityInfo,
      VmcsField::kGuestPendingDbgExceptions,
      VmcsField::kGuestSysenterCs, VmcsField::kGuestSysenterEsp,
      VmcsField::kGuestSysenterEip,
      VmcsField::kGuestPdptr0, VmcsField::kGuestPdptr1,
      VmcsField::kGuestPdptr2, VmcsField::kGuestPdptr3,
  };
  for (VmcsField f : kGuestCopy) {
    vmcs02_.Write(f, v12.Read(f));
  }
  // Activity-state sanitization: only ACTIVE and HLT are virtualized for
  // L2; SHUTDOWN / WAIT-FOR-SIPI are forced to ACTIVE (contrast Xen bug X1).
  const uint64_t activity = v12.Read(VmcsField::kGuestActivityState);
  if (activity == static_cast<uint64_t>(ActivityState::kActive) ||
      activity == static_cast<uint64_t>(ActivityState::kHlt)) {
    NVCOV(cov_);
    vmcs02_.Write(VmcsField::kGuestActivityState, activity);
  } else {
    NVCOV(cov_);
    vmcs02_.Write(VmcsField::kGuestActivityState, 0);
  }
  vmcs02_.Write(VmcsField::kVmcsLinkPointer, ~0ULL);

  // Host state of VMCS02 is always L0's own (vmcs01's host area).
  static constexpr VmcsField kHostCopy[] = {
      VmcsField::kHostCr0, VmcsField::kHostCr3, VmcsField::kHostCr4,
      VmcsField::kHostIa32Efer, VmcsField::kHostRip, VmcsField::kHostRsp,
      VmcsField::kHostCsSelector, VmcsField::kHostSsSelector,
      VmcsField::kHostDsSelector, VmcsField::kHostEsSelector,
      VmcsField::kHostFsSelector, VmcsField::kHostGsSelector,
      VmcsField::kHostTrSelector, VmcsField::kHostFsBase,
      VmcsField::kHostGsBase, VmcsField::kHostTrBase,
      VmcsField::kHostGdtrBase, VmcsField::kHostIdtrBase,
      VmcsField::kHostIa32Pat,
  };
  for (VmcsField f : kHostCopy) {
    vmcs02_.Write(f, vmcs01_.Read(f));
  }
}

// ---------------------------------------------------------------------------
// nested_vmx_run: the vmlaunch/vmresume emulation core.
// ---------------------------------------------------------------------------

VmxEmuResult KvmNestedVmx::NestedVmxRun(bool launch) {
  VmxEmuResult r;
  if (!NestedVmxCheckPermission()) {
    return r;
  }
  if (in_l2_) {
    NVCOV(cov_);  // vmlaunch/vmresume from L2 reflects to L1.
    return r;
  }
  auto it = vmcs12_cache_.find(current_ptr_);
  if (it == vmcs12_cache_.end()) {
    NVCOV(cov_);  // VMfailInvalid: no current VMCS.
    return r;
  }
  CachedVmcs12& cached = it->second;
  if (launch && cached.launched) {
    NVCOV(cov_);  // VMfail(VMLAUNCH with non-clear VMCS).
    return r;
  }
  if (!launch && !cached.launched) {
    NVCOV(cov_);  // VMfail(VMRESUME with non-launched VMCS).
    return r;
  }
  const Vmcs& v12 = cached.vmcs;

  if (!CheckVmControls(v12)) {
    NVCOV(cov_);  // VMfail(invalid control fields).
    return r;
  }
  if (!CheckHostStateArea(v12)) {
    NVCOV(cov_);  // VMfail(invalid host-state fields).
    return r;
  }
  CheckId guest_fail = CheckId::kNone;
  if (!CheckGuestStateArea(v12, &guest_fail)) {
    // VM-entry failure due to invalid guest state: reflected to L1 as exit
    // reason 33 with the VMCS12 untouched otherwise.
    NVCOV(cov_);
    cached.vmcs.Write(
        VmcsField::kVmExitReason,
        static_cast<uint32_t>(ExitReason::kInvalidGuestState) |
            kExitReasonFailedEntryBit);
    cached.vmcs.Write(VmcsField::kExitQualification,
                      static_cast<uint64_t>(guest_fail));
    r.ok = true;
    return r;
  }
  if (!CheckEntryMsrLoadArea(v12)) {
    NVCOV(cov_);  // VM-entry failure loading MSRs: exit reason 34.
    cached.vmcs.Write(VmcsField::kVmExitReason,
                      static_cast<uint32_t>(ExitReason::kMsrLoadFail) |
                          kExitReasonFailedEntryBit);
    r.ok = true;
    return r;
  }

  PrepareVmcs02(v12);
  LoadShadowMmu(v12);
  if (!san_.empty() && host_note_pending_) {
    // Placeholder branch kept for parity with the error-injection build of
    // the real module; unreachable without fault injection.
    NVCOV(cov_);
  }

  const EntryOutcome hw = cpu_.TryEntry(vmcs02_, /*launch=*/true);
  switch (hw.status) {
    case EntryStatus::kEntered:
      NVCOV(cov_);
      in_l2_ = true;
      l2_ever_ran_ = true;
      cached.launched = true;
      r.ok = true;
      r.entered_l2 = true;
      return r;
    case EntryStatus::kEntryFailGuest:
      // Hardware rejected state that passed KVM's replica checks: reflect
      // an entry failure to L1 (and remember the discrepancy — this is
      // exactly the boundary region the paper targets).
      NVCOV(cov_);
      cached.vmcs.Write(
          VmcsField::kVmExitReason,
          static_cast<uint32_t>(ExitReason::kInvalidGuestState) |
              kExitReasonFailedEntryBit);
      cached.vmcs.Write(VmcsField::kExitQualification,
                        static_cast<uint64_t>(hw.failed_check));
      r.ok = true;
      return r;
    case EntryStatus::kVmFailValid:
      NVCOV(cov_);  // L0's own VMCS02 was malformed; treated as VMfail.
      return r;
    case EntryStatus::kWrongLaunchState:
    case EntryStatus::kNotReady:
      NVCOV(cov_);
      return r;
  }
  return r;
}

// ---------------------------------------------------------------------------
// Nested VM exits.
// ---------------------------------------------------------------------------

void KvmNestedVmx::SyncVmcs02ToVmcs12() {
  auto it = vmcs12_cache_.find(current_ptr_);
  if (it == vmcs12_cache_.end()) {
    NVCOV(cov_);
    return;
  }
  NVCOV(cov_);
  Vmcs& v12 = it->second.vmcs;
  static constexpr VmcsField kSyncFields[] = {
      VmcsField::kGuestCr0, VmcsField::kGuestCr3, VmcsField::kGuestCr4,
      VmcsField::kGuestRflags, VmcsField::kGuestRip, VmcsField::kGuestRsp,
      VmcsField::kGuestDr7, VmcsField::kGuestInterruptibilityInfo,
      VmcsField::kGuestActivityState,
      VmcsField::kGuestPendingDbgExceptions,
      VmcsField::kGuestCsSelector, VmcsField::kGuestCsBase,
      VmcsField::kGuestCsLimit, VmcsField::kGuestCsArBytes,
      VmcsField::kGuestSsSelector, VmcsField::kGuestSsArBytes,
      VmcsField::kGuestDsSelector, VmcsField::kGuestDsArBytes,
      VmcsField::kGuestEsSelector, VmcsField::kGuestEsArBytes,
      VmcsField::kGuestFsBase, VmcsField::kGuestGsBase,
      VmcsField::kGuestGdtrBase, VmcsField::kGuestGdtrLimit,
      VmcsField::kGuestIdtrBase, VmcsField::kGuestIdtrLimit,
  };
  for (VmcsField f : kSyncFields) {
    v12.Write(f, vmcs02_.Read(f));
  }
}

void KvmNestedVmx::LoadVmcs12HostState() {
  auto it = vmcs12_cache_.find(current_ptr_);
  if (it == vmcs12_cache_.end()) {
    NVCOV(cov_);
    return;
  }
  const Vmcs& v12 = it->second.vmcs;
  // On a nested exit, L1 resumes in the state described by VMCS12's host
  // area. KVM validates the critical pieces once more; inconsistencies at
  // this point trigger a "VMX abort" in the architecture.
  if (!IsCanonical(v12.Read(VmcsField::kHostRip))) {
    NVCOV(cov_);  // VMX abort path.
    san_.Report(AnomalyKind::kLogWarning, "kvm-nvmx-vmx-abort",
                "nested exit with non-canonical HOST_RIP: VMX abort");
    return;
  }
  if ((v12.Read(VmcsField::kVmExitControls) & ExitCtl::kLoadEfer) != 0) {
    NVCOV(cov_);  // L1 EFER restored from the host area.
  } else {
    NVCOV(cov_);  // L1 keeps its pre-entry EFER.
  }
  NVCOV(cov_);
}

void KvmNestedVmx::NestedVmxVmexit(ExitReason reason,
                                   uint64_t qualification) {
  NVCOV(cov_);
  SyncVmcs02ToVmcs12();
  auto it = vmcs12_cache_.find(current_ptr_);
  if (it != vmcs12_cache_.end()) {
    NVCOV(cov_);
    it->second.vmcs.Write(VmcsField::kVmExitReason,
                          static_cast<uint32_t>(reason));
    it->second.vmcs.Write(VmcsField::kExitQualification, qualification);
  }
  LoadVmcs12HostState();
  in_l2_ = false;
}

// ---------------------------------------------------------------------------
// Exit-reason dispatch: does the L2 instruction reflect to L1?
// ---------------------------------------------------------------------------

bool KvmNestedVmx::ShouldReflectToL1(const GuestInsn& insn,
                                     ExitReason* reason) {
  const Vmcs* v12p = current_vmcs12();
  if (v12p == nullptr) {
    NVCOV(cov_);
    *reason = ExitReason::kCpuid;
    return false;
  }
  const Vmcs& v12 = *v12p;
  const uint32_t proc =
      static_cast<uint32_t>(v12.Read(VmcsField::kCpuBasedVmExecControl));
  const uint32_t sec =
      (proc & ProcCtl::kActivateSecondary) != 0
          ? static_cast<uint32_t>(
                v12.Read(VmcsField::kSecondaryVmExecControl))
          : 0;

  switch (insn.kind) {
    case GuestInsnKind::kCpuid:
      NVCOV(cov_);  // CPUID unconditionally exits.
      *reason = ExitReason::kCpuid;
      return true;
    case GuestInsnKind::kVmcall:
      NVCOV(cov_);  // VMCALL from L2 always reflects to L1.
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
      *reason = ExitReason::kRdtsc;
      if ((proc & ProcCtl::kRdtscExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kRdtscp:
      *reason = ExitReason::kRdtscp;
      if ((proc & ProcCtl::kRdtscExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      if ((sec & Proc2Ctl::kEnableRdtscp) == 0) {
        NVCOV(cov_);  // #UD in L2; surfaced as an exception exit.
        *reason = ExitReason::kExceptionNmi;
        return (v12.Read(VmcsField::kExceptionBitmap) & (1u << 6)) != 0;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kRdpmc:
      *reason = ExitReason::kRdpmc;
      if ((proc & ProcCtl::kRdpmcExiting) != 0) {
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
      if ((sec & Proc2Ctl::kPauseLoopExiting) != 0) {
        NVCOV(cov_);  // PLE window accounting.
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kRdrand:
      *reason = ExitReason::kRdrand;
      if ((sec & Proc2Ctl::kRdrandExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kRdseed:
      *reason = ExitReason::kRdseed;
      if ((sec & Proc2Ctl::kRdseedExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kInvd:
      NVCOV(cov_);  // INVD unconditionally exits.
      *reason = ExitReason::kInvd;
      return true;
    case GuestInsnKind::kWbinvd:
      *reason = ExitReason::kWbinvd;
      if ((sec & Proc2Ctl::kWbinvdExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kMovToCr0: {
      // CR0 guest/host mask: bits owned by L1 trap when modified.
      const uint64_t mask = v12.Read(VmcsField::kCr0GuestHostMask);
      const uint64_t shadow = v12.Read(VmcsField::kCr0ReadShadow);
      *reason = ExitReason::kCrAccess;
      if (((insn.arg0 ^ shadow) & mask) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    }
    case GuestInsnKind::kMovToCr4: {
      const uint64_t mask = v12.Read(VmcsField::kCr4GuestHostMask);
      const uint64_t shadow = v12.Read(VmcsField::kCr4ReadShadow);
      *reason = ExitReason::kCrAccess;
      if (((insn.arg0 ^ shadow) & mask) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    }
    case GuestInsnKind::kMovToCr3: {
      *reason = ExitReason::kCrAccess;
      if ((proc & ProcCtl::kCr3LoadExiting) == 0) {
        NVCOV(cov_);
        return false;
      }
      // CR3-target list suppresses the exit on a match.
      const uint64_t count = v12.Read(VmcsField::kCr3TargetCount);
      static constexpr VmcsField kTargets[] = {
          VmcsField::kCr3TargetValue0, VmcsField::kCr3TargetValue1,
          VmcsField::kCr3TargetValue2, VmcsField::kCr3TargetValue3};
      for (uint64_t i = 0; i < count && i < 4; ++i) {
        if (v12.Read(kTargets[i]) == insn.arg0) {
          NVCOV(cov_);
          return false;
        }
      }
      NVCOV(cov_);
      return true;
    }
    case GuestInsnKind::kMovFromCr3:
      *reason = ExitReason::kCrAccess;
      if ((proc & ProcCtl::kCr3StoreExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kMovToCr8:
      *reason = ExitReason::kCrAccess;
      if ((proc & ProcCtl::kCr8LoadExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      if ((proc & ProcCtl::kUseTprShadow) != 0) {
        NVCOV(cov_);  // TPR shadow absorbs the write.
        *reason = ExitReason::kTprBelowThreshold;
        return insn.arg0 < (v12.Read(VmcsField::kTprThreshold) & 0xf);
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kMovToDr:
      *reason = ExitReason::kDrAccess;
      if ((proc & ProcCtl::kMovDrExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kIoIn:
    case GuestInsnKind::kIoOut: {
      *reason = ExitReason::kIoInstruction;
      if ((proc & ProcCtl::kUncondIoExiting) != 0 &&
          (proc & ProcCtl::kUseIoBitmaps) == 0) {
        NVCOV(cov_);
        return true;
      }
      if ((proc & ProcCtl::kUseIoBitmaps) != 0) {
        const uint64_t port = insn.arg0 & 0xffff;
        const uint64_t bitmap = port < 0x8000
                                    ? v12.Read(VmcsField::kIoBitmapA)
                                    : v12.Read(VmcsField::kIoBitmapB);
        if (mem_.TestBit(bitmap, port & 0x7fff)) {
          NVCOV(cov_);
          return true;
        }
        NVCOV(cov_);
        return false;
      }
      NVCOV(cov_);
      return false;
    }
    case GuestInsnKind::kRdmsr:
    case GuestInsnKind::kWrmsr: {
      *reason = insn.kind == GuestInsnKind::kRdmsr ? ExitReason::kMsrRead
                                                   : ExitReason::kMsrWrite;
      if ((proc & ProcCtl::kUseMsrBitmaps) == 0) {
        NVCOV(cov_);  // Without bitmaps every MSR access exits.
        return true;
      }
      const uint64_t bitmap = v12.Read(VmcsField::kMsrBitmap);
      const uint32_t msr = static_cast<uint32_t>(insn.arg0);
      // Bitmap layout: low MSRs then high MSRs, read then write halves.
      uint64_t bit;
      if (msr < 0x2000) {
        bit = msr;
      } else if (msr >= 0xc0000000 && msr < 0xc0002000) {
        bit = 0x2000 + (msr - 0xc0000000);
      } else {
        NVCOV(cov_);  // Out-of-range MSRs always exit.
        return true;
      }
      const uint64_t half =
          insn.kind == GuestInsnKind::kWrmsr ? 0x4000u : 0u;
      if (mem_.TestBit(bitmap + half / 8, bit)) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    }
    case GuestInsnKind::kInvlpg:
      *reason = ExitReason::kInvlpg;
      if ((proc & ProcCtl::kInvlpgExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kInvpcid:
      *reason = ExitReason::kInvpcid;
      if ((sec & Proc2Ctl::kEnableInvpcid) == 0) {
        NVCOV(cov_);  // #UD.
        *reason = ExitReason::kExceptionNmi;
        return (v12.Read(VmcsField::kExceptionBitmap) & (1u << 6)) != 0;
      }
      if ((proc & ProcCtl::kInvlpgExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kMwait:
      *reason = ExitReason::kMwait;
      if ((proc & ProcCtl::kMwaitExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kMonitor:
      *reason = ExitReason::kMonitor;
      if ((proc & ProcCtl::kMonitorExiting) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    case GuestInsnKind::kXsetbv:
      NVCOV(cov_);  // XSETBV unconditionally exits.
      *reason = ExitReason::kXsetbv;
      return true;
    case GuestInsnKind::kRaiseException: {
      *reason = ExitReason::kExceptionNmi;
      const uint64_t vector = insn.arg0 & 31;
      const uint64_t bitmap = v12.Read(VmcsField::kExceptionBitmap);
      if (vector == 14) {
        // #PF filtering via error-code mask/match.
        NVCOV(cov_);
        const uint64_t mask =
            v12.Read(VmcsField::kPageFaultErrorCodeMask);
        const uint64_t match =
            v12.Read(VmcsField::kPageFaultErrorCodeMatch);
        const bool bit = (bitmap & (1u << 14)) != 0;
        const bool code_match = (insn.arg1 & mask) == match;
        if (bit == code_match) {
          NVCOV(cov_);
          return bit;
        }
        NVCOV(cov_);
        return !bit ? code_match : false;
      }
      if ((bitmap & (1ULL << vector)) != 0) {
        NVCOV(cov_);
        return true;
      }
      NVCOV(cov_);
      return false;
    }
    case GuestInsnKind::kMovToCr0Selective:
      NVCOV(cov_);  // Intel has no selective CR0 intercept; plain CR0 path.
      *reason = ExitReason::kCrAccess;
      return true;
    case GuestInsnKind::kCount:
      break;
  }
  NVCOV(cov_);
  *reason = ExitReason::kCpuid;
  return false;
}

HandledBy KvmNestedVmx::HandleByL0(const GuestInsn& insn) {
  // Exits not owned by L1 are handled by L0 directly and L2 is resumed.
  switch (insn.kind) {
    case GuestInsnKind::kHlt:
      NVCOV(cov_);  // L0 emulates HLT for L2 (idle loop).
      return HandledBy::kL0;
    case GuestInsnKind::kRdtsc:
    case GuestInsnKind::kRdtscp:
      NVCOV(cov_);  // TSC offset/scaling applied by L0.
      return HandledBy::kL0;
    case GuestInsnKind::kIoIn:
    case GuestInsnKind::kIoOut:
      NVCOV(cov_);  // L0's own I/O bitmap intercepted the access.
      return HandledBy::kL0;
    case GuestInsnKind::kRdmsr:
    case GuestInsnKind::kWrmsr:
      NVCOV(cov_);  // L0 MSR emulation.
      return HandledBy::kL0;
    case GuestInsnKind::kMovToCr0:
    case GuestInsnKind::kMovToCr3:
    case GuestInsnKind::kMovToCr4:
      NVCOV(cov_);  // L0 tracks guest CR state for its shadow/EPT MMU.
      vmcs02_.Write(insn.kind == GuestInsnKind::kMovToCr0
                        ? VmcsField::kGuestCr0
                        : insn.kind == GuestInsnKind::kMovToCr3
                              ? VmcsField::kGuestCr3
                              : VmcsField::kGuestCr4,
                    insn.arg0);
      return HandledBy::kNoExit;
    default:
      NVCOV(cov_);
      return HandledBy::kNoExit;
  }
}

HandledBy KvmNestedVmx::HandleL2Instruction(const GuestInsn& insn) {
  if (!in_l2_) {
    NVCOV(cov_);
    return HandledBy::kNoExit;
  }
  ExitReason reason = ExitReason::kCpuid;
  if (ShouldReflectToL1(insn, &reason)) {
    NVCOV(cov_);
    NestedVmxVmexit(reason, insn.arg0);
    return HandledBy::kL1;
  }
  return HandleByL0(insn);
}

HandledBy KvmNestedVmx::HandleL1Instruction(const GuestInsn& insn) {
  // L1 runs under VMCS01; only the VMX capability MSR surface touches
  // nested code.
  switch (insn.kind) {
    case GuestInsnKind::kRdmsr: {
      const uint32_t msr = static_cast<uint32_t>(insn.arg0);
      if (msr >= Msr::kIa32VmxBasic && msr <= Msr::kIa32VmxBasic + 0x11) {
        NVCOV(cov_);  // vmx_get_vmx_msr(): advertise nested capabilities.
        return HandledBy::kL0;
      }
      NVCOV(cov_);
      return HandledBy::kL0;
    }
    case GuestInsnKind::kWrmsr:
      if (static_cast<uint32_t>(insn.arg0) == Msr::kIa32FeatureControl) {
        NVCOV(cov_);  // Feature-control writes gate vmxon.
        return HandledBy::kL0;
      }
      NVCOV(cov_);
      return HandledBy::kL0;
    case GuestInsnKind::kVmcall:
      NVCOV(cov_);  // L1 hypercall to L0.
      return HandledBy::kL0;
    default:
      NVCOV(cov_);
      return HandledBy::kNoExit;
  }
}

// ---------------------------------------------------------------------------
// Host-side ioctl surface (out of the guest-reachable threat model).
// ---------------------------------------------------------------------------

uint64_t KvmNestedVmx::IoctlGetNestedState() {
  NVCOV(cov_);
  uint64_t blob = vmxon_ ? 1 : 0;
  if (current_ptr_ != kNoPtr) {
    NVCOV(cov_);
    blob |= 2;
  }
  if (in_l2_) {
    NVCOV(cov_);
    blob |= 4;
  }
  const Vmcs* v12 = current_vmcs12();
  if (v12 != nullptr) {
    NVCOV(cov_);
    blob |= v12->Read(VmcsField::kGuestRip) << 8;
  }
  return blob;
}

bool KvmNestedVmx::IoctlSetNestedState(uint64_t blob) {
  NVCOV(cov_);
  if ((blob & 1) == 0) {
    NVCOV(cov_);  // Clearing nested state entirely.
    vmxon_ = false;
    current_ptr_ = kNoPtr;
    in_l2_ = false;
    return true;
  }
  NVCOV(cov_);
  vmxon_ = true;
  vmxon_ptr_ = 0x1000;
  if ((blob & 2) != 0) {
    NVCOV(cov_);
    current_ptr_ = 0x2000;
    vmcs12_cache_[current_ptr_];
  }
  if ((blob & 4) != 0) {
    NVCOV(cov_);
    if (current_ptr_ == kNoPtr) {
      NVCOV(cov_);  // Rejected: cannot be in L2 without a current VMCS12.
      return false;
    }
    in_l2_ = true;
  }
  return true;
}

void KvmNestedVmx::IoctlLeaveNested() {
  NVCOV(cov_);
  if (in_l2_) {
    NVCOV(cov_);  // Forced exit from L2 (e.g. before live migration).
    NestedVmxVmexit(ExitReason::kTripleFault, 0);
  }
  vmxon_ = false;
  current_ptr_ = kNoPtr;
}

// Total coverage-point count for this translation unit; must be the last
// use of __COUNTER__ in the file.
const size_t kKvmNestedVmxCoveragePoints = __COUNTER__;

}  // namespace neco
