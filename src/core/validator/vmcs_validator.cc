#include "src/core/validator/vmcs_validator.h"

#include <algorithm>
#include <array>

#include "src/arch/vmx_bits.h"
#include "src/support/bits.h"

namespace neco {
namespace {

// Fields whose corruption is most likely to reach error-prone hypervisor
// logic: execution controls, access-rights bytes, and the state fields the
// discovered CVEs hinge on (paper Section 4.3, "focusing bit flips on
// security-critical areas").
constexpr VmcsField kPriorityMutationFields[] = {
    VmcsField::kPinBasedVmExecControl,
    VmcsField::kCpuBasedVmExecControl,
    VmcsField::kSecondaryVmExecControl,
    VmcsField::kVmExitControls,
    VmcsField::kVmEntryControls,
    VmcsField::kExceptionBitmap,
    VmcsField::kEptPointer,
    VmcsField::kVmEntryIntrInfoField,
    VmcsField::kVmEntryMsrLoadCount,
    VmcsField::kGuestCsArBytes,
    VmcsField::kGuestSsArBytes,
    VmcsField::kGuestDsArBytes,
    VmcsField::kGuestEsArBytes,
    VmcsField::kGuestTrArBytes,
    VmcsField::kGuestLdtrArBytes,
    VmcsField::kGuestCr0,
    VmcsField::kGuestCr4,
    VmcsField::kGuestIa32Efer,
    VmcsField::kGuestRflags,
    VmcsField::kGuestActivityState,
    VmcsField::kGuestInterruptibilityInfo,
    VmcsField::kGuestPendingDbgExceptions,
    VmcsField::kVmcsLinkPointer,
    VmcsField::kHostCr0,
    VmcsField::kHostCr4,
    VmcsField::kHostIa32Efer,
};

uint64_t FixPat(uint64_t pat) {
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) {
    uint8_t type = static_cast<uint8_t>(pat >> (i * 8));
    if (type != 0 && type != 1 && type != 4 && type != 5 && type != 6 &&
        type != 7) {
      type = 6;  // Write-back.
    }
    out |= static_cast<uint64_t>(type) << (i * 8);
  }
  return out;
}

// Clamp a physical address to the supported range and the given alignment.
uint64_t ClampPhys(uint64_t addr, const VmxCapabilities& caps,
                   unsigned align_bits) {
  return AlignDown(addr, align_bits) & caps.MaxPhysicalAddress();
}

// Make a segment limit and granularity bit mutually consistent, preferring
// to adjust the limit (keeps more entropy in the AR byte).
void FixLimitGranularity(Vmcs& v, VmcsField limit_f, VmcsField ar_f) {
  uint32_t limit = static_cast<uint32_t>(v.Read(limit_f));
  uint32_t ar = static_cast<uint32_t>(v.Read(ar_f));
  if ((limit & 0xfff00000u) != 0) {
    // Big limit: needs G=1 and low 12 bits all ones.
    ar |= SegAr::kG;
    limit |= 0xfffu;
  } else if ((limit & 0xfffu) != 0xfffu) {
    ar &= ~SegAr::kG;
  }
  v.Write(limit_f, limit);
  v.Write(ar_f, ar);
}

}  // namespace

uint64_t Canonicalize(uint64_t addr) {
  if (TestBit(addr, 47)) {
    return addr | ~MaskLow(48);
  }
  return addr & MaskLow(48);
}

VmcsValidator::VmcsValidator(VmxCapabilities caps) : caps_(std::move(caps)) {}

ViolationList VmcsValidator::Validate(const Vmcs& vmcs) const {
  VmxCheckProfile profile = VmxCheckProfile::Spec();
  // Apply learned enforcement quirks to the profile-level knobs.
  if (quirks_.suppressed_checks.count(CheckId::kGuestCr4PaeForIa32e) != 0) {
    profile.enforce_cr4_pae_for_ia32e = false;
  }
  if (quirks_.suppressed_checks.count(CheckId::kGuestPendingDbgBsVsTf) != 0) {
    profile.enforce_pending_dbg_bs_vs_tf = false;
  }
  if (quirks_.suppressed_checks.count(CheckId::kTprThresholdVsVtpr) != 0) {
    profile.enforce_tpr_threshold_vs_vtpr = false;
  }
  ViolationList all = CheckVmxEntry(vmcs, caps_, profile);
  // Remove any other individually suppressed checks.
  all.erase(std::remove_if(all.begin(), all.end(),
                           [this](CheckId id) {
                             return quirks_.suppressed_checks.count(id) != 0;
                           }),
            all.end());
  return all;
}

Vmcs VmcsValidator::PredictPostEntryState(const Vmcs& vmcs) const {
  Vmcs predicted = vmcs;
  for (VmxFixupId f : quirks_.learned_fixups) {
    ApplyVmxFixup(f, predicted);
  }
  return predicted;
}

// ---------------------------------------------------------------------------
// Group 1: control fields.
// ---------------------------------------------------------------------------

void VmcsValidator::RoundControls(Vmcs& v) const {
  // Reserved bits against the capability MSRs.
  uint32_t pin = caps_.pinbased.Round(
      static_cast<uint32_t>(v.Read(VmcsField::kPinBasedVmExecControl)));
  uint32_t proc = caps_.procbased.Round(
      static_cast<uint32_t>(v.Read(VmcsField::kCpuBasedVmExecControl)));
  uint32_t sec = caps_.procbased2.Round(
      static_cast<uint32_t>(v.Read(VmcsField::kSecondaryVmExecControl)));
  uint32_t exit_ctl = caps_.exit.Round(
      static_cast<uint32_t>(v.Read(VmcsField::kVmExitControls)));
  uint32_t entry_ctl = caps_.entry.Round(
      static_cast<uint32_t>(v.Read(VmcsField::kVmEntryControls)));

  if ((proc & ProcCtl::kActivateSecondary) == 0) {
    sec = 0;  // Ignored by hardware; zero it for determinism.
  }

  // NMI coupling.
  if ((pin & PinCtl::kVirtualNmis) != 0) {
    pin |= PinCtl::kNmiExiting;
  }
  if ((pin & PinCtl::kVirtualNmis) == 0) {
    proc &= ~ProcCtl::kNmiWindowExiting;
  }
  // x2APIC mode excludes APIC-access virtualization.
  if ((sec & Proc2Ctl::kVirtX2apicMode) != 0) {
    sec &= ~Proc2Ctl::kVirtApicAccesses;
  }
  // Virtual-interrupt delivery requires external-interrupt exiting.
  if ((sec & Proc2Ctl::kVirtIntrDelivery) != 0) {
    pin |= PinCtl::kExtIntExiting;
  }
  // Posted interrupts require VID + ack-on-exit.
  if ((pin & PinCtl::kPostedInterrupts) != 0) {
    if ((caps_.procbased2.allowed1 & Proc2Ctl::kVirtIntrDelivery) == 0) {
      pin &= ~PinCtl::kPostedInterrupts;
    } else {
      sec |= Proc2Ctl::kVirtIntrDelivery;
      pin |= PinCtl::kExtIntExiting;
      exit_ctl |= ExitCtl::kAckIntrOnExit;
      v.Write(VmcsField::kPostedIntrDescAddr,
              ClampPhys(v.Read(VmcsField::kPostedIntrDescAddr), caps_, 6));
    }
  }
  // Features that depend on EPT.
  if ((sec & Proc2Ctl::kEnableEpt) == 0) {
    sec &= ~(Proc2Ctl::kUnrestrictedGuest | Proc2Ctl::kEnablePml |
             Proc2Ctl::kEnableVmfunc | Proc2Ctl::kModeBasedEptExec);
  }
  // VPID must be nonzero when enabled.
  if ((sec & Proc2Ctl::kEnableVpid) != 0 &&
      v.Read(VmcsField::kVirtualProcessorId) == 0) {
    v.Write(VmcsField::kVirtualProcessorId, 1);
  }
  // Preemption-timer save requires the timer itself.
  if ((pin & PinCtl::kPreemptionTimer) == 0) {
    exit_ctl &= ~ExitCtl::kSavePreemptionTimer;
  }
  // Secondary controls present => activate bit set (keep the controls the
  // raw input asked for rather than dropping them).
  if (sec != 0) {
    proc |= ProcCtl::kActivateSecondary;
    proc = caps_.procbased.Round(proc);
  }

  v.Write(VmcsField::kPinBasedVmExecControl, pin);
  v.Write(VmcsField::kCpuBasedVmExecControl, proc);
  v.Write(VmcsField::kSecondaryVmExecControl, sec);
  v.Write(VmcsField::kVmExitControls, exit_ctl);
  v.Write(VmcsField::kVmEntryControls, entry_ctl);

  v.Write(VmcsField::kCr3TargetCount, v.Read(VmcsField::kCr3TargetCount) % 5);

  // Bitmap and table addresses: page-aligned, within the address space.
  for (VmcsField f : {VmcsField::kIoBitmapA, VmcsField::kIoBitmapB,
                      VmcsField::kMsrBitmap, VmcsField::kVirtualApicPageAddr,
                      VmcsField::kApicAccessAddr, VmcsField::kPmlAddress,
                      VmcsField::kEptpListAddress, VmcsField::kVmreadBitmap,
                      VmcsField::kVmwriteBitmap,
                      VmcsField::kXssExitBitmap}) {
    v.Write(f, ClampPhys(v.Read(f), caps_, 12));
  }

  // EPTP: memory type, walk length, reserved bits, AD, address.
  if ((sec & Proc2Ctl::kEnableEpt) != 0) {
    uint64_t eptp = v.Read(VmcsField::kEptPointer);
    const uint64_t addr = ClampPhys(eptp, caps_, 12);
    uint64_t flags = 0;
    flags |= caps_.ept_wb_memtype ? 6 : 0;
    flags |= 3ULL << 3;  // 4-level walk.
    if (caps_.ept_ad_bits && TestBit(eptp, 6)) {
      flags |= Bit(6);
    }
    v.Write(VmcsField::kEptPointer, addr | flags);
  }

  // TPR threshold.
  if ((proc & ProcCtl::kUseTprShadow) != 0 &&
      (sec & Proc2Ctl::kVirtIntrDelivery) == 0) {
    uint64_t threshold = v.Read(VmcsField::kTprThreshold) & 0xf;
    if ((sec & Proc2Ctl::kVirtApicAccesses) == 0) {
      threshold = 0;  // Keep below the (zero) VTPR in the model.
    }
    v.Write(VmcsField::kTprThreshold, threshold);
  }

  // MSR-load/store areas: clamp counts, align addresses, keep the last
  // entry inside the physical address space.
  struct Area {
    VmcsField count;
    VmcsField addr;
  };
  for (const Area& a :
       {Area{VmcsField::kVmExitMsrStoreCount, VmcsField::kVmExitMsrStoreAddr},
        Area{VmcsField::kVmExitMsrLoadCount, VmcsField::kVmExitMsrLoadAddr},
        Area{VmcsField::kVmEntryMsrLoadCount,
             VmcsField::kVmEntryMsrLoadAddr}}) {
    uint64_t count = v.Read(a.count) % (caps_.max_msr_list_count + 1);
    // Keep generated areas small enough to stay practical.
    count %= 16;
    uint64_t addr = AlignDown(v.Read(a.addr), 4) & caps_.MaxPhysicalAddress();
    if (count != 0 && addr + count * 16 > caps_.MaxPhysicalAddress()) {
      addr = 0x10000;
    }
    v.Write(a.count, count);
    v.Write(a.addr, addr);
  }

  // Event injection.
  uint32_t intr_info =
      static_cast<uint32_t>(v.Read(VmcsField::kVmEntryIntrInfoField));
  if (TestBit(intr_info, 31)) {
    uint32_t type = ExtractBits(intr_info, 8, 3);
    uint32_t vector = intr_info & 0xff;
    if (type == 1) {
      type = 0;
    }
    if (type == 2) {
      vector = 2;
    }
    if (type == 3 || type == 6) {
      vector &= 31;
    }
    bool deliver_error = TestBit(intr_info, 11);
    const bool contributory =
        type == 3 && (vector == 8 || vector == 10 || vector == 11 ||
                      vector == 12 || vector == 13 || vector == 14 ||
                      vector == 17);
    if (!contributory) {
      deliver_error = false;
    }
    intr_info = vector | (type << 8) |
                (deliver_error ? Bit(11) : 0) | (1u << 31);
    v.Write(VmcsField::kVmEntryIntrInfoField, intr_info);
    v.Write(VmcsField::kVmEntryExceptionErrorCode,
            v.Read(VmcsField::kVmEntryExceptionErrorCode) & 0x7fff);
    if (type == 4 || type == 5 || type == 6) {
      uint64_t len = v.Read(VmcsField::kVmEntryInstructionLen);
      if (len == 0 || len > 15) {
        len = 1 + (len % 15);
      }
      v.Write(VmcsField::kVmEntryInstructionLen, len);
    }
  }
}

// ---------------------------------------------------------------------------
// Group 2: host-state fields (inter-group: reads the rounded exit controls).
// ---------------------------------------------------------------------------

void VmcsValidator::RoundHostState(Vmcs& v) const {
  const uint32_t exit_ctl =
      static_cast<uint32_t>(v.Read(VmcsField::kVmExitControls));
  const bool host64 = (exit_ctl & ExitCtl::kHostAddrSpaceSize) != 0;

  uint64_t cr0 = v.Read(VmcsField::kHostCr0);
  cr0 = (cr0 | caps_.cr0_fixed0) & ~Cr0::kReservedMask & caps_.cr0_fixed1;
  v.Write(VmcsField::kHostCr0, cr0);

  uint64_t cr4 = v.Read(VmcsField::kHostCr4);
  cr4 = (cr4 | caps_.cr4_fixed0) & ~Cr4::kReservedMask;
  if (host64) {
    cr4 |= Cr4::kPae;
  } else {
    cr4 &= ~Cr4::kPcide;
  }
  v.Write(VmcsField::kHostCr4, cr4);

  v.Write(VmcsField::kHostCr3,
          v.Read(VmcsField::kHostCr3) & caps_.MaxPhysicalAddress());

  for (VmcsField f : {VmcsField::kHostFsBase, VmcsField::kHostGsBase,
                      VmcsField::kHostTrBase, VmcsField::kHostGdtrBase,
                      VmcsField::kHostIdtrBase,
                      VmcsField::kHostIa32SysenterEsp,
                      VmcsField::kHostIa32SysenterEip}) {
    v.Write(f, Canonicalize(v.Read(f)));
  }

  // Selectors: clear RPL/TI; CS and TR must be non-null (SS too for
  // 32-bit hosts).
  for (VmcsField f :
       {VmcsField::kHostCsSelector, VmcsField::kHostSsSelector,
        VmcsField::kHostDsSelector, VmcsField::kHostEsSelector,
        VmcsField::kHostFsSelector, VmcsField::kHostGsSelector,
        VmcsField::kHostTrSelector}) {
    v.Write(f, v.Read(f) & ~0x7ULL);
  }
  if (v.Read(VmcsField::kHostCsSelector) == 0) {
    v.Write(VmcsField::kHostCsSelector, 0x08);
  }
  if (v.Read(VmcsField::kHostTrSelector) == 0) {
    v.Write(VmcsField::kHostTrSelector, 0x18);
  }
  if (!host64 && v.Read(VmcsField::kHostSsSelector) == 0) {
    v.Write(VmcsField::kHostSsSelector, 0x10);
  }

  if (host64) {
    v.Write(VmcsField::kHostRip, Canonicalize(v.Read(VmcsField::kHostRip)));
  } else {
    v.Write(VmcsField::kHostRip,
            v.Read(VmcsField::kHostRip) & MaskLow(32));
  }

  if ((exit_ctl & ExitCtl::kLoadEfer) != 0) {
    uint64_t efer = v.Read(VmcsField::kHostIa32Efer) & ~Efer::kReservedMask;
    efer = AssignBit(efer, 10, host64);  // LMA.
    efer = AssignBit(efer, 8, host64);   // LME.
    v.Write(VmcsField::kHostIa32Efer, efer);
  }
  if ((exit_ctl & ExitCtl::kLoadPat) != 0) {
    v.Write(VmcsField::kHostIa32Pat, FixPat(v.Read(VmcsField::kHostIa32Pat)));
  }
}

// ---------------------------------------------------------------------------
// Group 3: guest-state fields (inter-group: reads rounded entry controls
// and secondary controls).
// ---------------------------------------------------------------------------

void VmcsValidator::RoundGuestState(Vmcs& v) const {
  const uint32_t entry_ctl =
      static_cast<uint32_t>(v.Read(VmcsField::kVmEntryControls));
  const uint32_t proc =
      static_cast<uint32_t>(v.Read(VmcsField::kCpuBasedVmExecControl));
  const uint32_t sec =
      (proc & ProcCtl::kActivateSecondary) != 0
          ? static_cast<uint32_t>(v.Read(VmcsField::kSecondaryVmExecControl))
          : 0;
  const bool unrestricted = (sec & Proc2Ctl::kUnrestrictedGuest) != 0;
  const bool ia32e = (entry_ctl & EntryCtl::kIa32eModeGuest) != 0;
  const bool ept = (sec & Proc2Ctl::kEnableEpt) != 0;

  // --- CR0 / CR4 / CR3 ---
  uint64_t cr0 = v.Read(VmcsField::kGuestCr0);
  uint64_t fixed0 = caps_.cr0_fixed0;
  if (unrestricted) {
    fixed0 &= ~(Cr0::kPe | Cr0::kPg);
  }
  cr0 = (cr0 | fixed0) & ~Cr0::kReservedMask & caps_.cr0_fixed1;
  if ((cr0 & Cr0::kPg) != 0 && (cr0 & Cr0::kPe) == 0) {
    cr0 |= Cr0::kPe;
  }
  if ((cr0 & Cr0::kNw) != 0 && (cr0 & Cr0::kCd) == 0) {
    cr0 &= ~Cr0::kNw;
  }
  uint64_t cr4 = v.Read(VmcsField::kGuestCr4);
  cr4 = (cr4 | caps_.cr4_fixed0) & ~Cr4::kReservedMask;
  if (ia32e) {
    // The paper's running example (Section 4.3): IA-32e mode requires
    // CR4.PAE per the architecture; force the bit to satisfy it.
    cr4 |= Cr4::kPae;
    cr0 |= Cr0::kPg | Cr0::kPe;
  } else {
    cr4 &= ~Cr4::kPcide;
  }
  v.Write(VmcsField::kGuestCr0, cr0);
  v.Write(VmcsField::kGuestCr4, cr4);
  v.Write(VmcsField::kGuestCr3,
          v.Read(VmcsField::kGuestCr3) & caps_.MaxPhysicalAddress());

  // --- EFER ---
  if ((entry_ctl & EntryCtl::kLoadEfer) != 0) {
    uint64_t efer = v.Read(VmcsField::kGuestIa32Efer) & ~Efer::kReservedMask;
    efer = AssignBit(efer, 10, ia32e);  // LMA mirrors the entry control.
    if ((cr0 & Cr0::kPg) != 0) {
      efer = AssignBit(efer, 8, ia32e);  // LME == LMA when paging.
    }
    v.Write(VmcsField::kGuestIa32Efer, efer);
  }

  // --- Debug state ---
  if ((entry_ctl & EntryCtl::kLoadDebugControls) != 0) {
    v.Write(VmcsField::kGuestIa32Debugctl,
            v.Read(VmcsField::kGuestIa32Debugctl) & 0xdfc3ULL);
    v.Write(VmcsField::kGuestDr7, v.Read(VmcsField::kGuestDr7) & MaskLow(32));
  }

  // --- RFLAGS ---
  uint64_t rflags = v.Read(VmcsField::kGuestRflags);
  rflags = (rflags | Rflags::kFixed1) & ~Rflags::kReservedMask;
  if (ia32e || (cr0 & Cr0::kPe) == 0) {
    rflags &= ~Rflags::kVm;
  }
  const uint32_t intr_info =
      static_cast<uint32_t>(v.Read(VmcsField::kVmEntryIntrInfoField));
  if (TestBit(intr_info, 31) && ExtractBits(intr_info, 8, 3) == 0) {
    rflags |= Rflags::kIf;
  }
  v.Write(VmcsField::kGuestRflags, rflags);
  const bool v86 = (rflags & Rflags::kVm) != 0;

  // --- Segments ---
  struct Seg {
    VmcsField sel, base, limit, ar;
    bool is_cs, is_ss, fit32;
  };
  constexpr Seg kSegs[] = {
      {VmcsField::kGuestCsSelector, VmcsField::kGuestCsBase,
       VmcsField::kGuestCsLimit, VmcsField::kGuestCsArBytes, true, false,
       true},
      {VmcsField::kGuestSsSelector, VmcsField::kGuestSsBase,
       VmcsField::kGuestSsLimit, VmcsField::kGuestSsArBytes, false, true,
       true},
      {VmcsField::kGuestDsSelector, VmcsField::kGuestDsBase,
       VmcsField::kGuestDsLimit, VmcsField::kGuestDsArBytes, false, false,
       true},
      {VmcsField::kGuestEsSelector, VmcsField::kGuestEsBase,
       VmcsField::kGuestEsLimit, VmcsField::kGuestEsArBytes, false, false,
       true},
      {VmcsField::kGuestFsSelector, VmcsField::kGuestFsBase,
       VmcsField::kGuestFsLimit, VmcsField::kGuestFsArBytes, false, false,
       false},
      {VmcsField::kGuestGsSelector, VmcsField::kGuestGsBase,
       VmcsField::kGuestGsLimit, VmcsField::kGuestGsArBytes, false, false,
       false},
  };
  if (v86) {
    for (const Seg& s : kSegs) {
      const uint64_t sel = v.Read(s.sel) & 0xffff;
      v.Write(s.base, sel << 4);
      v.Write(s.limit, 0xffff);
      v.Write(s.ar, 0xf3);
    }
  } else {
    for (const Seg& s : kSegs) {
      uint32_t ar = static_cast<uint32_t>(v.Read(s.ar));
      if (s.is_cs) {
        ar &= ~SegAr::kUnusable;  // CS must be usable.
      }
      if (!SegAr::Usable(ar)) {
        v.Write(s.ar, SegAr::kUnusable);
        continue;
      }
      ar &= ~(SegAr::kReservedMask);  // Clear reserved bits.
      ar |= SegAr::kP | SegAr::kS;
      uint32_t type = SegAr::Type(ar);
      if (s.is_cs) {
        type = (type | 9) & 0xf;  // 9/11/13/15: accessed code.
        if (ia32e && (ar & SegAr::kL) != 0) {
          ar &= ~SegAr::kDb;
        }
        // CS.DPL vs SS.DPL is repaired in a post-pass once SS's final
        // state is known (the loop visits CS first).
      } else if (s.is_ss) {
        type = (type & 0x4) | 3;  // 3 or 7: read/write, accessed.
        if (!unrestricted) {
          // SS.DPL == SS.RPL == CS.RPL.
          const uint64_t cs_sel = v.Read(VmcsField::kGuestCsSelector);
          uint64_t sel = (v.Read(s.sel) & ~0x3ULL) | (cs_sel & 0x3);
          v.Write(s.sel, sel);
          ar = (ar & ~SegAr::kDplMask) |
               (static_cast<uint32_t>(cs_sel & 0x3) << SegAr::kDplShift);
        }
      } else {
        type |= 1;  // Accessed.
        if ((type & 0x8) != 0) {
          type |= 2;  // Code segments must be readable.
        }
        // Non-conforming data segment: DPL must be >= RPL.
        if (!unrestricted && (type & 0x8) == 0 && (type & 0x4) == 0) {
          const uint32_t rpl = static_cast<uint32_t>(v.Read(s.sel)) & 0x3;
          if (SegAr::Dpl(ar) < rpl) {
            ar = (ar & ~SegAr::kDplMask) | (rpl << SegAr::kDplShift);
          }
        }
      }
      ar = (ar & ~SegAr::kTypeMask) | type;
      v.Write(s.ar, ar);
      if (s.fit32) {
        v.Write(s.base, v.Read(s.base) & MaskLow(32));
      } else {
        v.Write(s.base, Canonicalize(v.Read(s.base)));
      }
      FixLimitGranularity(v, s.limit, s.ar);
    }
    // Post-pass: align CS.DPL with SS.DPL for non-conforming CS, now that
    // SS has reached its final rounded state.
    if (!unrestricted) {
      const uint32_t ss_ar =
          static_cast<uint32_t>(v.Read(VmcsField::kGuestSsArBytes));
      uint32_t cs_ar =
          static_cast<uint32_t>(v.Read(VmcsField::kGuestCsArBytes));
      const uint32_t cs_type = SegAr::Type(cs_ar);
      if (SegAr::Usable(ss_ar) && (cs_type == 9 || cs_type == 11)) {
        cs_ar = (cs_ar & ~SegAr::kDplMask) | (ss_ar & SegAr::kDplMask);
        v.Write(VmcsField::kGuestCsArBytes, cs_ar);
      }
    }
  }

  // TR: always usable, system type 11 (or 3 outside IA-32e), TI clear.
  {
    uint32_t ar = static_cast<uint32_t>(v.Read(VmcsField::kGuestTrArBytes));
    ar &= ~(SegAr::kUnusable | SegAr::kReservedMask | SegAr::kS);
    uint32_t type = SegAr::Type(ar);
    if (ia32e) {
      type = 11;
    } else if (type != 3 && type != 11) {
      type = 11;
    }
    ar = (ar & ~SegAr::kTypeMask) | type | SegAr::kP;
    v.Write(VmcsField::kGuestTrArBytes, ar);
    v.Write(VmcsField::kGuestTrSelector,
            v.Read(VmcsField::kGuestTrSelector) & ~0x4ULL);
    v.Write(VmcsField::kGuestTrBase,
            Canonicalize(v.Read(VmcsField::kGuestTrBase)));
    FixLimitGranularity(v, VmcsField::kGuestTrLimit,
                        VmcsField::kGuestTrArBytes);
  }
  // LDTR: if usable, force type 2 system descriptor.
  {
    uint32_t ar = static_cast<uint32_t>(v.Read(VmcsField::kGuestLdtrArBytes));
    if (SegAr::Usable(ar)) {
      ar &= ~(SegAr::kReservedMask | SegAr::kS);
      ar = (ar & ~SegAr::kTypeMask) | 2 | SegAr::kP;
      v.Write(VmcsField::kGuestLdtrArBytes, ar);
      v.Write(VmcsField::kGuestLdtrSelector,
              v.Read(VmcsField::kGuestLdtrSelector) & ~0x4ULL);
      v.Write(VmcsField::kGuestLdtrBase,
              Canonicalize(v.Read(VmcsField::kGuestLdtrBase)));
    }
  }

  // GDTR / IDTR.
  v.Write(VmcsField::kGuestGdtrBase,
          Canonicalize(v.Read(VmcsField::kGuestGdtrBase)));
  v.Write(VmcsField::kGuestIdtrBase,
          Canonicalize(v.Read(VmcsField::kGuestIdtrBase)));
  v.Write(VmcsField::kGuestGdtrLimit,
          v.Read(VmcsField::kGuestGdtrLimit) & 0xffff);
  v.Write(VmcsField::kGuestIdtrLimit,
          v.Read(VmcsField::kGuestIdtrLimit) & 0xffff);

  // RIP.
  const uint32_t cs_ar =
      static_cast<uint32_t>(v.Read(VmcsField::kGuestCsArBytes));
  if (!ia32e || (cs_ar & SegAr::kL) == 0) {
    v.Write(VmcsField::kGuestRip, v.Read(VmcsField::kGuestRip) & MaskLow(32));
  } else {
    v.Write(VmcsField::kGuestRip, Canonicalize(v.Read(VmcsField::kGuestRip)));
  }

  // Activity / interruptibility.
  uint64_t activity = v.Read(VmcsField::kGuestActivityState) % 4;
  if (activity != 0 &&
      (caps_.supported_activity_states & (1u << (activity - 1))) == 0) {
    activity = 0;
  }
  if (TestBit(intr_info, 31) &&
      (activity == static_cast<uint64_t>(ActivityState::kShutdown) ||
       activity == static_cast<uint64_t>(ActivityState::kWaitForSipi))) {
    activity = 0;
  }
  uint32_t interruptibility = static_cast<uint32_t>(
      v.Read(VmcsField::kGuestInterruptibilityInfo));
  interruptibility &= ~Interruptibility::kReservedMask;
  if (activity != 0) {
    interruptibility &= ~(Interruptibility::kStiBlocking |
                          Interruptibility::kMovSsBlocking);
  }
  if ((interruptibility & Interruptibility::kStiBlocking) != 0 &&
      (interruptibility & Interruptibility::kMovSsBlocking) != 0) {
    interruptibility &= ~Interruptibility::kMovSsBlocking;
  }
  if ((rflags & Rflags::kIf) == 0) {
    interruptibility &= ~Interruptibility::kStiBlocking;
  }
  v.Write(VmcsField::kGuestActivityState, activity);
  v.Write(VmcsField::kGuestInterruptibilityInfo, interruptibility);

  // Pending debug exceptions.
  uint64_t pending = v.Read(VmcsField::kGuestPendingDbgExceptions) &
                     ~PendingDbg::kReservedMask;
  const bool blocking =
      (interruptibility & (Interruptibility::kStiBlocking |
                           Interruptibility::kMovSsBlocking)) != 0 ||
      activity == static_cast<uint64_t>(ActivityState::kHlt);
  const bool tf = (rflags & Rflags::kTf) != 0;
  const bool btf = TestBit(v.Read(VmcsField::kGuestIa32Debugctl), 1);
  if (blocking) {
    if (tf && !btf) {
      pending |= PendingDbg::kBs;
    } else {
      pending &= ~PendingDbg::kBs;
    }
  }
  v.Write(VmcsField::kGuestPendingDbgExceptions, pending);

  // Link pointer: the model only supports the no-shadow value.
  if (v.Read(VmcsField::kVmcsLinkPointer) != ~0ULL) {
    v.Write(VmcsField::kVmcsLinkPointer, ~0ULL);
  }

  // PDPTEs for PAE-without-EPT guests.
  if ((cr0 & Cr0::kPg) != 0 && (cr4 & Cr4::kPae) != 0 && !ia32e && !ept) {
    for (VmcsField f : {VmcsField::kGuestPdptr0, VmcsField::kGuestPdptr1,
                        VmcsField::kGuestPdptr2, VmcsField::kGuestPdptr3}) {
      uint64_t pdpte = v.Read(f);
      if (TestBit(pdpte, 0)) {
        // Keep the page address, clear the reserved bits (2:1, 8:5), keep P.
        pdpte = (AlignDown(pdpte, 12) & caps_.MaxPhysicalAddress()) | 1;
        v.Write(f, pdpte);
      }
    }
  }

  if ((entry_ctl & EntryCtl::kLoadPat) != 0) {
    v.Write(VmcsField::kGuestIa32Pat,
            FixPat(v.Read(VmcsField::kGuestIa32Pat)));
  }
}

Vmcs VmcsValidator::RoundToValid(const Vmcs& raw) const {
  Vmcs v = raw;
  // Sequential group order with unidirectional dependencies (Section 4.3):
  // controls first, host second, guest third.
  RoundControls(v);
  RoundHostState(v);
  RoundGuestState(v);
  return v;
}

void VmcsValidator::BoundaryMutate(Vmcs& vmcs, ByteReader& directives) const {
  const auto table = VmcsFieldTable();
  const unsigned num_fields = 1 + static_cast<unsigned>(directives.Below(3));
  for (unsigned i = 0; i < num_fields; ++i) {
    const VmcsFieldInfo* info = nullptr;
    if (directives.Chance(1, 2)) {
      // Security-critical bias.
      const size_t pick = directives.Below(
          sizeof(kPriorityMutationFields) / sizeof(VmcsField));
      info = FindVmcsField(kPriorityMutationFields[pick]);
    } else {
      // Uniform over mutable fields.
      for (int attempts = 0; attempts < 8; ++attempts) {
        const VmcsFieldInfo& cand = table[directives.Below(table.size())];
        if (cand.group != VmcsFieldGroup::kReadOnlyData) {
          info = &cand;
          break;
        }
      }
    }
    if (info == nullptr) {
      continue;
    }
    const unsigned num_bits = 1 + static_cast<unsigned>(directives.Below(8));
    uint64_t value = vmcs.Read(info->field);
    for (unsigned b = 0; b < num_bits; ++b) {
      value = FlipBit(value, static_cast<unsigned>(
                                 directives.Below(info->bits)));
    }
    vmcs.Write(info->field, value);
  }
}

Vmcs VmcsValidator::GenerateBoundaryState(ByteReader& image,
                                          ByteReader& directives) const {
  // Raw VMCS content straight from fuzzing-input bytes.
  std::array<uint8_t, Vmcs::BitImageSize()> bits{};
  image.Fill(bits);
  Vmcs raw;
  raw.FromBitImage(bits);
  // Round to the valid region, then step back across the boundary.
  Vmcs rounded = RoundToValid(raw);
  BoundaryMutate(rounded, directives);
  return rounded;
}

}  // namespace neco
