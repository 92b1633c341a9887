// Integration tests for the simulated KVM: nested VMX/SVM instruction
// emulation, exit-reason dispatch between L0 and L1, nested state sync,
// the MSR-load validation KVM performs (contrast VirtualBox), and the two
// re-seeded vulnerabilities with both trigger and non-trigger conditions;
// plus the guest-memory model against the std::map it replaced.
#include <gtest/gtest.h>

#include <iterator>
#include <map>

#include "src/arch/vmx_bits.h"
#include "src/hv/guest_memory.h"
#include "src/hv/sim_kvm/kvm.h"
#include "src/support/rng.h"

namespace neco {
namespace {

VmxInsn Vmx(VmxOp op, uint64_t operand = 0) {
  VmxInsn insn;
  insn.op = op;
  insn.operand = operand;
  return insn;
}

GuestInsn Insn(GuestInsnKind kind, uint64_t a0 = 0, uint64_t a1 = 0) {
  GuestInsn insn;
  insn.kind = kind;
  insn.arg0 = a0;
  insn.arg1 = a1;
  return insn;
}

class SimKvmVmxTest : public ::testing::Test {
 protected:
  void SetUp() override {
    kvm_.StartVm(VcpuConfig::Default(Arch::kIntel));
    kvm_.guest_memory().Write32(0x1000, Vmcs::kRevisionId);
    kvm_.guest_memory().Write32(0x2000, Vmcs::kRevisionId);
  }

  // Full init sequence with the given VMCS12; returns entered-L2.
  bool LaunchWith(const Vmcs& vmcs12) {
    EXPECT_TRUE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmxon, 0x1000)).ok);
    EXPECT_TRUE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmclear, 0x2000)).ok);
    EXPECT_TRUE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmptrld, 0x2000)).ok);
    for (const VmcsFieldInfo& info : VmcsFieldTable()) {
      if (info.group == VmcsFieldGroup::kReadOnlyData) {
        continue;
      }
      VmxInsn wr;
      wr.op = VmxOp::kVmwrite;
      wr.field = info.field;
      wr.value = vmcs12.Read(info.field);
      kvm_.HandleVmxInstruction(wr);
    }
    return kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmlaunch)).entered_l2;
  }

  SimKvm kvm_;
};

TEST_F(SimKvmVmxTest, VmxInstructionsRequireVmxon) {
  EXPECT_FALSE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmclear, 0x2000)).ok);
  EXPECT_FALSE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmlaunch)).ok);
  EXPECT_TRUE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmxon, 0x1000)).ok);
  EXPECT_TRUE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmclear, 0x2000)).ok);
}

TEST_F(SimKvmVmxTest, VmxonRejectedWithoutNestedConfig) {
  VcpuConfig config = VcpuConfig::Default(Arch::kIntel);
  config.features.Set(CpuFeature::kNestedVirt, false);
  kvm_.StartVm(config);
  kvm_.guest_memory().Write32(0x1000, Vmcs::kRevisionId);
  EXPECT_FALSE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmxon, 0x1000)).ok);
}

TEST_F(SimKvmVmxTest, VmptrldChecksRevision) {
  ASSERT_TRUE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmxon, 0x1000)).ok);
  kvm_.guest_memory().Write32(0x5000, 0xbadbad);
  EXPECT_FALSE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmptrld, 0x5000)).ok);
  EXPECT_TRUE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmptrld, 0x2000)).ok);
}

TEST_F(SimKvmVmxTest, GoldenStateReachesL2) {
  EXPECT_TRUE(LaunchWith(MakeDefaultVmcs()));
  EXPECT_TRUE(kvm_.in_l2());
}

TEST_F(SimKvmVmxTest, LaunchStateMachineEnforced) {
  ASSERT_TRUE(LaunchWith(MakeDefaultVmcs()));
  // Exit to L1 via CPUID (always reflected).
  EXPECT_EQ(kvm_.HandleGuestInstruction(Insn(GuestInsnKind::kCpuid),
                                        GuestLevel::kL2),
            HandledBy::kL1);
  EXPECT_FALSE(kvm_.in_l2());
  // vmlaunch again fails (already launched); vmresume re-enters.
  EXPECT_FALSE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmlaunch)).ok);
  EXPECT_TRUE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmresume)).entered_l2);
}

TEST_F(SimKvmVmxTest, InvalidGuestStateReflectedToL1) {
  Vmcs vmcs12 = MakeDefaultVmcs();
  vmcs12.Write(VmcsField::kGuestActivityState, 9);
  EXPECT_FALSE(LaunchWith(vmcs12));
  // L1 reads the failed-entry exit reason from its VMCS12.
  VmxInsn rd;
  rd.op = VmxOp::kVmread;
  rd.field = VmcsField::kVmExitReason;
  const VmxEmuResult r = kvm_.HandleVmxInstruction(rd);
  ASSERT_TRUE(r.ok);
  EXPECT_EQ(static_cast<uint32_t>(r.read_value) & 0xffffu,
            static_cast<uint32_t>(ExitReason::kInvalidGuestState));
  EXPECT_NE(static_cast<uint32_t>(r.read_value) & kExitReasonFailedEntryBit,
            0u);
}

// Exit-reason dispatch: parameterized over instruction kinds that exit
// unconditionally vs. conditionally.
struct DispatchCase {
  const char* name;
  GuestInsnKind kind;
  VmcsField ctl_field;
  uint64_t ctl_bit;       // OR'd into the control to force reflection.
  bool always_reflects;
};

const DispatchCase kDispatchCases[] = {
    {"cpuid", GuestInsnKind::kCpuid, VmcsField::kCpuBasedVmExecControl, 0,
     true},
    {"vmcall", GuestInsnKind::kVmcall, VmcsField::kCpuBasedVmExecControl, 0,
     true},
    {"invd", GuestInsnKind::kInvd, VmcsField::kCpuBasedVmExecControl, 0,
     true},
    {"xsetbv", GuestInsnKind::kXsetbv, VmcsField::kCpuBasedVmExecControl, 0,
     true},
    {"hlt", GuestInsnKind::kHlt, VmcsField::kCpuBasedVmExecControl,
     ProcCtl::kHltExiting, false},
    {"rdtsc", GuestInsnKind::kRdtsc, VmcsField::kCpuBasedVmExecControl,
     ProcCtl::kRdtscExiting, false},
    {"rdpmc", GuestInsnKind::kRdpmc, VmcsField::kCpuBasedVmExecControl,
     ProcCtl::kRdpmcExiting, false},
    {"invlpg", GuestInsnKind::kInvlpg, VmcsField::kCpuBasedVmExecControl,
     ProcCtl::kInvlpgExiting, false},
    {"mwait", GuestInsnKind::kMwait, VmcsField::kCpuBasedVmExecControl,
     ProcCtl::kMwaitExiting, false},
    {"monitor", GuestInsnKind::kMonitor, VmcsField::kCpuBasedVmExecControl,
     ProcCtl::kMonitorExiting, false},
    {"pause", GuestInsnKind::kPause, VmcsField::kCpuBasedVmExecControl,
     ProcCtl::kPauseExiting, false},
    {"mov_dr", GuestInsnKind::kMovToDr, VmcsField::kCpuBasedVmExecControl,
     ProcCtl::kMovDrExiting, false},
};

class SimKvmDispatchTest : public SimKvmVmxTest,
                           public ::testing::WithParamInterface<DispatchCase> {
};

TEST_P(SimKvmDispatchTest, ControlBitDecidesReflection) {
  const DispatchCase& c = GetParam();
  // Without the control bit: L0 handles (or no exit).
  if (!c.always_reflects) {
    Vmcs vmcs12 = MakeDefaultVmcs();
    uint64_t ctl = vmcs12.Read(c.ctl_field);
    vmcs12.Write(c.ctl_field, ctl & ~c.ctl_bit);
    ASSERT_TRUE(LaunchWith(vmcs12));
    EXPECT_NE(kvm_.HandleGuestInstruction(Insn(c.kind), GuestLevel::kL2),
              HandledBy::kL1)
        << c.name;
    kvm_.StartVm(VcpuConfig::Default(Arch::kIntel));
    kvm_.guest_memory().Write32(0x1000, Vmcs::kRevisionId);
    kvm_.guest_memory().Write32(0x2000, Vmcs::kRevisionId);
  }
  // With the bit: reflected to L1.
  Vmcs vmcs12 = MakeDefaultVmcs();
  vmcs12.Write(c.ctl_field, vmcs12.Read(c.ctl_field) | c.ctl_bit);
  ASSERT_TRUE(LaunchWith(vmcs12)) << c.name;
  EXPECT_EQ(kvm_.HandleGuestInstruction(Insn(c.kind), GuestLevel::kL2),
            HandledBy::kL1)
      << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    ExitReasons, SimKvmDispatchTest, ::testing::ValuesIn(kDispatchCases),
    [](const ::testing::TestParamInfo<DispatchCase>& info) {
      return std::string(info.param.name);
    });

TEST_F(SimKvmVmxTest, Cr0MaskAndShadowDecideExit) {
  Vmcs vmcs12 = MakeDefaultVmcs();
  vmcs12.Write(VmcsField::kCr0GuestHostMask, Cr0::kCd);
  vmcs12.Write(VmcsField::kCr0ReadShadow, 0);
  ASSERT_TRUE(LaunchWith(vmcs12));
  // Touching an owned bit exits to L1.
  EXPECT_EQ(kvm_.HandleGuestInstruction(
                Insn(GuestInsnKind::kMovToCr0, Cr0::kCd | 0x80000031ULL),
                GuestLevel::kL2),
            HandledBy::kL1);
  ASSERT_TRUE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmresume)).entered_l2);
  // Matching the shadow avoids the exit.
  EXPECT_NE(kvm_.HandleGuestInstruction(
                Insn(GuestInsnKind::kMovToCr0, 0x80000031ULL),
                GuestLevel::kL2),
            HandledBy::kL1);
}

TEST_F(SimKvmVmxTest, IoBitmapDecidesExit) {
  Vmcs vmcs12 = MakeDefaultVmcs();
  kvm_.guest_memory().SetBit(vmcs12.Read(VmcsField::kIoBitmapA), 0x80, true);
  ASSERT_TRUE(LaunchWith(vmcs12));
  EXPECT_EQ(kvm_.HandleGuestInstruction(Insn(GuestInsnKind::kIoOut, 0x80, 1),
                                        GuestLevel::kL2),
            HandledBy::kL1);
  ASSERT_TRUE(kvm_.HandleVmxInstruction(Vmx(VmxOp::kVmresume)).entered_l2);
  EXPECT_EQ(kvm_.HandleGuestInstruction(Insn(GuestInsnKind::kIoOut, 0x81, 1),
                                        GuestLevel::kL2),
            HandledBy::kL0);
}

TEST_F(SimKvmVmxTest, ExceptionBitmapFiltersPageFaults) {
  Vmcs vmcs12 = MakeDefaultVmcs();
  vmcs12.Write(VmcsField::kExceptionBitmap, 1u << 14);
  vmcs12.Write(VmcsField::kPageFaultErrorCodeMask, 0x1);
  vmcs12.Write(VmcsField::kPageFaultErrorCodeMatch, 0x1);
  ASSERT_TRUE(LaunchWith(vmcs12));
  // Error code matching -> reflected.
  EXPECT_EQ(kvm_.HandleGuestInstruction(
                Insn(GuestInsnKind::kRaiseException, 14, 0x1),
                GuestLevel::kL2),
            HandledBy::kL1);
}

TEST_F(SimKvmVmxTest, NestedExitSyncsGuestFields) {
  Vmcs vmcs12 = MakeDefaultVmcs();
  // CR3-load exiting is a default-1 control; a CR3-target-list match
  // suppresses the exit so L0 handles the write itself.
  vmcs12.Write(VmcsField::kCr3TargetCount, 1);
  vmcs12.Write(VmcsField::kCr3TargetValue0, 0x7000);
  ASSERT_TRUE(LaunchWith(vmcs12));
  ASSERT_NE(kvm_.HandleGuestInstruction(
                Insn(GuestInsnKind::kMovToCr3, 0x7000), GuestLevel::kL2),
            HandledBy::kL1);
  // Now force an exit; VMCS12 must observe the new CR3.
  ASSERT_EQ(kvm_.HandleGuestInstruction(Insn(GuestInsnKind::kCpuid),
                                        GuestLevel::kL2),
            HandledBy::kL1);
  VmxInsn rd;
  rd.op = VmxOp::kVmread;
  rd.field = VmcsField::kGuestCr3;
  EXPECT_EQ(kvm_.HandleVmxInstruction(rd).read_value, 0x7000u);
  rd.field = VmcsField::kVmExitReason;
  EXPECT_EQ(kvm_.HandleVmxInstruction(rd).read_value,
            static_cast<uint64_t>(ExitReason::kCpuid));
}

TEST_F(SimKvmVmxTest, MsrLoadAreaCanonicalityEnforced) {
  // KVM rejects non-canonical KERNEL_GS_BASE in the entry MSR-load area —
  // the check VirtualBox lacks (CVE-2024-21106).
  Vmcs vmcs12 = MakeDefaultVmcs();
  vmcs12.Write(VmcsField::kVmEntryMsrLoadCount, 1);
  vmcs12.Write(VmcsField::kVmEntryMsrLoadAddr, 0x10000);
  WriteMsrAreaEntry(kvm_.guest_memory(), 0x10000, 0,
                    {Msr::kKernelGsBase, 0x8000000000000000ULL});
  EXPECT_FALSE(LaunchWith(vmcs12));
  EXPECT_TRUE(kvm_.sanitizers().empty()) << "rejection must be graceful";
  // Canonical value is fine.
  kvm_.StartVm(VcpuConfig::Default(Arch::kIntel));
  kvm_.guest_memory().Write32(0x1000, Vmcs::kRevisionId);
  kvm_.guest_memory().Write32(0x2000, Vmcs::kRevisionId);
  WriteMsrAreaEntry(kvm_.guest_memory(), 0x10000, 0,
                    {Msr::kKernelGsBase, 0xffff800000000000ULL});
  EXPECT_TRUE(LaunchWith(vmcs12));
}

// --- Bug K1: CVE-2023-30456 ---

TEST_F(SimKvmVmxTest, BugK1TriggersWithEptOffAndPaeClear) {
  VcpuConfig config = VcpuConfig::Default(Arch::kIntel);
  config.features.Set(CpuFeature::kEpt, false);  // Shadow paging.
  kvm_.StartVm(config);
  kvm_.guest_memory().Write32(0x1000, Vmcs::kRevisionId);
  kvm_.guest_memory().Write32(0x2000, Vmcs::kRevisionId);

  Vmcs vmcs12 = MakeDefaultVmcs();
  // IA-32e mode guest with CR4.PAE = 0 (the CVE state). Drop the secondary
  // controls KVM will not advertise without EPT.
  vmcs12.Write(VmcsField::kGuestCr4, Cr4::kVmxe);
  vmcs12.Write(VmcsField::kCpuBasedVmExecControl, 0x0401e172u);
  vmcs12.Write(VmcsField::kSecondaryVmExecControl, 0);
  LaunchWith(vmcs12);

  ASSERT_FALSE(kvm_.sanitizers().empty());
  const AnomalyReport& report = kvm_.sanitizers().reports().front();
  EXPECT_EQ(report.kind, AnomalyKind::kUbsan);
  EXPECT_EQ(report.bug_id, "kvm-nvmx-cr4pae-oob");
}

TEST_F(SimKvmVmxTest, BugK1DoesNotTriggerWithEptOn) {
  // Same VMCS12 but EPT enabled: the vulnerable shadow-walk never runs.
  Vmcs vmcs12 = MakeDefaultVmcs();
  vmcs12.Write(VmcsField::kGuestCr4, Cr4::kVmxe);
  LaunchWith(vmcs12);
  EXPECT_TRUE(kvm_.sanitizers().empty());
}

TEST_F(SimKvmVmxTest, BugK1DoesNotTriggerWithPaeSet) {
  VcpuConfig config = VcpuConfig::Default(Arch::kIntel);
  config.features.Set(CpuFeature::kEpt, false);
  kvm_.StartVm(config);
  kvm_.guest_memory().Write32(0x1000, Vmcs::kRevisionId);
  kvm_.guest_memory().Write32(0x2000, Vmcs::kRevisionId);
  Vmcs vmcs12 = MakeDefaultVmcs();
  vmcs12.Write(VmcsField::kCpuBasedVmExecControl, 0x0401e172u);
  vmcs12.Write(VmcsField::kSecondaryVmExecControl, 0);
  LaunchWith(vmcs12);
  EXPECT_TRUE(kvm_.sanitizers().empty());
}

// --- Bug K2: dummy-root (Intel flavour) ---

TEST_F(SimKvmVmxTest, BugK2TriggersOnOutOfRangeEptp) {
  Vmcs vmcs12 = MakeDefaultVmcs();
  vmcs12.Write(VmcsField::kEptPointer,
               (1ULL << 50) | 0x1000 | 0x6 | (3u << 3));
  LaunchWith(vmcs12);
  ASSERT_FALSE(kvm_.sanitizers().empty());
  EXPECT_EQ(kvm_.sanitizers().reports().front().bug_id,
            "kvm-nvmx-dummy-root");
  EXPECT_EQ(kvm_.sanitizers().reports().front().kind,
            AnomalyKind::kAssertion);
}

TEST_F(SimKvmVmxTest, IoctlSurfaceRoundTrips) {
  ASSERT_TRUE(LaunchWith(MakeDefaultVmcs()));
  const uint64_t blob = kvm_.IoctlGetNestedState();
  EXPECT_NE(blob & 1, 0u);  // vmxon.
  EXPECT_NE(blob & 4, 0u);  // in L2.
  EXPECT_TRUE(kvm_.IoctlSetNestedState(blob & 0x7));
  EXPECT_TRUE(kvm_.IoctlSetNestedState(0));  // Clear everything.
  EXPECT_FALSE(kvm_.IoctlSetNestedState(0x5))
      << "L2 without a current VMCS12 must be rejected";
  kvm_.IoctlLeaveNested();
  EXPECT_FALSE(kvm_.in_l2());
}

// --- AMD side ---

class SimKvmSvmTest : public ::testing::Test {
 protected:
  void SetUp() override { kvm_.StartVm(VcpuConfig::Default(Arch::kAmd)); }

  SvmInsn Svm(SvmOp op, uint64_t operand = 0) {
    SvmInsn insn;
    insn.op = op;
    insn.operand = operand;
    return insn;
  }

  void EnableSvme() {
    kvm_.HandleGuestInstruction(
        Insn(GuestInsnKind::kWrmsr, Msr::kIa32Efer,
             Efer::kSvme | Efer::kLme | Efer::kLma),
        GuestLevel::kL1);
  }

  bool RunWith(const Vmcb& vmcb12) {
    EnableSvme();
    for (const VmcbFieldInfo& info : VmcbFieldTable()) {
      SvmInsn wr;
      wr.op = SvmOp::kVmcbWrite;
      wr.operand = 0x3000;
      wr.field = info.field;
      wr.value = vmcb12.Read(info.field);
      kvm_.HandleSvmInstruction(wr);
    }
    return kvm_.HandleSvmInstruction(Svm(SvmOp::kVmrun, 0x3000)).entered_l2;
  }

  SimKvm kvm_;
};

TEST_F(SimKvmSvmTest, VmrunRequiresSvme) {
  EXPECT_FALSE(kvm_.HandleSvmInstruction(Svm(SvmOp::kVmrun, 0x3000)).ok);
  EnableSvme();
  // Zero VMCB fails control checks but the instruction itself is accepted.
  EXPECT_TRUE(kvm_.HandleSvmInstruction(Svm(SvmOp::kVmrun, 0x3000)).ok);
  EXPECT_FALSE(kvm_.in_l2());
}

TEST_F(SimKvmSvmTest, GoldenVmcbReachesL2) {
  EXPECT_TRUE(RunWith(MakeDefaultVmcb()));
  EXPECT_TRUE(kvm_.in_l2());
}

TEST_F(SimKvmSvmTest, InterceptBitsDecideReflection) {
  Vmcb vmcb12 = MakeDefaultVmcb();
  ASSERT_TRUE(RunWith(vmcb12));
  // CPUID intercept is in the default VMCB.
  EXPECT_EQ(kvm_.HandleGuestInstruction(Insn(GuestInsnKind::kCpuid),
                                        GuestLevel::kL2),
            HandledBy::kL1);
  // Re-run and check RDTSC (not intercepted by default): it executes
  // directly in L2 without reaching L1.
  ASSERT_TRUE(
      kvm_.HandleSvmInstruction(Svm(SvmOp::kVmrun, 0x3000)).entered_l2);
  EXPECT_NE(kvm_.HandleGuestInstruction(Insn(GuestInsnKind::kRdtsc),
                                        GuestLevel::kL2),
            HandledBy::kL1);
}

TEST_F(SimKvmSvmTest, NestedExitWritesExitCode) {
  ASSERT_TRUE(RunWith(MakeDefaultVmcb()));
  ASSERT_EQ(kvm_.HandleGuestInstruction(Insn(GuestInsnKind::kCpuid),
                                        GuestLevel::kL2),
            HandledBy::kL1);
  const Vmcb* vmcb12 = kvm_.nested_svm().vmcb12(0x3000);
  ASSERT_NE(vmcb12, nullptr);
  EXPECT_EQ(vmcb12->Read(VmcbField::kExitCode),
            static_cast<uint64_t>(SvmExitCode::kCpuid));
}

TEST_F(SimKvmSvmTest, ClgiBlocksVmrun) {
  EnableSvme();
  kvm_.HandleSvmInstruction(Svm(SvmOp::kClgi));
  Vmcb vmcb12 = MakeDefaultVmcb();
  for (const VmcbFieldInfo& info : VmcbFieldTable()) {
    SvmInsn wr;
    wr.op = SvmOp::kVmcbWrite;
    wr.operand = 0x3000;
    wr.field = info.field;
    wr.value = vmcb12.Read(info.field);
    kvm_.HandleSvmInstruction(wr);
  }
  EXPECT_FALSE(
      kvm_.HandleSvmInstruction(Svm(SvmOp::kVmrun, 0x3000)).entered_l2);
  kvm_.HandleSvmInstruction(Svm(SvmOp::kStgi));
  EXPECT_TRUE(
      kvm_.HandleSvmInstruction(Svm(SvmOp::kVmrun, 0x3000)).entered_l2);
}

// --- Bug K2, AMD flavour ---

TEST_F(SimKvmSvmTest, BugK2TriggersOnOutOfRangeNestedCr3) {
  Vmcb vmcb12 = MakeDefaultVmcb();
  vmcb12.Write(VmcbField::kNestedCr3, (1ULL << 52) | 0x9000);
  RunWith(vmcb12);
  ASSERT_FALSE(kvm_.sanitizers().empty());
  EXPECT_EQ(kvm_.sanitizers().reports().front().bug_id,
            "kvm-nsvm-dummy-root");
}

TEST_F(SimKvmSvmTest, NoBugWithValidNestedCr3) {
  EXPECT_TRUE(RunWith(MakeDefaultVmcb()));
  EXPECT_TRUE(kvm_.sanitizers().empty());
}

TEST_F(SimKvmSvmTest, KvmSanitizesVIntrAvicBit) {
  // KVM masks the AVIC-enable bit when merging V_INTR (contrast Xen X2).
  Vmcb vmcb12 = MakeDefaultVmcb();
  vmcb12.Write(VmcbField::kVIntr, SvmVintr::kAvicEnable | SvmVintr::kVIrq);
  ASSERT_TRUE(RunWith(vmcb12));
  EXPECT_TRUE(kvm_.sanitizers().empty());
}

// --- Guest memory ---------------------------------------------------------------

// The std::map model GuestMemory replaced: one node per touched word, and
// every writer (SetBit clearing a bit included) touches its word.
class MapGuestMemory {
 public:
  uint64_t Read64(uint64_t addr) const {
    auto it = words_.find(addr & ~7ULL);
    return it != words_.end() ? it->second : 0;
  }
  void Write64(uint64_t addr, uint64_t value) { words_[addr & ~7ULL] = value; }
  uint32_t Read32(uint64_t addr) const {
    const uint64_t w = Read64(addr);
    return (addr & 4) != 0 ? static_cast<uint32_t>(w >> 32)
                           : static_cast<uint32_t>(w);
  }
  void Write32(uint64_t addr, uint32_t value) {
    uint64_t w = Read64(addr);
    if ((addr & 4) != 0) {
      w = (w & 0x00000000ffffffffULL) | (static_cast<uint64_t>(value) << 32);
    } else {
      w = (w & 0xffffffff00000000ULL) | value;
    }
    Write64(addr, w);
  }
  bool TestBit(uint64_t base, uint64_t bit) const {
    return (Read64(base + (bit / 64) * 8) >> (bit % 64)) & 1;
  }
  void SetBit(uint64_t base, uint64_t bit, bool on) {
    const uint64_t addr = base + (bit / 64) * 8;
    const uint64_t mask = 1ULL << (bit % 64);
    const uint64_t w = Read64(addr);
    Write64(addr, on ? (w | mask) : (w & ~mask));
  }
  void Clear() { words_.clear(); }
  size_t touched_words() const { return words_.size(); }

 private:
  std::map<uint64_t, uint64_t> words_;
};

TEST(GuestMemoryTest, MatchesTheMapModelOverRandomOperations) {
  // Bases near zero, in the middle and at the top of the address space
  // (where addr + offset wraps); offsets are unaligned on purpose.
  const uint64_t bases[] = {0, 0x1000, 0x6000, 0x7ffffffffff8ULL,
                            ~0ULL - 0x3f};
  Rng rng(2024);
  GuestMemory mem;
  MapGuestMemory ref;
  const auto addr = [&] {
    return bases[rng.Below(std::size(bases))] + rng.Below(0x100);
  };
  for (int op = 0; op < 10000; ++op) {
    switch (rng.Below(8)) {
      case 0: {
        const uint64_t a = addr();
        ASSERT_EQ(mem.Read64(a), ref.Read64(a)) << "op " << op;
        break;
      }
      case 1: {
        const uint64_t a = addr();
        const uint64_t v = rng.Chance(1, 4) ? 0 : rng.Next();
        mem.Write64(a, v);
        ref.Write64(a, v);
        break;
      }
      case 2: {
        const uint64_t a = addr();
        ASSERT_EQ(mem.Read32(a), ref.Read32(a)) << "op " << op;
        break;
      }
      case 3: {
        const uint64_t a = addr();
        const auto v = static_cast<uint32_t>(rng.Next());
        mem.Write32(a, v);
        ref.Write32(a, v);
        break;
      }
      case 4: {
        const uint64_t a = addr();
        const uint64_t bit = rng.Below(0x800);
        ASSERT_EQ(mem.TestBit(a, bit), ref.TestBit(a, bit)) << "op " << op;
        break;
      }
      case 5:
      case 6: {
        const uint64_t a = addr();
        const uint64_t bit = rng.Below(0x800);
        const bool on = rng.Chance(2, 3);
        mem.SetBit(a, bit, on);
        ref.SetBit(a, bit, on);
        break;
      }
      case 7:
        if (rng.Chance(1, 50)) {
          mem.Clear();
          ref.Clear();
        }
        break;
    }
    ASSERT_EQ(mem.touched_words(), ref.touched_words()) << "op " << op;
  }
  for (const uint64_t base : bases) {
    for (uint64_t off = 0; off < 0x100; off += 4) {
      ASSERT_EQ(mem.Read32(base + off), ref.Read32(base + off));
    }
  }
}

}  // namespace
}  // namespace neco
