#include "perfbench/src/replay.h"

#include <iterator>

#include "perfbench/src/common.h"
#include "src/arch/vmx_bits.h"
#include "src/arch/vmx_caps.h"
#include "src/core/agent.h"
#include "src/core/partition.h"
#include "src/hv/guest_insn.h"
#include "src/hv/guest_memory.h"

namespace perfbench {
namespace {

using neco::Arch;
using neco::GuestLevel;
using neco::HandledBy;
using neco::HarnessProgram;
using neco::Hypervisor;
using neco::RuntimeStep;

// --- The benchmark's copy of the agent's guest-memory plant step --------
// (see replay.h). Pools and consumption order match Agent::PlantGuestMemory.

constexpr uint32_t kAreaMsrPool[] = {
    neco::Msr::kKernelGsBase, neco::Msr::kFsBase,
    neco::Msr::kGsBase,       neco::Msr::kKernelGsBase,
    neco::Msr::kIa32Efer,     neco::Msr::kIa32Pat,
    neco::Msr::kStar,         neco::Msr::kIa32SysenterEip,
};

constexpr uint64_t kAreaValuePool[] = {
    0x8000000000000000ULL, 0xffff800000000000ULL, 0x0000800000000000ULL, 0,
    ~0ULL, neco::Efer::kLme | neco::Efer::kLma,
};

void PlantIntel(neco::GuestMemory& mem, const HarnessProgram& prog,
                const neco::Vmcs& vmcs12, neco::ByteReader& msr_bytes) {
  using neco::VmcsField;
  mem.Write32(prog.vmxon_pa, prog.region_revision);
  mem.Write32(prog.vmcs12_pa, prog.region_revision);
  const uint64_t count = vmcs12.Read(VmcsField::kVmEntryMsrLoadCount);
  const uint64_t base = vmcs12.Read(VmcsField::kVmEntryMsrLoadAddr);
  for (uint64_t i = 0; i < count && i < 16; ++i) {
    neco::MsrAreaEntry e;
    e.index = kAreaMsrPool[msr_bytes.Below(std::size(kAreaMsrPool))];
    e.value = msr_bytes.Chance(1, 2)
                  ? kAreaValuePool[msr_bytes.Below(std::size(kAreaValuePool))]
                  : msr_bytes.U64();
    neco::WriteMsrAreaEntry(mem, base, i, e);
  }
  const uint64_t io_a = vmcs12.Read(VmcsField::kIoBitmapA);
  const uint64_t io_b = vmcs12.Read(VmcsField::kIoBitmapB);
  const uint64_t msr_bm = vmcs12.Read(VmcsField::kMsrBitmap);
  for (int i = 0; i < 8; ++i) {
    mem.SetBit(io_a, msr_bytes.U16() & 0x7fff, true);
    mem.SetBit(io_b, msr_bytes.U16() & 0x7fff, true);
    mem.SetBit(msr_bm, msr_bytes.U16() & 0x3fff, true);
  }
}

void PlantAmd(neco::GuestMemory& mem, const neco::Vmcb& vmcb12,
              neco::ByteReader& msr_bytes) {
  using neco::VmcbField;
  for (int i = 0; i < 8; ++i) {
    mem.SetBit(vmcb12.Read(VmcbField::kIopmBasePa), msr_bytes.U16() & 0x7fff,
               true);
    mem.SetBit(vmcb12.Read(VmcbField::kMsrpmBasePa), msr_bytes.U16() & 0x7fff,
               true);
  }
}

uint64_t ProgramInsns(const HarnessProgram& prog) {
  uint64_t n = prog.vmx_init.size() + prog.svm_init.size() +
               prog.l1_pre_init.size();
  for (const RuntimeStep& step : prog.runtime) {
    // The L2 instruction, L1's handling, and the re-entry.
    n += 1 + step.l1_insns.size() + step.l1_vmx_writes.size() +
         step.l1_svm_writes.size() + 1;
  }
  return n;
}

// --- The two execution phases, call for call as in the agent ------------

// False when the host went down during init (the agent then skips the
// runtime phase).
bool IntelInit(Hypervisor& hv, const HarnessProgram& prog) {
  for (const neco::VmxInsn& op : prog.vmx_init) {
    hv.HandleVmxInstruction(op);
    if (hv.host_crashed()) {
      return false;
    }
  }
  return true;
}

void IntelRuntime(Hypervisor& hv, const HarnessProgram& prog) {
  for (const RuntimeStep& step : prog.runtime) {
    if (hv.host_crashed()) {
      return;
    }
    neco::VmxInsn entry;
    if (hv.in_l2()) {
      if (hv.HandleGuestInstruction(step.l2, GuestLevel::kL2) !=
          HandledBy::kL1) {
        continue;
      }
      entry.op = step.resume_with_launch ? neco::VmxOp::kVmlaunch
                                         : neco::VmxOp::kVmresume;
    } else {
      entry.op = neco::VmxOp::kVmlaunch;
    }
    for (const neco::GuestInsn& insn : step.l1_insns) {
      hv.HandleGuestInstruction(insn, GuestLevel::kL1);
    }
    for (const neco::VmxInsn& wr : step.l1_vmx_writes) {
      hv.HandleVmxInstruction(wr);
    }
    hv.HandleVmxInstruction(entry);
  }
}

bool AmdInit(Hypervisor& hv, const HarnessProgram& prog) {
  for (const neco::GuestInsn& insn : prog.l1_pre_init) {
    hv.HandleGuestInstruction(insn, GuestLevel::kL1);
  }
  for (const neco::SvmInsn& op : prog.svm_init) {
    hv.HandleSvmInstruction(op);
    if (hv.host_crashed()) {
      return false;
    }
  }
  return true;
}

void AmdRuntime(Hypervisor& hv, const HarnessProgram& prog) {
  neco::SvmInsn rerun;
  rerun.op = neco::SvmOp::kVmrun;
  rerun.operand = prog.vmcb12_pa;
  for (const RuntimeStep& step : prog.runtime) {
    if (hv.host_crashed()) {
      return;
    }
    if (hv.in_l2() && hv.HandleGuestInstruction(step.l2, GuestLevel::kL2) !=
                          HandledBy::kL1) {
      continue;
    }
    for (const neco::GuestInsn& insn : step.l1_insns) {
      hv.HandleGuestInstruction(insn, GuestLevel::kL1);
    }
    for (const neco::SvmInsn& wr : step.l1_svm_writes) {
      hv.HandleSvmInstruction(wr);
    }
    hv.HandleSvmInstruction(rerun);
  }
}

// Closes one span per call: the time since the previous boundary goes to
// the named stage. Compiles to nothing when untraced.
template <bool kTraced>
class Laps {
 public:
  explicit Laps(StageNanos* spans) : spans_(spans) {
    if constexpr (kTraced) {
      last_ = Clock::now();
    }
  }
  void End(Stage stage) {
    if constexpr (kTraced) {
      const Clock::time_point now = Clock::now();
      (*spans_)[stage] += NanosBetween(last_, now);
      last_ = now;
    }
  }

 private:
  StageNanos* spans_;
  Clock::time_point last_;
};

}  // namespace

uint64_t TraceHash(const std::vector<uint32_t>& edges) {
  Fnv h;
  h.U64(edges.size());
  h.Bytes(edges.data(), edges.size() * sizeof(uint32_t));
  return h.value();
}

StageReplayer::StageReplayer(const neco::HypervisorFactory& factory, Arch arch)
    : hv_(factory()),
      adapter_(neco::MakeAdapterFor(hv_->name())),
      arch_(arch),
      harness_(neco::HarnessOptions{.enabled = true}),
      vmx_validator_(neco::MakeVmxCapabilities(
          neco::DefaultFeatureSet(Arch::kIntel).RestrictedTo(Arch::kIntel))),
      svm_validator_(neco::SvmCaps{}),
      vmx_oracle_(oracle_vmx_cpu_, vmx_validator_),
      svm_oracle_(oracle_svm_cpu_, svm_validator_) {
  hv_->nested_coverage(arch_).ResetCoverage();
  hv_->sanitizers().Clear();
}

template <bool kTraced>
uint64_t StageReplayer::Execute(const neco::FuzzInput& input,
                                StageNanos* spans) {
  static const uint32_t kOracleInterval = neco::AgentOptions{}.oracle_interval;
  Laps<kTraced> laps(spans);
  Hypervisor& hv = *hv_;
  ++executions_;
  if (hv.host_crashed()) {
    hv.RestartHost();  // The agent's watchdog.
  }
  neco::InputPartition parts(input);
  laps.End(kPartition);
  const neco::VcpuConfig config = configurator_.Generate(parts.config, arch_);
  laps.End(kConfig);
  if (adapter_ != nullptr) {
    adapter_->Apply(hv, config);
  } else {
    hv.StartVm(config);
  }
  laps.End(kBoot);
  const bool oracle_due =
      kOracleInterval != 0 && executions_ % kOracleInterval == 0;

  if (arch_ == Arch::kIntel) {
    vmx_validator_.set_caps(neco::MakeVmxCapabilities(
        config.features.RestrictedTo(Arch::kIntel)));
    const neco::Vmcs vmcs12 =
        vmx_validator_.GenerateBoundaryState(parts.vmcs_image, parts.mutation);
    if (oracle_due) {
      vmx_oracle_.VerifyOnce(vmcs12);
    }
    laps.End(kValidator);
    const HarnessProgram prog = harness_.BuildIntel(parts.harness, vmcs12);
    program_insns_ += ProgramInsns(prog);
    laps.End(kHarness);
    PlantIntel(hv.guest_memory(), prog, vmcs12, parts.msr_area);
    laps.End(kPlant);
    const bool alive = IntelInit(hv, prog);
    laps.End(kInit);
    if (alive) {
      IntelRuntime(hv, prog);
    }
    laps.End(kRuntime);
  } else {
    const neco::Vmcb vmcb12 =
        svm_validator_.GenerateBoundaryState(parts.vmcs_image, parts.mutation);
    if (oracle_due) {
      svm_oracle_.VerifyOnce(vmcb12);
    }
    laps.End(kValidator);
    const HarnessProgram prog = harness_.BuildAmd(parts.harness, vmcb12);
    program_insns_ += ProgramInsns(prog);
    laps.End(kHarness);
    PlantAmd(hv.guest_memory(), vmcb12, parts.msr_area);
    laps.End(kPlant);
    const bool alive = AmdInit(hv, prog);
    laps.End(kInit);
    if (alive) {
      AmdRuntime(hv, prog);
    }
    laps.End(kRuntime);
  }

  const uint64_t hash = TraceHash(hv.nested_coverage(arch_).DrainTrace());
  hv.sanitizers().Drain();
  laps.End(kCollect);
  return hash;
}

template uint64_t StageReplayer::Execute<true>(const neco::FuzzInput&,
                                               StageNanos*);
template uint64_t StageReplayer::Execute<false>(const neco::FuzzInput&,
                                                StageNanos*);

}  // namespace perfbench
