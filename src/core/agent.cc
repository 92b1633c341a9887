#include "src/core/agent.h"

#include "src/core/partition.h"
#include "src/core/wire.h"

namespace neco {
namespace {

// MSR indices the agent plants in VM-entry MSR-load areas, weighted toward
// the address-typed MSRs whose canonicality handling differs across
// hypervisors (the CVE-2024-21106 surface).
constexpr uint32_t kAreaMsrPool[] = {
    Msr::kKernelGsBase, Msr::kFsBase, Msr::kGsBase,  Msr::kKernelGsBase,
    Msr::kIa32Efer,     Msr::kIa32Pat, Msr::kStar,   Msr::kIa32SysenterEip,
};

constexpr uint64_t kAreaValuePool[] = {
    0x8000000000000000ULL,  // Non-canonical (the CVE trigger).
    0xffff800000000000ULL,  // Canonical kernel-half.
    0x0000800000000000ULL,  // First non-canonical address.
    0,
    ~0ULL,
    Efer::kLme | Efer::kLma,
};

}  // namespace

Agent::Agent(Hypervisor& target, AgentOptions options)
    : target_(target),
      options_(options),
      harness_(HarnessOptions{.enabled = true}),
      fixed_harness_(HarnessOptions{.enabled = false}),
      vmx_validator_(MakeVmxCapabilities(
          DefaultFeatureSet(Arch::kIntel).RestrictedTo(Arch::kIntel))),
      svm_validator_(SvmCaps{}),
      vmx_oracle_(oracle_vmx_cpu_, vmx_validator_),
      svm_oracle_(oracle_svm_cpu_, svm_validator_) {}

void Agent::PlantGuestMemory(const HarnessProgram& prog, const Vmcs* vmcs12,
                             ByteReader& msr_bytes) {
  GuestMemory& mem = target_.guest_memory();
  // VMCS-region revision headers.
  mem.Write32(prog.vmxon_pa, prog.region_revision);
  mem.Write32(prog.vmcs12_pa, prog.region_revision);

  if (vmcs12 == nullptr) {
    return;
  }
  // VM-entry MSR-load area content at the address the VMCS names.
  const uint64_t count = vmcs12->Read(VmcsField::kVmEntryMsrLoadCount);
  const uint64_t base = vmcs12->Read(VmcsField::kVmEntryMsrLoadAddr);
  for (uint64_t i = 0; i < count && i < 16; ++i) {
    MsrAreaEntry e;
    e.index = kAreaMsrPool[msr_bytes.Below(sizeof(kAreaMsrPool) / 4)];
    e.value = msr_bytes.Chance(1, 2)
                  ? kAreaValuePool[msr_bytes.Below(sizeof(kAreaValuePool) / 8)]
                  : msr_bytes.U64();
    WriteMsrAreaEntry(mem, base, i, e);
  }
  // Sprinkle intercept bits over the I/O and MSR bitmaps so bitmap-driven
  // exit decisions see both polarities.
  const uint64_t io_a = vmcs12->Read(VmcsField::kIoBitmapA);
  const uint64_t io_b = vmcs12->Read(VmcsField::kIoBitmapB);
  const uint64_t msr_bm = vmcs12->Read(VmcsField::kMsrBitmap);
  for (int i = 0; i < 8; ++i) {
    mem.SetBit(io_a, msr_bytes.U16() & 0x7fff, true);
    mem.SetBit(io_b, msr_bytes.U16() & 0x7fff, true);
    mem.SetBit(msr_bm, msr_bytes.U16() & 0x3fff, true);
  }
}

void Agent::RunIntel(const FuzzInput& input, const VcpuConfig& config,
                     InputPartition& parts) {
  Vmcs vmcs12;
  if (options_.use_validator) {
    vmx_validator_.set_caps(
        MakeVmxCapabilities(config.features.RestrictedTo(Arch::kIntel)));
    vmcs12 = vmx_validator_.GenerateBoundaryState(parts.vmcs_image,
                                                  parts.mutation);
    if (options_.oracle_interval != 0 &&
        executions_ % options_.oracle_interval == 0) {
      vmx_oracle_.VerifyOnce(vmcs12);
    }
  } else {
    // Validator disabled (Table 3 ablation): fall back to the golden-seed
    // strategy prior fuzzers use — a known-good VMCS with raw input values
    // poked into a handful of fields. No rounding, no boundary targeting.
    vmcs12 = MakeDefaultVmcs();
    const auto table = VmcsFieldTable();
    const size_t overwrites = 1 + parts.vmcs_image.Below(8);
    for (size_t i = 0; i < overwrites; ++i) {
      const VmcsFieldInfo& info = table[parts.vmcs_image.Below(table.size())];
      if (info.group != VmcsFieldGroup::kReadOnlyData) {
        vmcs12.Write(info.field, parts.vmcs_image.U64());
      }
    }
  }

  const ExecutionHarness& h = options_.use_harness ? harness_ : fixed_harness_;
  HarnessProgram prog = h.BuildIntel(parts.harness, vmcs12);
  PlantGuestMemory(prog, &vmcs12, parts.msr_area);

  // --- Initialization phase ---
  for (const VmxInsn& op : prog.vmx_init) {
    target_.HandleVmxInstruction(op);
    if (target_.host_crashed()) {
      return;
    }
  }

  // --- Runtime phase ---
  for (const RuntimeStep& step : prog.runtime) {
    if (target_.host_crashed()) {
      return;
    }
    if (target_.in_l2()) {
      const HandledBy hb =
          target_.HandleGuestInstruction(step.l2, GuestLevel::kL2);
      if (hb == HandledBy::kL1) {
        for (const GuestInsn& insn : step.l1_insns) {
          target_.HandleGuestInstruction(insn, GuestLevel::kL1);
        }
        for (const VmxInsn& wr : step.l1_vmx_writes) {
          target_.HandleVmxInstruction(wr);
        }
        VmxInsn resume;
        resume.op =
            step.resume_with_launch ? VmxOp::kVmlaunch : VmxOp::kVmresume;
        target_.HandleVmxInstruction(resume);
      }
    } else {
      // Entry failed (or L1 never got to L2): let L1 rewrite state and
      // retry the launch — the harness's error-recovery template.
      for (const GuestInsn& insn : step.l1_insns) {
        target_.HandleGuestInstruction(insn, GuestLevel::kL1);
      }
      for (const VmxInsn& wr : step.l1_vmx_writes) {
        target_.HandleVmxInstruction(wr);
      }
      VmxInsn launch;
      launch.op = VmxOp::kVmlaunch;
      target_.HandleVmxInstruction(launch);
    }
  }
}

void Agent::RunAmd(const FuzzInput& input, const VcpuConfig& config,
                   InputPartition& parts) {
  Vmcb vmcb12;
  if (options_.use_validator) {
    vmcb12 = svm_validator_.GenerateBoundaryState(parts.vmcs_image,
                                                  parts.mutation);
    if (options_.oracle_interval != 0 &&
        executions_ % options_.oracle_interval == 0) {
      svm_oracle_.VerifyOnce(vmcb12);
    }
  } else {
    // Golden-seed fallback, as on the Intel side.
    vmcb12 = MakeDefaultVmcb();
    const auto table = VmcbFieldTable();
    const size_t overwrites = 1 + parts.vmcs_image.Below(8);
    for (size_t i = 0; i < overwrites; ++i) {
      const VmcbFieldInfo& info = table[parts.vmcs_image.Below(table.size())];
      vmcb12.Write(info.field, parts.vmcs_image.U64());
    }
  }

  const ExecutionHarness& h = options_.use_harness ? harness_ : fixed_harness_;
  HarnessProgram prog = h.BuildAmd(parts.harness, vmcb12);
  // MSR permission / IO permission maps in guest memory.
  GuestMemory& mem = target_.guest_memory();
  for (int i = 0; i < 8; ++i) {
    mem.SetBit(vmcb12.Read(VmcbField::kIopmBasePa),
               parts.msr_area.U16() & 0x7fff, true);
    mem.SetBit(vmcb12.Read(VmcbField::kMsrpmBasePa),
               parts.msr_area.U16() & 0x7fff, true);
  }

  for (const GuestInsn& insn : prog.l1_pre_init) {
    target_.HandleGuestInstruction(insn, GuestLevel::kL1);
  }
  for (const SvmInsn& op : prog.svm_init) {
    target_.HandleSvmInstruction(op);
    if (target_.host_crashed()) {
      return;
    }
  }

  SvmInsn rerun;
  rerun.op = SvmOp::kVmrun;
  rerun.operand = prog.vmcb12_pa;
  for (const RuntimeStep& step : prog.runtime) {
    if (target_.host_crashed()) {
      return;
    }
    if (target_.in_l2()) {
      const HandledBy hb =
          target_.HandleGuestInstruction(step.l2, GuestLevel::kL2);
      if (hb == HandledBy::kL1) {
        for (const GuestInsn& insn : step.l1_insns) {
          target_.HandleGuestInstruction(insn, GuestLevel::kL1);
        }
        for (const SvmInsn& wr : step.l1_svm_writes) {
          target_.HandleSvmInstruction(wr);
        }
        target_.HandleSvmInstruction(rerun);
      }
    } else {
      for (const GuestInsn& insn : step.l1_insns) {
        target_.HandleGuestInstruction(insn, GuestLevel::kL1);
      }
      for (const SvmInsn& wr : step.l1_svm_writes) {
        target_.HandleSvmInstruction(wr);
      }
      target_.HandleSvmInstruction(rerun);
    }
  }
}

ExecFeedback Agent::ExecuteOne(const FuzzInput& input) {
  ++executions_;
  // Watchdog: if the previous test case took the host down, restart it
  // before this one (paper Section 3.2).
  if (target_.host_crashed()) {
    target_.RestartHost();
    ++watchdog_restarts_;
  }

  InputPartition parts(input);
  VcpuConfig config = VcpuConfig::Default(options_.arch);
  if (options_.use_configurator) {
    config = configurator_.Generate(parts.config, options_.arch);
  }
  // Module reload + VM boot, on every test case (paper Section 4.5).
  target_.StartVm(config);

  if (options_.arch == Arch::kIntel) {
    RunIntel(input, config, parts);
  } else {
    RunAmd(input, config, parts);
  }

  ExecFeedback feedback;
  feedback.edges = target_.nested_coverage(options_.arch).DrainTrace();
  for (AnomalyReport& report : target_.sanitizers().Drain()) {
    if (!feedback.anomaly) {
      feedback.anomaly = true;
      feedback.anomaly_id = report.bug_id;
    }
    findings_.try_emplace(report.bug_id, report);
  }
  return feedback;
}

void Agent::ExportState(WorkerStateRecord* out) const {
  out->executions = executions_;
  out->watchdog_restarts = watchdog_restarts_;
  out->findings.clear();
  out->findings.reserve(findings_.size());
  for (const auto& [id, report] : findings_) {
    out->findings.push_back(report);
  }
  // std::set iteration is sorted, so the quirk tables serialize in a
  // deterministic order.
  out->vmx_suppressed_checks.clear();
  for (CheckId check : vmx_validator_.quirks().suppressed_checks) {
    out->vmx_suppressed_checks.push_back(static_cast<uint16_t>(check));
  }
  out->vmx_learned_fixups.clear();
  for (VmxFixupId fixup : vmx_validator_.quirks().learned_fixups) {
    out->vmx_learned_fixups.push_back(static_cast<uint8_t>(fixup));
  }
  out->svm_suppressed_checks.clear();
  for (CheckId check : svm_validator_.quirks().suppressed_checks) {
    out->svm_suppressed_checks.push_back(static_cast<uint16_t>(check));
  }
}

void Agent::ImportState(const WorkerStateRecord& record) {
  executions_ = record.executions;
  watchdog_restarts_ = record.watchdog_restarts;
  findings_.clear();
  for (const AnomalyReport& report : record.findings) {
    findings_.emplace(report.bug_id, report);
  }
  VmxQuirkTable& vmx = vmx_validator_.quirks();
  vmx.suppressed_checks.clear();
  vmx.learned_fixups.clear();
  for (uint16_t check : record.vmx_suppressed_checks) {
    vmx.suppressed_checks.insert(static_cast<CheckId>(check));
  }
  for (uint8_t fixup : record.vmx_learned_fixups) {
    vmx.learned_fixups.insert(static_cast<VmxFixupId>(fixup));
  }
  SvmQuirkTable& svm = svm_validator_.quirks();
  svm.suppressed_checks.clear();
  for (uint16_t check : record.svm_suppressed_checks) {
    svm.suppressed_checks.insert(static_cast<CheckId>(check));
  }
}

}  // namespace neco
