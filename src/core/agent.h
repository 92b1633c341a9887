// The agent program (paper Section 4.5): the central coordinator between
// the fuzzer (AFL++ role), the fuzz-harness VM, and the target L0
// hypervisor.
//
// Per test case the agent:
//  1. partitions the 2 KiB fuzzing input among the VM-generator
//     components,
//  2. boots the fuzz-harness VM with the generated vCPU configuration
//     (StartVm: module reload + VM boot),
//  3. embeds the generated VM state and harness program into the
//     fuzz-harness VM (revision word, MSR-load area and bitmap content in
//     guest memory; VMCS12/VMCB12 via emulated vmwrite),
//  4. drives the two-phase execution, collecting the coverage trace,
//  5. collects sanitizer reports and watches for host crashes,
//     restarting the hypervisor when the watchdog fires.
//
// The agent keeps each new finding's report; the fuzzer keeps the input
// that produced it. A campaign persists crashes in one place, the
// CrashStore under its state dir (src/core/state/journal.h).
//
// The three VM-generator components can be disabled independently for the
// Table 3 / Figure 4 ablations.
#ifndef SRC_CORE_AGENT_H_
#define SRC_CORE_AGENT_H_

#include <cstdint>
#include <map>
#include <string>

#include "src/core/config/configurator.h"
#include "src/core/harness/harness.h"
#include "src/core/partition.h"
#include "src/core/validator/oracle.h"
#include "src/core/validator/vmcb_validator.h"
#include "src/core/validator/vmcs_validator.h"
#include "src/fuzz/fuzzer.h"
#include "src/hv/hypervisor.h"

namespace neco {

struct AgentOptions {
  Arch arch = Arch::kIntel;
  // Component toggles (Table 3 ablation).
  bool use_harness = true;
  bool use_validator = true;
  bool use_configurator = true;
  // Verify the validator against the physical CPU every N executions
  // (0 disables oracle self-correction).
  uint32_t oracle_interval = 64;
};

class Agent {
 public:
  // The agent owns a physical-CPU instance for the oracle loop: the
  // validator writes candidate states to the real CPU and compares
  // behaviour, independent of whichever CPU the target hypervisor runs on
  // (the hardware model is the same silicon).
  Agent(Hypervisor& target, AgentOptions options);

  // Run one 2 KiB test case end to end.
  ExecFeedback ExecuteOne(const FuzzInput& input);

  // Executor adapter for the Fuzzer.
  Executor MakeExecutor() {
    return [this](const FuzzInput& input) { return ExecuteOne(input); };
  }

  // Unique findings so far (deduplicated by bug id).
  const std::map<std::string, AnomalyReport>& findings() const {
    return findings_;
  }

  uint64_t executions() const { return executions_; }
  uint64_t watchdog_restarts() const { return watchdog_restarts_; }
  const OracleStats& vmx_oracle_stats() const { return vmx_oracle_.stats(); }

  // --- Materialized snapshots (src/core/state/snapshot.h) ---
  //
  // Fills / restores the agent section of a WorkerStateRecord: the
  // execution counters (executions preserves the oracle-interval phase
  // exactly), the deduplicated findings map, and the oracle-learned quirk
  // tables that shape every subsequent GenerateBoundaryState. Oracle stats
  // are deliberately not state: results are invariant to them, exactly
  // as they are across a replay resume.
  void ExportState(WorkerStateRecord* out) const;
  void ImportState(const WorkerStateRecord& record);

 private:
  void RunIntel(const FuzzInput& input, const VcpuConfig& config,
                InputPartition& parts);
  void RunAmd(const FuzzInput& input, const VcpuConfig& config,
              InputPartition& parts);
  void PlantGuestMemory(const HarnessProgram& prog, const Vmcs* vmcs12,
                        ByteReader& msr_bytes);

  Hypervisor& target_;
  AgentOptions options_;
  VcpuConfigurator configurator_;
  ExecutionHarness harness_;
  ExecutionHarness fixed_harness_;  // For the w/o-harness ablation.

  VmxCpu oracle_vmx_cpu_;
  SvmCpu oracle_svm_cpu_;
  VmcsValidator vmx_validator_;
  VmcbValidator svm_validator_;
  VmxHardwareOracle vmx_oracle_;
  SvmHardwareOracle svm_oracle_;

  std::map<std::string, AnomalyReport> findings_;
  uint64_t executions_ = 0;
  uint64_t watchdog_restarts_ = 0;
};

}  // namespace neco

#endif  // SRC_CORE_AGENT_H_
