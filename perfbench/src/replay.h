// Stage replay: runs recorded fuzz inputs through the public calls of each
// exec-core layer, in the order Agent::ExecuteOne makes them, with a span
// around each call. The agent itself is never instrumented; instead the
// replay must reproduce the edge trace ExecuteOne returned for the same
// input, which the traced run checks exec by exec.
//
// One private agent step has no public entry point: planting the VMCS12's
// MSR-load area and I/O / MSR bitmaps in guest memory
// (Agent::PlantGuestMemory, and the bitmap loop in the AMD path). The
// replay carries its own copy of that step, so agent.plant_us times the
// benchmark's copy; a change to the agent's step shows up as replay
// mismatches rather than as a silently different timing.
#ifndef PERFBENCH_SRC_REPLAY_H_
#define PERFBENCH_SRC_REPLAY_H_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "src/core/config/configurator.h"
#include "src/core/harness/harness.h"
#include "src/core/validator/oracle.h"
#include "src/core/validator/vmcb_validator.h"
#include "src/core/validator/vmcs_validator.h"
#include "src/cpu/svm_cpu.h"
#include "src/cpu/vmx_cpu.h"
#include "src/fuzz/mutator.h"
#include "src/hv/factory.h"

namespace perfbench {

// The spans of one replayed exec, in call order.
enum Stage : size_t {
  kPartition,  // InputPartition
  kConfig,     // VcpuConfigurator::Generate
  kBoot,       // HypervisorAdapter::Apply (StartVm)
  kValidator,  // caps + GenerateBoundaryState + periodic oracle check
  kHarness,    // ExecutionHarness::Build{Intel,Amd}
  kPlant,      // the benchmark's copy of the guest-memory plant step
  kInit,       // Handle*Instruction over the init phase
  kRuntime,    // Handle*Instruction over the runtime phase
  kCollect,    // coverage trace drain + sanitizer drain
  kStageCount,
};

using StageNanos = std::array<uint64_t, kStageCount>;

class StageReplayer {
 public:
  // A fresh exec-core stack, configured like a default Agent.
  StageReplayer(const neco::HypervisorFactory& factory, neco::Arch arch);

  // Replays one input and returns the FNV-1a hash of its edge trace. With
  // kTraced, adds each stage's wall time to `*spans`.
  template <bool kTraced>
  uint64_t Execute(const neco::FuzzInput& input, StageNanos* spans);

  // Instructions in the harness programs built so far.
  uint64_t program_insns() const { return program_insns_; }

 private:
  std::unique_ptr<neco::Hypervisor> hv_;
  std::unique_ptr<neco::HypervisorAdapter> adapter_;
  neco::Arch arch_;
  neco::VcpuConfigurator configurator_;
  neco::ExecutionHarness harness_;
  neco::VmxCpu oracle_vmx_cpu_;
  neco::SvmCpu oracle_svm_cpu_;
  neco::VmcsValidator vmx_validator_;
  neco::VmcbValidator svm_validator_;
  neco::VmxHardwareOracle vmx_oracle_;
  neco::SvmHardwareOracle svm_oracle_;
  uint64_t executions_ = 0;
  uint64_t program_insns_ = 0;
};

// Hash of an edge trace (what the replay compares against the agent).
uint64_t TraceHash(const std::vector<uint32_t>& edges);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_REPLAY_H_
