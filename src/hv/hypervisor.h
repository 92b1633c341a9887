// Abstract L0 hypervisor — the fuzz target.
//
// A Hypervisor owns the nested-virtualization emulation state for one guest
// VM (the fuzz-harness VM): the VMCS01/VMCS02 pair (or VMCB equivalents),
// its cached copy of the L1-provided VMCS12/VMCB12, and the physical-CPU
// handle it runs on. The harness calls HandleVmxInstruction /
// HandleSvmInstruction for hardware-assisted virtualization instructions
// executed by L1, and HandleGuestInstruction for ordinary exit-triggering
// instructions in L1 or L2 context.
//
// Coverage (per nested-virtualization "source file") and sanitizer reports
// accumulate across VM restarts so a fuzzing campaign can aggregate them.
#ifndef SRC_HV_HYPERVISOR_H_
#define SRC_HV_HYPERVISOR_H_

#include <cstdint>
#include <memory>
#include <string_view>

#include "src/hv/coverage.h"
#include "src/hv/guest_insn.h"
#include "src/hv/guest_memory.h"
#include "src/hv/sanitizer.h"
#include "src/hv/vcpu_config.h"

namespace neco {

// Result of emulating one L1 virtualization instruction.
struct VmxEmuResult {
  bool ok = false;          // Instruction succeeded from L1's view.
  bool entered_l2 = false;  // vmlaunch/vmresume reached L2.
  uint64_t read_value = 0;  // For vmread/vmptrst.
};

struct SvmEmuResult {
  bool ok = false;
  bool entered_l2 = false;
};

class Hypervisor {
 public:
  virtual ~Hypervisor() = default;

  virtual std::string_view name() const = 0;
  virtual Arch arch() const = 0;

  // (Re)start the guest VM with the given vCPU configuration. Models a
  // module reload plus VM boot; clears per-VM nested state but preserves
  // accumulated coverage. The agent boots every test case this way on a
  // VM the previous one dirtied, so the boot must leave nothing of the
  // VM's history behind: what follows depends on `config` alone.
  virtual void StartVm(const VcpuConfig& config) = 0;

  // L1 hypervisor instruction emulation.
  virtual VmxEmuResult HandleVmxInstruction(const VmxInsn& insn) = 0;
  virtual SvmEmuResult HandleSvmInstruction(const SvmInsn& insn) = 0;

  // Ordinary instruction executed at the given level; returns who handled
  // the resulting VM exit (if any).
  virtual HandledBy HandleGuestInstruction(const GuestInsn& insn,
                                           GuestLevel level) = 0;

  // True while the nested L2 guest is the running context.
  virtual bool in_l2() const = 0;

  // Nested-virtualization coverage of this hypervisor for the given vendor
  // (the analog of vmx/nested.c vs svm/nested.c).
  virtual CoverageUnit& nested_coverage(Arch arch) = 0;

  // L1 guest-physical memory (harness-writable, hypervisor-readable).
  GuestMemory& guest_memory() { return guest_memory_; }

  SanitizerSink& sanitizers() { return sanitizers_; }

  // Host-crash handling (paper Section 3.2's watchdog): a triggered bug may
  // take down the L0 hypervisor; the agent detects this and restarts it.
  bool host_crashed() const { return host_crashed_; }

  void RestartHost() {
    host_crashed_ = false;
    ++host_restarts_;
  }

  uint64_t host_restarts() const { return host_restarts_; }

  // Snapshot restore: reinstates the watchdog's accumulated view (crash
  // flag + restart counter) so a resumed campaign continues the exact
  // restart bookkeeping of the interrupted one.
  void RestoreHostCrashState(bool crashed, uint64_t restarts) {
    host_crashed_ = crashed;
    host_restarts_ = restarts;
  }

 protected:
  void MarkHostCrashed() { host_crashed_ = true; }

  GuestMemory guest_memory_;
  SanitizerSink sanitizers_;
  bool host_crashed_ = false;
  uint64_t host_restarts_ = 0;
};

}  // namespace neco

#endif  // SRC_HV_HYPERVISOR_H_
