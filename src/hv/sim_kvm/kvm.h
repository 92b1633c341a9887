// The simulated KVM host hypervisor (L0 fuzz target).
//
// Combines the nested VMX and nested SVM engines behind the Hypervisor
// interface, owns the simulated physical CPUs, and models KVM's module
// parameters (kvm-intel.ko / kvm-amd.ko) applied at StartVm time.
#ifndef SRC_HV_SIM_KVM_KVM_H_
#define SRC_HV_SIM_KVM_KVM_H_

#include <memory>

#include "src/cpu/svm_cpu.h"
#include "src/cpu/vmx_cpu.h"
#include "src/hv/hypervisor.h"
#include "src/hv/sim_kvm/nested_svm.h"
#include "src/hv/sim_kvm/nested_vmx.h"

namespace neco {

class SimKvm : public Hypervisor {
 public:
  SimKvm();

  std::string_view name() const override { return "kvm"; }
  Arch arch() const override { return config_.arch; }
  void StartVm(const VcpuConfig& config) override;
  VmxEmuResult HandleVmxInstruction(const VmxInsn& insn) override;
  SvmEmuResult HandleSvmInstruction(const SvmInsn& insn) override;
  HandledBy HandleGuestInstruction(const GuestInsn& insn,
                                   GuestLevel level) override;
  bool in_l2() const override;
  CoverageUnit& nested_coverage(Arch arch) override;

  // Host-side ioctl surface exercised by the selftests baseline only.
  uint64_t IoctlGetNestedState();
  bool IoctlSetNestedState(uint64_t blob);
  void IoctlLeaveNested();

  KvmNestedVmx& nested_vmx() { return nested_vmx_; }
  KvmNestedSvm& nested_svm() { return nested_svm_; }
  VmxCpu& vmx_cpu() { return vmx_cpu_; }
  SvmCpu& svm_cpu() { return svm_cpu_; }

 private:
  VmxCpu vmx_cpu_;
  SvmCpu svm_cpu_;
  CoverageUnit vmx_cov_;
  CoverageUnit svm_cov_;
  VcpuConfig config_;
  KvmNestedVmx nested_vmx_;
  KvmNestedSvm nested_svm_;
};

}  // namespace neco

#endif  // SRC_HV_SIM_KVM_KVM_H_
