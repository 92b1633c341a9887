#include "src/hv/sim_kvm/kvm.h"

namespace neco {

SimKvm::SimKvm()
    : vmx_cov_("kvm/vmx/nested.c", kKvmNestedVmxCoveragePoints),
      svm_cov_("kvm/svm/nested.c", kKvmNestedSvmCoveragePoints),
      config_(VcpuConfig::Default(Arch::kIntel)),
      nested_vmx_(vmx_cov_, sanitizers_, guest_memory_, vmx_cpu_),
      nested_svm_(svm_cov_, sanitizers_, guest_memory_, svm_cpu_) {}

void SimKvm::StartVm(const VcpuConfig& config) {
  config_ = config;
  guest_memory_.Clear();
  if (config.arch == Arch::kIntel) {
    nested_vmx_.Reset(config);
  } else {
    nested_svm_.Reset(config);
  }
}

VmxEmuResult SimKvm::HandleVmxInstruction(const VmxInsn& insn) {
  if (config_.arch != Arch::kIntel || host_crashed_) {
    return {};
  }
  return nested_vmx_.HandleInstruction(insn);
}

SvmEmuResult SimKvm::HandleSvmInstruction(const SvmInsn& insn) {
  if (config_.arch != Arch::kAmd || host_crashed_) {
    return {};
  }
  return nested_svm_.HandleInstruction(insn);
}

HandledBy SimKvm::HandleGuestInstruction(const GuestInsn& insn,
                                         GuestLevel level) {
  if (host_crashed_) {
    return HandledBy::kHostCrash;
  }
  if (config_.arch == Arch::kIntel) {
    return level == GuestLevel::kL2 ? nested_vmx_.HandleL2Instruction(insn)
                                    : nested_vmx_.HandleL1Instruction(insn);
  }
  return level == GuestLevel::kL2 ? nested_svm_.HandleL2Instruction(insn)
                                  : nested_svm_.HandleL1Instruction(insn);
}

bool SimKvm::in_l2() const {
  return config_.arch == Arch::kIntel ? nested_vmx_.in_l2()
                                      : nested_svm_.in_l2();
}

CoverageUnit& SimKvm::nested_coverage(Arch arch) {
  return arch == Arch::kIntel ? vmx_cov_ : svm_cov_;
}

uint64_t SimKvm::IoctlGetNestedState() {
  return config_.arch == Arch::kIntel ? nested_vmx_.IoctlGetNestedState()
                                      : nested_svm_.IoctlGetNestedState();
}

bool SimKvm::IoctlSetNestedState(uint64_t blob) {
  return config_.arch == Arch::kIntel
             ? nested_vmx_.IoctlSetNestedState(blob)
             : nested_svm_.IoctlSetNestedState(blob);
}

void SimKvm::IoctlLeaveNested() {
  if (config_.arch == Arch::kIntel) {
    nested_vmx_.IoctlLeaveNested();
  }
}

}  // namespace neco
