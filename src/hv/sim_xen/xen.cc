#include "src/hv/sim_xen/xen.h"

namespace neco {

SimXen::SimXen()
    : vmx_cov_("xen/hvm/vmx/vvmx.c", kXenNestedVmxCoveragePoints),
      svm_cov_("xen/hvm/svm/nestedsvm.c", kXenNestedSvmCoveragePoints),
      config_(VcpuConfig::Default(Arch::kIntel)),
      nested_vmx_(vmx_cov_, sanitizers_, guest_memory_, vmx_cpu_,
                  &host_crashed_),
      nested_svm_(svm_cov_, sanitizers_, guest_memory_, svm_cpu_,
                  &host_crashed_) {}

void SimXen::StartVm(const VcpuConfig& config) {
  config_ = config;
  guest_memory_.Clear();
  if (config.arch == Arch::kIntel) {
    nested_vmx_.Reset(config);
  } else {
    nested_svm_.Reset(config);
  }
}

VmxEmuResult SimXen::HandleVmxInstruction(const VmxInsn& insn) {
  if (config_.arch != Arch::kIntel || host_crashed_) {
    return {};
  }
  return nested_vmx_.HandleInstruction(insn);
}

SvmEmuResult SimXen::HandleSvmInstruction(const SvmInsn& insn) {
  if (config_.arch != Arch::kAmd || host_crashed_) {
    return {};
  }
  return nested_svm_.HandleInstruction(insn);
}

HandledBy SimXen::HandleGuestInstruction(const GuestInsn& insn,
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

bool SimXen::in_l2() const {
  return config_.arch == Arch::kIntel ? nested_vmx_.in_l2()
                                      : nested_svm_.in_l2();
}

CoverageUnit& SimXen::nested_coverage(Arch arch) {
  return arch == Arch::kIntel ? vmx_cov_ : svm_cov_;
}

}  // namespace neco
