// The simulated Oracle VirtualBox host hypervisor (L0 fuzz target).
//
// VirtualBox's nested VMX (VMM/VMMR0/HMVMXR0 + IEM nested-VMX code) is
// modelled as a single engine; it is Intel-only, like the original. The
// re-seeded vulnerability is CVE-2024-21106: during nested VM entry the
// VM-entry MSR-load area is applied to real MSRs without validating that
// address-typed MSR values are canonical. Loading a non-canonical value
// into MSR_K8_KERNEL_GS_BASE raises a general-protection fault in the
// host ("general protection fault, probably for non-canonical address"),
// killing the VM process.
#ifndef SRC_HV_SIM_VBOX_VBOX_H_
#define SRC_HV_SIM_VBOX_VBOX_H_

#include <cstdint>
#include <map>

#include "src/arch/vmcs.h"
#include "src/arch/vmx_caps.h"
#include "src/cpu/vmx_cpu.h"
#include "src/hv/coverage.h"
#include "src/hv/hypervisor.h"

namespace neco {

extern const size_t kVboxNestedVmxCoveragePoints;

class SimVbox : public Hypervisor {
 public:
  SimVbox();

  std::string_view name() const override { return "virtualbox"; }
  Arch arch() const override { return Arch::kIntel; }
  void StartVm(const VcpuConfig& config) override;
  VmxEmuResult HandleVmxInstruction(const VmxInsn& insn) override;
  SvmEmuResult HandleSvmInstruction(const SvmInsn& insn) override;
  HandledBy HandleGuestInstruction(const GuestInsn& insn,
                                   GuestLevel level) override;
  bool in_l2() const override { return in_l2_; }
  CoverageUnit& nested_coverage(Arch arch) override { return cov_; }

  // True once the VM process has been killed by a host fault; further
  // guest activity is impossible until StartVm.
  bool vm_dead() const { return vm_dead_; }

 private:
  static constexpr uint64_t kNoPtr = ~0ULL;

  bool CheckPermission();
  bool IemCheckControls(const Vmcs& v12);
  bool IemCheckGuest(const Vmcs& v12);
  // The vulnerable routine: applies the VM-entry MSR-load area.
  bool LoadEntryMsrs(const Vmcs& v12);
  VmxEmuResult VmlaunchVmresume(bool launch);
  void ReflectExit(ExitReason reason, uint64_t qual);

  VmxCpu vmx_cpu_;
  CoverageUnit cov_;
  VcpuConfig config_;
  VmxCapabilities nested_caps_;

  bool vmxon_ = false;
  uint64_t vmxon_ptr_ = kNoPtr;
  uint64_t current_ptr_ = kNoPtr;
  std::map<uint64_t, Vmcs> vmcs12_cache_;
  std::map<uint64_t, bool> launched_;
  // The L0 container VMCS for the L1 guest, built once at boot (same
  // fidelity as KVM's vmcs01) and copied into vmcs02 per nested entry.
  // Never written after StartVm.
  Vmcs vmcs01_;
  Vmcs vmcs02_;
  bool in_l2_ = false;
  bool vm_dead_ = false;
};

}  // namespace neco

#endif  // SRC_HV_SIM_VBOX_VBOX_H_
