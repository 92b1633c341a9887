// The simulated Xen host hypervisor (L0 fuzz target).
//
// The nested VMX engine is the analog of xen/arch/x86/hvm/vmx/vvmx.c and
// the nested SVM engine of xen/arch/x86/hvm/svm/nestedsvm.c — the files the
// paper measures Xen coverage over (Table 4). Xen's nested code is leaner
// than KVM's and leans harder on hardware to reject bad states, which is
// precisely where its three re-seeded bugs live:
//
//  * Bug X1 (Intel, fixed upstream): nvmx_update_apic/activity logic copies
//    the VMCS12 activity state into VMCS02 without sanitizing. An L1 that
//    sets WAIT-FOR-SIPI (3) or SHUTDOWN (2) wedges the whole host.
//  * Bug X2 (AMD, gitlab issue 216): a VMCB12 with EFER.LME=1, CR0.PG=0 —
//    accepted by hardware, ambiguous in the APM — corrupts the nested
//    state and erroneously enables AVIC in VMCB02; the subsequent
//    AVIC_NOACCEL exit hits BUG().
//  * Bug X3 (AMD, gitlab issue 215): when a VMRUN fails and the exit is
//    injected back into L1, nsvm_vcpu_vmexit_inject() asserts that the
//    virtual GIF is set whenever VGIF is enabled; an L1 that enables VGIF
//    with the GIF value bit clear trips the assertion.
#ifndef SRC_HV_SIM_XEN_XEN_H_
#define SRC_HV_SIM_XEN_XEN_H_

#include <cstdint>
#include <map>

#include "src/arch/vmcb.h"
#include "src/arch/vmcs.h"
#include "src/arch/vmx_caps.h"
#include "src/cpu/svm_cpu.h"
#include "src/cpu/vmx_cpu.h"
#include "src/hv/coverage.h"
#include "src/hv/hypervisor.h"

namespace neco {

extern const size_t kXenNestedVmxCoveragePoints;
extern const size_t kXenNestedSvmCoveragePoints;

class XenNestedVmx {
 public:
  XenNestedVmx(CoverageUnit& cov, SanitizerSink& san, GuestMemory& mem,
               VmxCpu& cpu, bool* host_crashed);
  void Reset(const VcpuConfig& config);

  VmxEmuResult HandleInstruction(const VmxInsn& insn);
  HandledBy HandleL2Instruction(const GuestInsn& insn);
  HandledBy HandleL1Instruction(const GuestInsn& insn);
  bool in_l2() const { return in_l2_; }

 private:
  static constexpr uint64_t kNoPtr = ~0ULL;

  bool CheckPermission();
  bool NvmxCheckControls(const Vmcs& v12);
  bool NvmxCheckHost(const Vmcs& v12);
  bool NvmxCheckGuest(const Vmcs& v12);
  void LoadVvmcs(const Vmcs& v12);
  VmxEmuResult VirtualVmentry(bool launch);
  void VirtualVmexit(ExitReason reason, uint64_t qual);
  bool InterceptedByL1(const GuestInsn& insn, ExitReason* reason);

  CoverageUnit& cov_;
  SanitizerSink& san_;
  GuestMemory& mem_;
  VmxCpu& cpu_;
  bool* host_crashed_;

  VcpuConfig config_;
  VmxCapabilities nested_caps_;
  bool vmxon_ = false;
  uint64_t vmxon_ptr_ = kNoPtr;
  uint64_t vvmcs_ptr_ = kNoPtr;  // Xen's name for the active VMCS12.
  std::map<uint64_t, Vmcs> vvmcs_cache_;
  std::map<uint64_t, bool> launched_;
  // The L0 container VMCS for the L1 guest, built once at boot (same
  // fidelity as KVM's vmcs01) and copied into vmcs02 per nested entry.
  // Never written after Reset.
  Vmcs vmcs01_;
  Vmcs vmcs02_;
  bool in_l2_ = false;
};

class XenNestedSvm {
 public:
  XenNestedSvm(CoverageUnit& cov, SanitizerSink& san, GuestMemory& mem,
               SvmCpu& cpu, bool* host_crashed);
  void Reset(const VcpuConfig& config);
  SvmEmuResult HandleInstruction(const SvmInsn& insn);
  HandledBy HandleL2Instruction(const GuestInsn& insn);
  HandledBy HandleL1Instruction(const GuestInsn& insn);
  bool in_l2() const { return in_l2_; }

 private:
  static constexpr uint64_t kNoPtr = ~0ULL;

  bool CheckPermission();
  bool NsvmCheckControls(const Vmcb& v12);
  void PrepareVmcb02(const Vmcb& v12);
  SvmEmuResult HandleVmrun(uint64_t pa);
  // The vulnerable exit-injection path (bug X3 lives here).
  void NsvmVcpuVmexitInject(SvmExitCode code);

  CoverageUnit& cov_;
  SanitizerSink& san_;
  GuestMemory& mem_;
  SvmCpu& cpu_;
  bool* host_crashed_;

  VcpuConfig config_;
  bool l1_svme_ = false;
  std::map<uint64_t, Vmcb> vmcb12_cache_;
  uint64_t current_vmcb12_ = kNoPtr;
  Vmcb vmcb02_;
  bool in_l2_ = false;
  bool l2_was_long_mode_ = false;  // Set after a 64-bit L2 ran (bug X2).
};

class SimXen : public Hypervisor {
 public:
  SimXen();

  std::string_view name() const override { return "xen"; }
  Arch arch() const override { return config_.arch; }
  void StartVm(const VcpuConfig& config) override;
  VmxEmuResult HandleVmxInstruction(const VmxInsn& insn) override;
  SvmEmuResult HandleSvmInstruction(const SvmInsn& insn) override;
  HandledBy HandleGuestInstruction(const GuestInsn& insn,
                                   GuestLevel level) override;
  bool in_l2() const override;
  CoverageUnit& nested_coverage(Arch arch) override;

 private:
  VmxCpu vmx_cpu_;
  SvmCpu svm_cpu_;
  CoverageUnit vmx_cov_;
  CoverageUnit svm_cov_;
  VcpuConfig config_;
  XenNestedVmx nested_vmx_;
  XenNestedSvm nested_svm_;
};

}  // namespace neco

#endif  // SRC_HV_SIM_XEN_XEN_H_
