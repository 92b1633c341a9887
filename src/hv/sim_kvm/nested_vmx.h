// KVM-shaped nested VMX emulation — the analog of Linux
// arch/x86/kvm/vmx/nested.c, which is the exact file the paper measures
// Intel-side coverage over (Section 5.1).
//
// Structure mirrors the original: per-instruction handlers (handle_vmxon,
// handle_vmclear, handle_vmptrld, handle_vmread/vmwrite, ...), the VMCS12
// consistency checks (nested_vmx_check_controls / _host_state /
// _guest_state), VMCS02 preparation, nested VM-exit reflection and the
// VMCS12<-VMCS02 sync on exit. Two real KVM vulnerabilities are re-seeded:
//
//  * Bug K1 (CVE-2023-30456): with EPT disabled (shadow paging), a VMCS12
//    with "IA-32e mode guest" set but guest CR4.PAE clear passes every
//    consistency check (hardware silently tolerates the combination), yet
//    the shadow-MMU root-level computation trusts CR4.PAE literally and
//    indexes the page-walk array out of bounds -> UBSAN.
//  * Bug K2 (dummy-root bug, fixed by Linux commit 0e3223d8d): a VMCS12
//    EPTP whose address exceeds the physical address width passes
//    nested_vmx_check_eptp (range check missing) but fails mmu_check_root
//    later; KVM then synthesizes a triple-fault VM exit to L1 although L2
//    never ran -> internal assertion.
#ifndef SRC_HV_SIM_KVM_NESTED_VMX_H_
#define SRC_HV_SIM_KVM_NESTED_VMX_H_

#include <cstdint>
#include <map>

#include "src/arch/vmcs.h"
#include "src/arch/vmx_caps.h"
#include "src/cpu/vmx_cpu.h"
#include "src/hv/coverage.h"
#include "src/hv/guest_insn.h"
#include "src/hv/guest_memory.h"
#include "src/hv/hypervisor.h"
#include "src/hv/sanitizer.h"
#include "src/hv/vcpu_config.h"

namespace neco {

// Total NVCOV points in nested_vmx.cc (defined at the end of that TU).
extern const size_t kKvmNestedVmxCoveragePoints;

class KvmNestedVmx {
 public:
  KvmNestedVmx(CoverageUnit& cov, SanitizerSink& san, GuestMemory& mem,
               VmxCpu& cpu);

  // Module reload + VM boot with a fresh configuration.
  void Reset(const VcpuConfig& config);

  VmxEmuResult HandleInstruction(const VmxInsn& insn);
  HandledBy HandleL2Instruction(const GuestInsn& insn);
  HandledBy HandleL1Instruction(const GuestInsn& insn);
  bool in_l2() const { return in_l2_; }

  // Host-side ioctl surface (KVM_GET/SET_NESTED_STATE and friends).
  // Reachable only from the host — never from guest-driven fuzzing — and
  // therefore part of the coverage the paper classifies as out of scope
  // for its threat model (Section 5.2's first uncovered category).
  uint64_t IoctlGetNestedState();
  bool IoctlSetNestedState(uint64_t blob);
  void IoctlLeaveNested();

  // Test hook: the cached VMCS12, if any.
  const Vmcs* current_vmcs12() const;

 private:
  struct CachedVmcs12 {
    Vmcs vmcs;
    bool launched = false;
  };

  static constexpr uint64_t kNoPtr = ~0ULL;

  // nested.c-style internals.
  bool NestedVmxCheckPermission();
  bool CheckVmControls(const Vmcs& v12);
  bool CheckHostStateArea(const Vmcs& v12);
  bool CheckGuestStateArea(const Vmcs& v12, CheckId* failed);
  bool CheckEntryMsrLoadArea(const Vmcs& v12);
  bool NestedVmxCheckEptp(uint64_t eptp);
  bool MmuCheckRoot(uint64_t root_gpa);
  void PrepareVmcs02(const Vmcs& v12);
  void LoadShadowMmu(const Vmcs& v12);
  VmxEmuResult NestedVmxRun(bool launch);
  void NestedVmxVmexit(ExitReason reason, uint64_t qualification);
  void SyncVmcs02ToVmcs12();
  void LoadVmcs12HostState();
  bool ShouldReflectToL1(const GuestInsn& insn, ExitReason* reason);
  HandledBy HandleByL0(const GuestInsn& insn);

  VmxEmuResult HandleVmxon(uint64_t pa);
  VmxEmuResult HandleVmxoff();
  VmxEmuResult HandleVmclear(uint64_t pa);
  VmxEmuResult HandleVmptrld(uint64_t pa);
  VmxEmuResult HandleVmptrst();
  VmxEmuResult HandleVmwrite(VmcsField field, uint64_t value);
  VmxEmuResult HandleVmread(VmcsField field);
  VmxEmuResult HandleInvept(uint64_t type);
  VmxEmuResult HandleInvvpid(uint64_t type);

  CoverageUnit& cov_;
  SanitizerSink& san_;
  GuestMemory& mem_;
  VmxCpu& cpu_;

  VcpuConfig config_;
  VmxCapabilities nested_caps_;  // What L0 advertises to L1.

  bool vmxon_ = false;
  uint64_t vmxon_ptr_ = kNoPtr;
  uint64_t current_ptr_ = kNoPtr;
  std::map<uint64_t, CachedVmcs12> vmcs12_cache_;

  Vmcs vmcs01_;
  Vmcs vmcs02_;
  bool in_l2_ = false;
  bool l2_ever_ran_ = false;
  // Fault-injection hook kept for parity with error-injection kernel
  // builds; never set during normal fuzzing.
  bool host_note_pending_ = false;
};

}  // namespace neco

#endif  // SRC_HV_SIM_KVM_NESTED_VMX_H_
