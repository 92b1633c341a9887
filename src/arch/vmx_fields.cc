#include "src/arch/vmx_fields.h"

#include <array>

#include "src/arch/field_image.h"

namespace neco {
namespace {

constexpr VmcsFieldInfo MakeInfo(VmcsField f, std::string_view name,
                                 VmcsFieldGroup g, VmcsFieldWidth w,
                                 uint8_t bits) {
  return VmcsFieldInfo{f, name, g, w, bits};
}

// Shorthand for table construction.
constexpr auto kControl = VmcsFieldGroup::kControl;
constexpr auto kGuest = VmcsFieldGroup::kGuestState;
constexpr auto kHost = VmcsFieldGroup::kHostState;
constexpr auto kRo = VmcsFieldGroup::kReadOnlyData;
constexpr auto w16 = VmcsFieldWidth::k16;
constexpr auto w32 = VmcsFieldWidth::k32;
constexpr auto w64 = VmcsFieldWidth::k64;
constexpr auto wNat = VmcsFieldWidth::kNatural;

// The full VMCS layout: 165 fields spanning 8,000 bits, matching the state
// geometry the paper reports for its Hamming-distance analysis (Section
// 5.3.2). Natural-width fields are 64 bits on x86-64.
constexpr std::array<VmcsFieldInfo, VmcsFieldCount()> kTable = {{
    // --- 16-bit control fields ---
    MakeInfo(VmcsField::kVirtualProcessorId, "virtual_processor_id", kControl, w16, 16),
    MakeInfo(VmcsField::kPostedIntrNotificationVector, "posted_intr_nv", kControl, w16, 16),
    MakeInfo(VmcsField::kEptpIndex, "eptp_index", kControl, w16, 16),
    // --- 16-bit guest-state fields ---
    MakeInfo(VmcsField::kGuestEsSelector, "guest_es_selector", kGuest, w16, 16),
    MakeInfo(VmcsField::kGuestCsSelector, "guest_cs_selector", kGuest, w16, 16),
    MakeInfo(VmcsField::kGuestSsSelector, "guest_ss_selector", kGuest, w16, 16),
    MakeInfo(VmcsField::kGuestDsSelector, "guest_ds_selector", kGuest, w16, 16),
    MakeInfo(VmcsField::kGuestFsSelector, "guest_fs_selector", kGuest, w16, 16),
    MakeInfo(VmcsField::kGuestGsSelector, "guest_gs_selector", kGuest, w16, 16),
    MakeInfo(VmcsField::kGuestLdtrSelector, "guest_ldtr_selector", kGuest, w16, 16),
    MakeInfo(VmcsField::kGuestTrSelector, "guest_tr_selector", kGuest, w16, 16),
    MakeInfo(VmcsField::kGuestIntrStatus, "guest_intr_status", kGuest, w16, 16),
    MakeInfo(VmcsField::kGuestPmlIndex, "guest_pml_index", kGuest, w16, 16),
    // --- 16-bit host-state fields ---
    MakeInfo(VmcsField::kHostEsSelector, "host_es_selector", kHost, w16, 16),
    MakeInfo(VmcsField::kHostCsSelector, "host_cs_selector", kHost, w16, 16),
    MakeInfo(VmcsField::kHostSsSelector, "host_ss_selector", kHost, w16, 16),
    MakeInfo(VmcsField::kHostDsSelector, "host_ds_selector", kHost, w16, 16),
    MakeInfo(VmcsField::kHostFsSelector, "host_fs_selector", kHost, w16, 16),
    MakeInfo(VmcsField::kHostGsSelector, "host_gs_selector", kHost, w16, 16),
    MakeInfo(VmcsField::kHostTrSelector, "host_tr_selector", kHost, w16, 16),
    // --- 64-bit control fields ---
    MakeInfo(VmcsField::kIoBitmapA, "io_bitmap_a", kControl, w64, 64),
    MakeInfo(VmcsField::kIoBitmapB, "io_bitmap_b", kControl, w64, 64),
    MakeInfo(VmcsField::kMsrBitmap, "msr_bitmap", kControl, w64, 64),
    MakeInfo(VmcsField::kVmExitMsrStoreAddr, "vm_exit_msr_store_addr", kControl, w64, 64),
    MakeInfo(VmcsField::kVmExitMsrLoadAddr, "vm_exit_msr_load_addr", kControl, w64, 64),
    MakeInfo(VmcsField::kVmEntryMsrLoadAddr, "vm_entry_msr_load_addr", kControl, w64, 64),
    MakeInfo(VmcsField::kExecutiveVmcsPointer, "executive_vmcs_pointer", kControl, w64, 64),
    MakeInfo(VmcsField::kPmlAddress, "pml_address", kControl, w64, 64),
    MakeInfo(VmcsField::kTscOffset, "tsc_offset", kControl, w64, 64),
    MakeInfo(VmcsField::kVirtualApicPageAddr, "virtual_apic_page_addr", kControl, w64, 64),
    MakeInfo(VmcsField::kApicAccessAddr, "apic_access_addr", kControl, w64, 64),
    MakeInfo(VmcsField::kPostedIntrDescAddr, "posted_intr_desc_addr", kControl, w64, 64),
    MakeInfo(VmcsField::kVmFunctionControl, "vm_function_control", kControl, w64, 64),
    MakeInfo(VmcsField::kEptPointer, "ept_pointer", kControl, w64, 64),
    MakeInfo(VmcsField::kEoiExitBitmap0, "eoi_exit_bitmap0", kControl, w64, 64),
    MakeInfo(VmcsField::kEoiExitBitmap1, "eoi_exit_bitmap1", kControl, w64, 64),
    MakeInfo(VmcsField::kEoiExitBitmap2, "eoi_exit_bitmap2", kControl, w64, 64),
    MakeInfo(VmcsField::kEoiExitBitmap3, "eoi_exit_bitmap3", kControl, w64, 64),
    MakeInfo(VmcsField::kEptpListAddress, "eptp_list_address", kControl, w64, 64),
    MakeInfo(VmcsField::kVmreadBitmap, "vmread_bitmap", kControl, w64, 64),
    MakeInfo(VmcsField::kVmwriteBitmap, "vmwrite_bitmap", kControl, w64, 64),
    MakeInfo(VmcsField::kVirtExceptionInfoAddr, "virt_exception_info_addr", kControl, w64, 64),
    MakeInfo(VmcsField::kXssExitBitmap, "xss_exit_bitmap", kControl, w64, 64),
    MakeInfo(VmcsField::kEnclsExitingBitmap, "encls_exiting_bitmap", kControl, w64, 64),
    MakeInfo(VmcsField::kSppTablePointer, "spp_table_pointer", kControl, w64, 64),
    MakeInfo(VmcsField::kTscMultiplier, "tsc_multiplier", kControl, w64, 64),
    MakeInfo(VmcsField::kTertiaryVmExecControl, "tertiary_vm_exec_control", kControl, w64, 64),
    // --- 64-bit read-only data field ---
    MakeInfo(VmcsField::kGuestPhysicalAddress, "guest_physical_address", kRo, w64, 64),
    // --- 64-bit guest-state fields ---
    MakeInfo(VmcsField::kVmcsLinkPointer, "vmcs_link_pointer", kGuest, w64, 64),
    MakeInfo(VmcsField::kGuestIa32Debugctl, "guest_ia32_debugctl", kGuest, w64, 64),
    MakeInfo(VmcsField::kGuestIa32Pat, "guest_ia32_pat", kGuest, w64, 64),
    MakeInfo(VmcsField::kGuestIa32Efer, "guest_ia32_efer", kGuest, w64, 64),
    MakeInfo(VmcsField::kGuestIa32PerfGlobalCtrl, "guest_ia32_perf_global_ctrl", kGuest, w64, 64),
    MakeInfo(VmcsField::kGuestPdptr0, "guest_pdptr0", kGuest, w64, 64),
    MakeInfo(VmcsField::kGuestPdptr1, "guest_pdptr1", kGuest, w64, 64),
    MakeInfo(VmcsField::kGuestPdptr2, "guest_pdptr2", kGuest, w64, 64),
    MakeInfo(VmcsField::kGuestPdptr3, "guest_pdptr3", kGuest, w64, 64),
    MakeInfo(VmcsField::kGuestIa32Bndcfgs, "guest_ia32_bndcfgs", kGuest, w64, 64),
    MakeInfo(VmcsField::kGuestIa32RtitCtl, "guest_ia32_rtit_ctl", kGuest, w64, 64),
    MakeInfo(VmcsField::kGuestIa32LbrCtl, "guest_ia32_lbr_ctl", kGuest, w64, 64),
    // --- 64-bit host-state fields ---
    MakeInfo(VmcsField::kHostIa32Pat, "host_ia32_pat", kHost, w64, 64),
    MakeInfo(VmcsField::kHostIa32Efer, "host_ia32_efer", kHost, w64, 64),
    MakeInfo(VmcsField::kHostIa32PerfGlobalCtrl, "host_ia32_perf_global_ctrl", kHost, w64, 64),
    // --- 32-bit control fields ---
    MakeInfo(VmcsField::kPinBasedVmExecControl, "pin_based_vm_exec_control", kControl, w32, 32),
    MakeInfo(VmcsField::kCpuBasedVmExecControl, "cpu_based_vm_exec_control", kControl, w32, 32),
    MakeInfo(VmcsField::kExceptionBitmap, "exception_bitmap", kControl, w32, 32),
    MakeInfo(VmcsField::kPageFaultErrorCodeMask, "page_fault_error_code_mask", kControl, w32, 32),
    MakeInfo(VmcsField::kPageFaultErrorCodeMatch, "page_fault_error_code_match", kControl, w32, 32),
    MakeInfo(VmcsField::kCr3TargetCount, "cr3_target_count", kControl, w32, 32),
    MakeInfo(VmcsField::kVmExitControls, "vm_exit_controls", kControl, w32, 32),
    MakeInfo(VmcsField::kVmExitMsrStoreCount, "vm_exit_msr_store_count", kControl, w32, 32),
    MakeInfo(VmcsField::kVmExitMsrLoadCount, "vm_exit_msr_load_count", kControl, w32, 32),
    MakeInfo(VmcsField::kVmEntryControls, "vm_entry_controls", kControl, w32, 32),
    MakeInfo(VmcsField::kVmEntryMsrLoadCount, "vm_entry_msr_load_count", kControl, w32, 32),
    MakeInfo(VmcsField::kVmEntryIntrInfoField, "vm_entry_intr_info", kControl, w32, 32),
    MakeInfo(VmcsField::kVmEntryExceptionErrorCode, "vm_entry_exception_error_code", kControl, w32, 32),
    MakeInfo(VmcsField::kVmEntryInstructionLen, "vm_entry_instruction_len", kControl, w32, 32),
    MakeInfo(VmcsField::kTprThreshold, "tpr_threshold", kControl, w32, 32),
    MakeInfo(VmcsField::kSecondaryVmExecControl, "secondary_vm_exec_control", kControl, w32, 32),
    MakeInfo(VmcsField::kPleGap, "ple_gap", kControl, w32, 32),
    MakeInfo(VmcsField::kPleWindow, "ple_window", kControl, w32, 32),
    // --- 32-bit read-only data fields ---
    MakeInfo(VmcsField::kVmInstructionError, "vm_instruction_error", kRo, w32, 32),
    MakeInfo(VmcsField::kVmExitReason, "vm_exit_reason", kRo, w32, 32),
    MakeInfo(VmcsField::kVmExitIntrInfo, "vm_exit_intr_info", kRo, w32, 32),
    MakeInfo(VmcsField::kVmExitIntrErrorCode, "vm_exit_intr_error_code", kRo, w32, 32),
    MakeInfo(VmcsField::kIdtVectoringInfoField, "idt_vectoring_info", kRo, w32, 32),
    MakeInfo(VmcsField::kIdtVectoringErrorCode, "idt_vectoring_error_code", kRo, w32, 32),
    MakeInfo(VmcsField::kVmExitInstructionLen, "vm_exit_instruction_len", kRo, w32, 32),
    MakeInfo(VmcsField::kVmxInstructionInfo, "vmx_instruction_info", kRo, w32, 32),
    // --- 32-bit guest-state fields ---
    MakeInfo(VmcsField::kGuestEsLimit, "guest_es_limit", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestCsLimit, "guest_cs_limit", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestSsLimit, "guest_ss_limit", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestDsLimit, "guest_ds_limit", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestFsLimit, "guest_fs_limit", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestGsLimit, "guest_gs_limit", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestLdtrLimit, "guest_ldtr_limit", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestTrLimit, "guest_tr_limit", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestGdtrLimit, "guest_gdtr_limit", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestIdtrLimit, "guest_idtr_limit", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestEsArBytes, "guest_es_ar_bytes", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestCsArBytes, "guest_cs_ar_bytes", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestSsArBytes, "guest_ss_ar_bytes", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestDsArBytes, "guest_ds_ar_bytes", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestFsArBytes, "guest_fs_ar_bytes", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestGsArBytes, "guest_gs_ar_bytes", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestLdtrArBytes, "guest_ldtr_ar_bytes", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestTrArBytes, "guest_tr_ar_bytes", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestInterruptibilityInfo, "guest_interruptibility_info", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestActivityState, "guest_activity_state", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestSmbase, "guest_smbase", kGuest, w32, 32),
    MakeInfo(VmcsField::kGuestSysenterCs, "guest_sysenter_cs", kGuest, w32, 32),
    MakeInfo(VmcsField::kVmxPreemptionTimerValue, "vmx_preemption_timer_value", kGuest, w32, 32),
    // --- 32-bit host-state field ---
    MakeInfo(VmcsField::kHostIa32SysenterCs, "host_ia32_sysenter_cs", kHost, w32, 32),
    // --- Natural-width control fields ---
    MakeInfo(VmcsField::kCr0GuestHostMask, "cr0_guest_host_mask", kControl, wNat, 64),
    MakeInfo(VmcsField::kCr4GuestHostMask, "cr4_guest_host_mask", kControl, wNat, 64),
    MakeInfo(VmcsField::kCr0ReadShadow, "cr0_read_shadow", kControl, wNat, 64),
    MakeInfo(VmcsField::kCr4ReadShadow, "cr4_read_shadow", kControl, wNat, 64),
    MakeInfo(VmcsField::kCr3TargetValue0, "cr3_target_value0", kControl, wNat, 64),
    MakeInfo(VmcsField::kCr3TargetValue1, "cr3_target_value1", kControl, wNat, 64),
    MakeInfo(VmcsField::kCr3TargetValue2, "cr3_target_value2", kControl, wNat, 64),
    MakeInfo(VmcsField::kCr3TargetValue3, "cr3_target_value3", kControl, wNat, 64),
    // --- Natural-width read-only data fields ---
    MakeInfo(VmcsField::kExitQualification, "exit_qualification", kRo, wNat, 64),
    MakeInfo(VmcsField::kIoRcx, "io_rcx", kRo, wNat, 64),
    MakeInfo(VmcsField::kIoRsi, "io_rsi", kRo, wNat, 64),
    MakeInfo(VmcsField::kIoRdi, "io_rdi", kRo, wNat, 64),
    MakeInfo(VmcsField::kIoRip, "io_rip", kRo, wNat, 64),
    MakeInfo(VmcsField::kGuestLinearAddress, "guest_linear_address", kRo, wNat, 64),
    // --- Natural-width guest-state fields ---
    MakeInfo(VmcsField::kGuestCr0, "guest_cr0", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestCr3, "guest_cr3", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestCr4, "guest_cr4", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestEsBase, "guest_es_base", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestCsBase, "guest_cs_base", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestSsBase, "guest_ss_base", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestDsBase, "guest_ds_base", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestFsBase, "guest_fs_base", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestGsBase, "guest_gs_base", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestLdtrBase, "guest_ldtr_base", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestTrBase, "guest_tr_base", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestGdtrBase, "guest_gdtr_base", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestIdtrBase, "guest_idtr_base", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestDr7, "guest_dr7", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestRsp, "guest_rsp", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestRip, "guest_rip", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestRflags, "guest_rflags", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestPendingDbgExceptions, "guest_pending_dbg_exceptions", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestSysenterEsp, "guest_sysenter_esp", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestSysenterEip, "guest_sysenter_eip", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestSCet, "guest_s_cet", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestSsp, "guest_ssp", kGuest, wNat, 64),
    MakeInfo(VmcsField::kGuestIntrSspTable, "guest_intr_ssp_table", kGuest, wNat, 64),
    // --- Natural-width host-state fields ---
    MakeInfo(VmcsField::kHostCr0, "host_cr0", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostCr3, "host_cr3", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostCr4, "host_cr4", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostFsBase, "host_fs_base", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostGsBase, "host_gs_base", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostTrBase, "host_tr_base", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostGdtrBase, "host_gdtr_base", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostIdtrBase, "host_idtr_base", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostIa32SysenterEsp, "host_ia32_sysenter_esp", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostIa32SysenterEip, "host_ia32_sysenter_eip", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostSCet, "host_s_cet", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostSsp, "host_ssp", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostIntrSspTable, "host_intr_ssp_table", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostRsp, "host_rsp", kHost, wNat, 64),
    MakeInfo(VmcsField::kHostRip, "host_rip", kHost, wNat, 64),
}};

static_assert(WidthsAreWholeBytes(kTable),
              "VMCS field widths must be whole bytes for the image codec");
static_assert(ImageBits(kTable) == VmcsTotalBits(),
              "VmcsTotalBits() disagrees with the field table");

// Encoding -> table index in O(1). The slot key is encoding bits 14:10
// (width class, reserved bit 12, type) over bits 6:1 (the low index bits):
// 32 x 64 slots, each a table index or -1. A lookup then compares the full
// encoding, so a value that aliases an occupied slot still misses.
constexpr size_t kIndexSlots = 2048;

constexpr size_t SlotOf(uint32_t encoding) {
  return ((encoding >> 10) & 0x1f) << 6 | ((encoding >> 1) & 0x3f);
}

constexpr std::array<int16_t, kIndexSlots> BuildIndex() {
  std::array<int16_t, kIndexSlots> slots{};
  slots.fill(-1);
  for (size_t i = 0; i < kTable.size(); ++i) {
    slots[SlotOf(static_cast<uint32_t>(kTable[i].field))] =
        static_cast<int16_t>(i);
  }
  return slots;
}

constexpr std::array<int16_t, kIndexSlots> kIndex = BuildIndex();

// Two encodings sharing a slot would leave the earlier one unreachable.
constexpr bool EveryFieldOwnsItsSlot() {
  for (size_t i = 0; i < kTable.size(); ++i) {
    if (kIndex[SlotOf(static_cast<uint32_t>(kTable[i].field))] !=
        static_cast<int16_t>(i)) {
      return false;
    }
  }
  return true;
}
static_assert(EveryFieldOwnsItsSlot(),
              "two VMCS encodings share an index slot");

}  // namespace

std::span<const VmcsFieldInfo> VmcsFieldTable() { return kTable; }

const VmcsFieldInfo* FindVmcsField(VmcsField field) {
  const int idx = VmcsFieldIndex(field);
  return idx >= 0 ? &kTable[static_cast<size_t>(idx)] : nullptr;
}

const VmcsFieldInfo* FindVmcsField(uint32_t encoding) {
  return FindVmcsField(static_cast<VmcsField>(encoding));
}

int VmcsFieldIndex(VmcsField field) {
  const int idx = kIndex[SlotOf(static_cast<uint32_t>(field))];
  return idx >= 0 && kTable[static_cast<size_t>(idx)].field == field ? idx
                                                                     : -1;
}

VmcsFieldWidth WidthClassOfEncoding(uint32_t encoding) {
  return static_cast<VmcsFieldWidth>((encoding >> 13) & 0x3);
}

bool IsReadOnlyField(VmcsField field) {
  const VmcsFieldInfo* info = FindVmcsField(field);
  return info != nullptr && info->group == VmcsFieldGroup::kReadOnlyData;
}

std::string_view VmcsFieldName(VmcsField field) {
  const VmcsFieldInfo* info = FindVmcsField(field);
  return info != nullptr ? info->name : std::string_view("<unknown>");
}

}  // namespace neco
