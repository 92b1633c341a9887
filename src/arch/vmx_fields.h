// Intel VT-x VMCS field model.
//
// Field encodings follow the Intel SDM Vol. 3 Appendix B layout (the same
// constants Linux carries in arch/x86/include/asm/vmx.h). The table also
// records, per field, the *semantic* bit width used when flattening a VMCS
// into the bit image that the paper's Section 5.3.2 measures Hamming
// distances over ("an 8,000-bit VM state across 165 fields with predefined
// widths").
#ifndef SRC_ARCH_VMX_FIELDS_H_
#define SRC_ARCH_VMX_FIELDS_H_

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace neco {

// VMCS field encodings (Intel SDM Vol. 3, Appendix B).
enum class VmcsField : uint32_t {
  // 16-bit control fields.
  kVirtualProcessorId = 0x0000,
  kPostedIntrNotificationVector = 0x0002,
  kEptpIndex = 0x0004,
  // 16-bit guest-state fields.
  kGuestEsSelector = 0x0800,
  kGuestCsSelector = 0x0802,
  kGuestSsSelector = 0x0804,
  kGuestDsSelector = 0x0806,
  kGuestFsSelector = 0x0808,
  kGuestGsSelector = 0x080a,
  kGuestLdtrSelector = 0x080c,
  kGuestTrSelector = 0x080e,
  kGuestIntrStatus = 0x0810,
  kGuestPmlIndex = 0x0812,
  // 16-bit host-state fields.
  kHostEsSelector = 0x0c00,
  kHostCsSelector = 0x0c02,
  kHostSsSelector = 0x0c04,
  kHostDsSelector = 0x0c06,
  kHostFsSelector = 0x0c08,
  kHostGsSelector = 0x0c0a,
  kHostTrSelector = 0x0c0c,
  // 64-bit control fields.
  kIoBitmapA = 0x2000,
  kIoBitmapB = 0x2002,
  kMsrBitmap = 0x2004,
  kVmExitMsrStoreAddr = 0x2006,
  kVmExitMsrLoadAddr = 0x2008,
  kVmEntryMsrLoadAddr = 0x200a,
  kExecutiveVmcsPointer = 0x200c,
  kPmlAddress = 0x200e,
  kTscOffset = 0x2010,
  kVirtualApicPageAddr = 0x2012,
  kApicAccessAddr = 0x2014,
  kPostedIntrDescAddr = 0x2016,
  kVmFunctionControl = 0x2018,
  kEptPointer = 0x201a,
  kEoiExitBitmap0 = 0x201c,
  kEoiExitBitmap1 = 0x201e,
  kEoiExitBitmap2 = 0x2020,
  kEoiExitBitmap3 = 0x2022,
  kEptpListAddress = 0x2024,
  kVmreadBitmap = 0x2026,
  kVmwriteBitmap = 0x2028,
  kVirtExceptionInfoAddr = 0x202a,
  kXssExitBitmap = 0x202c,
  kEnclsExitingBitmap = 0x202e,
  kSppTablePointer = 0x2030,
  kTscMultiplier = 0x2032,
  kTertiaryVmExecControl = 0x2034,
  // 64-bit read-only data field.
  kGuestPhysicalAddress = 0x2400,
  // 64-bit guest-state fields.
  kVmcsLinkPointer = 0x2800,
  kGuestIa32Debugctl = 0x2802,
  kGuestIa32Pat = 0x2804,
  kGuestIa32Efer = 0x2806,
  kGuestIa32PerfGlobalCtrl = 0x2808,
  kGuestPdptr0 = 0x280a,
  kGuestPdptr1 = 0x280c,
  kGuestPdptr2 = 0x280e,
  kGuestPdptr3 = 0x2810,
  kGuestIa32Bndcfgs = 0x2812,
  kGuestIa32RtitCtl = 0x2814,
  kGuestIa32LbrCtl = 0x2816,
  // 64-bit host-state fields.
  kHostIa32Pat = 0x2c00,
  kHostIa32Efer = 0x2c02,
  kHostIa32PerfGlobalCtrl = 0x2c04,
  // 32-bit control fields.
  kPinBasedVmExecControl = 0x4000,
  kCpuBasedVmExecControl = 0x4002,
  kExceptionBitmap = 0x4004,
  kPageFaultErrorCodeMask = 0x4006,
  kPageFaultErrorCodeMatch = 0x4008,
  kCr3TargetCount = 0x400a,
  kVmExitControls = 0x400c,
  kVmExitMsrStoreCount = 0x400e,
  kVmExitMsrLoadCount = 0x4010,
  kVmEntryControls = 0x4012,
  kVmEntryMsrLoadCount = 0x4014,
  kVmEntryIntrInfoField = 0x4016,
  kVmEntryExceptionErrorCode = 0x4018,
  kVmEntryInstructionLen = 0x401a,
  kTprThreshold = 0x401c,
  kSecondaryVmExecControl = 0x401e,
  kPleGap = 0x4020,
  kPleWindow = 0x4022,
  // 32-bit read-only data fields.
  kVmInstructionError = 0x4400,
  kVmExitReason = 0x4402,
  kVmExitIntrInfo = 0x4404,
  kVmExitIntrErrorCode = 0x4406,
  kIdtVectoringInfoField = 0x4408,
  kIdtVectoringErrorCode = 0x440a,
  kVmExitInstructionLen = 0x440c,
  kVmxInstructionInfo = 0x440e,
  // 32-bit guest-state fields.
  kGuestEsLimit = 0x4800,
  kGuestCsLimit = 0x4802,
  kGuestSsLimit = 0x4804,
  kGuestDsLimit = 0x4806,
  kGuestFsLimit = 0x4808,
  kGuestGsLimit = 0x480a,
  kGuestLdtrLimit = 0x480c,
  kGuestTrLimit = 0x480e,
  kGuestGdtrLimit = 0x4810,
  kGuestIdtrLimit = 0x4812,
  kGuestEsArBytes = 0x4814,
  kGuestCsArBytes = 0x4816,
  kGuestSsArBytes = 0x4818,
  kGuestDsArBytes = 0x481a,
  kGuestFsArBytes = 0x481c,
  kGuestGsArBytes = 0x481e,
  kGuestLdtrArBytes = 0x4820,
  kGuestTrArBytes = 0x4822,
  kGuestInterruptibilityInfo = 0x4824,
  kGuestActivityState = 0x4826,
  kGuestSmbase = 0x4828,
  kGuestSysenterCs = 0x482a,
  kVmxPreemptionTimerValue = 0x482e,
  // 32-bit host-state field.
  kHostIa32SysenterCs = 0x4c00,
  // Natural-width control fields.
  kCr0GuestHostMask = 0x6000,
  kCr4GuestHostMask = 0x6002,
  kCr0ReadShadow = 0x6004,
  kCr4ReadShadow = 0x6006,
  kCr3TargetValue0 = 0x6008,
  kCr3TargetValue1 = 0x600a,
  kCr3TargetValue2 = 0x600c,
  kCr3TargetValue3 = 0x600e,
  // Natural-width read-only data fields.
  kExitQualification = 0x6400,
  kIoRcx = 0x6402,
  kIoRsi = 0x6404,
  kIoRdi = 0x6406,
  kIoRip = 0x6408,
  kGuestLinearAddress = 0x640a,
  // Natural-width guest-state fields.
  kGuestCr0 = 0x6800,
  kGuestCr3 = 0x6802,
  kGuestCr4 = 0x6804,
  kGuestEsBase = 0x6806,
  kGuestCsBase = 0x6808,
  kGuestSsBase = 0x680a,
  kGuestDsBase = 0x680c,
  kGuestFsBase = 0x680e,
  kGuestGsBase = 0x6810,
  kGuestLdtrBase = 0x6812,
  kGuestTrBase = 0x6814,
  kGuestGdtrBase = 0x6816,
  kGuestIdtrBase = 0x6818,
  kGuestDr7 = 0x681a,
  kGuestRsp = 0x681c,
  kGuestRip = 0x681e,
  kGuestRflags = 0x6820,
  kGuestPendingDbgExceptions = 0x6822,
  kGuestSysenterEsp = 0x6824,
  kGuestSysenterEip = 0x6826,
  kGuestSCet = 0x6828,
  kGuestSsp = 0x682a,
  kGuestIntrSspTable = 0x682c,
  // Natural-width host-state fields.
  kHostCr0 = 0x6c00,
  kHostCr3 = 0x6c02,
  kHostCr4 = 0x6c04,
  kHostFsBase = 0x6c06,
  kHostGsBase = 0x6c08,
  kHostTrBase = 0x6c0a,
  kHostGdtrBase = 0x6c0c,
  kHostIdtrBase = 0x6c0e,
  kHostIa32SysenterEsp = 0x6c10,
  kHostIa32SysenterEip = 0x6c12,
  kHostRsp = 0x6c14,
  kHostRip = 0x6c16,
  kHostSCet = 0x6c18,
  kHostSsp = 0x6c1a,
  kHostIntrSspTable = 0x6c1c,
};

// VMCS field groups. Rounding proceeds control -> host -> guest
// (Section 4.3 of the paper); read-only fields are never inputs to
// VM entry and are excluded from mutation.
enum class VmcsFieldGroup : uint8_t {
  kControl,
  kGuestState,
  kHostState,
  kReadOnlyData,
};

// Architectural access width class (SDM encoding bits 14:13).
enum class VmcsFieldWidth : uint8_t {
  k16 = 0,
  k64 = 1,
  k32 = 2,
  kNatural = 3,
};

struct VmcsFieldInfo {
  VmcsField field;
  std::string_view name;
  VmcsFieldGroup group;
  VmcsFieldWidth width_class;
  // Semantic bit width used for the flattened bit image and for bounding
  // bit-selection during boundary mutation.
  uint8_t bits;
};

// Full field table, ordered by encoding. The count and the total bit size
// are exposed so the Figure 5 bench can report the state-space geometry.
std::span<const VmcsFieldInfo> VmcsFieldTable();

// Number of fields in the table (the paper's layout has 165). Compile-time
// constants so a Vmcs can store its values inline; vmx_fields.cc checks
// both against the table.
constexpr size_t VmcsFieldCount() { return 165; }

// Sum of semantic widths in bits (the paper's layout spans 8,000 bits).
constexpr size_t VmcsTotalBits() { return 8000; }

// Lookup; returns nullptr for an encoding outside the table.
const VmcsFieldInfo* FindVmcsField(VmcsField field);
const VmcsFieldInfo* FindVmcsField(uint32_t encoding);

// Dense index of a field within the table, or -1. O(1): one slot-table
// load and a compare of the full encoding.
int VmcsFieldIndex(VmcsField field);

// Derive the width class from the raw encoding (SDM bits 14:13).
VmcsFieldWidth WidthClassOfEncoding(uint32_t encoding);

// True if the encoding denotes a read-only (VM-exit information) field.
bool IsReadOnlyField(VmcsField field);

std::string_view VmcsFieldName(VmcsField field);

}  // namespace neco

#endif  // SRC_ARCH_VMX_FIELDS_H_
