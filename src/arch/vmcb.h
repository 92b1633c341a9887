// AMD-V VMCB model (control area + state-save area).
//
// Field names follow the AMD APM Vol. 2 Appendix B layout. Like the Vmcs
// model, a Vmcb stores one value per named field with a declared semantic
// width, and supports flattening to a dense bit image for raw fuzz-input
// interpretation and mutation.
#ifndef SRC_ARCH_VMCB_H_
#define SRC_ARCH_VMCB_H_

#include <array>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "src/support/bits.h"

namespace neco {

enum class VmcbField : uint16_t {
  // --- Control area ---
  kInterceptCrRead = 0,
  kInterceptCrWrite,
  kInterceptDrRead,
  kInterceptDrWrite,
  kInterceptExceptions,
  kInterceptVec3,      // Instruction intercepts incl. VMRUN/VMMCALL/...
  kInterceptVec4,      // VMLOAD/VMSAVE/STGI/CLGI/SKINIT/...
  kPauseFilterThresh,
  kPauseFilterCount,
  kIopmBasePa,
  kMsrpmBasePa,
  kTscOffset,
  kGuestAsid,
  kTlbControl,
  kVIntr,              // V_TPR / V_IRQ / V_INTR_MASKING / V_GIF / V_GIF_ENABLE.
  kInterruptShadow,
  kExitCode,
  kExitInfo1,
  kExitInfo2,
  kExitIntInfo,
  kNestedCtl,          // Bit 0: NP_ENABLE.
  kAvicApicBar,
  kEventInj,
  kNestedCr3,
  kVirtExt,            // Bit 0: LBR virt, bit 1: virtualized VMLOAD/VMSAVE.
  kVmcbClean,
  kNextRip,
  kAvicBackingPage,
  kAvicLogicalTable,
  kAvicPhysicalTable,
  // --- State-save area: segments ---
  kEsSelector, kEsAttrib, kEsLimit, kEsBase,
  kCsSelector, kCsAttrib, kCsLimit, kCsBase,
  kSsSelector, kSsAttrib, kSsLimit, kSsBase,
  kDsSelector, kDsAttrib, kDsLimit, kDsBase,
  kFsSelector, kFsAttrib, kFsLimit, kFsBase,
  kGsSelector, kGsAttrib, kGsLimit, kGsBase,
  kGdtrSelector, kGdtrAttrib, kGdtrLimit, kGdtrBase,
  kLdtrSelector, kLdtrAttrib, kLdtrLimit, kLdtrBase,
  kIdtrSelector, kIdtrAttrib, kIdtrLimit, kIdtrBase,
  kTrSelector, kTrAttrib, kTrLimit, kTrBase,
  // --- State-save area: system state ---
  kCpl,
  kEfer,
  kCr4,
  kCr3,
  kCr0,
  kDr7,
  kDr6,
  kRflags,
  kRip,
  kRsp,
  kRax,
  kStar,
  kLstar,
  kCstar,
  kSfmask,
  kKernelGsBase,
  kSysenterCs,
  kSysenterEsp,
  kSysenterEip,
  kCr2,
  kGPat,
  kDbgCtl,
  kBrFrom,
  kBrTo,
  kLastExcpFrom,
  kLastExcpTo,
  kCount,
};

constexpr size_t kNumVmcbFields = static_cast<size_t>(VmcbField::kCount);

enum class VmcbArea : uint8_t { kControl, kSave };

struct VmcbFieldInfo {
  VmcbField field;
  std::string_view name;
  VmcbArea area;
  uint8_t bits;
};

std::span<const VmcbFieldInfo> VmcbFieldTable();
// Sum of the field widths; a compile-time constant that vmcb.cc checks
// against the table.
constexpr size_t VmcbTotalBits() { return 4304; }
const VmcbFieldInfo* FindVmcbField(VmcbField field);
std::string_view VmcbFieldName(VmcbField field);

// Intercept bits in kInterceptVec3 (APM vector 3).
struct SvmIntercept3 {
  static constexpr uint32_t kIntr = 1u << 0;
  static constexpr uint32_t kNmi = 1u << 1;
  static constexpr uint32_t kSmi = 1u << 2;
  static constexpr uint32_t kInit = 1u << 3;
  static constexpr uint32_t kVintr = 1u << 4;
  static constexpr uint32_t kCr0SelWrite = 1u << 5;
  static constexpr uint32_t kRdtsc = 1u << 9;
  static constexpr uint32_t kRdpmc = 1u << 10;
  static constexpr uint32_t kPushf = 1u << 11;
  static constexpr uint32_t kPopf = 1u << 12;
  static constexpr uint32_t kCpuid = 1u << 13;
  static constexpr uint32_t kRsm = 1u << 14;
  static constexpr uint32_t kIret = 1u << 15;
  static constexpr uint32_t kIntN = 1u << 16;
  static constexpr uint32_t kInvd = 1u << 17;
  static constexpr uint32_t kPause = 1u << 18;
  static constexpr uint32_t kHlt = 1u << 19;
  static constexpr uint32_t kInvlpg = 1u << 20;
  static constexpr uint32_t kInvlpga = 1u << 21;
  static constexpr uint32_t kIoioProt = 1u << 27;
  static constexpr uint32_t kMsrProt = 1u << 28;
  static constexpr uint32_t kTaskSwitch = 1u << 29;
  static constexpr uint32_t kFerrFreeze = 1u << 30;
  static constexpr uint32_t kShutdown = 1u << 31;
};

// Intercept bits in kInterceptVec4 (APM vector 4).
struct SvmIntercept4 {
  static constexpr uint32_t kVmrun = 1u << 0;
  static constexpr uint32_t kVmmcall = 1u << 1;
  static constexpr uint32_t kVmload = 1u << 2;
  static constexpr uint32_t kVmsave = 1u << 3;
  static constexpr uint32_t kStgi = 1u << 4;
  static constexpr uint32_t kClgi = 1u << 5;
  static constexpr uint32_t kSkinit = 1u << 6;
  static constexpr uint32_t kRdtscp = 1u << 7;
  static constexpr uint32_t kIcebp = 1u << 8;
  static constexpr uint32_t kWbinvd = 1u << 9;
  static constexpr uint32_t kMonitor = 1u << 10;
  static constexpr uint32_t kMwait = 1u << 11;
  static constexpr uint32_t kXsetbv = 1u << 13;
};

// kVIntr sub-fields.
struct SvmVintr {
  static constexpr uint64_t kVTprMask = 0xffULL;
  static constexpr uint64_t kVIrq = Bit(8);
  static constexpr uint64_t kVGif = Bit(9);
  static constexpr uint64_t kVIntrMasking = Bit(24);
  static constexpr uint64_t kVGifEnable = Bit(25);
  static constexpr uint64_t kAvicEnable = Bit(31);
};

// SVM exit codes (APM Appendix C) — subset the simulators dispatch on.
enum class SvmExitCode : uint64_t {
  kCr0Read = 0x000,
  kCr0Write = 0x010,
  kCr3Write = 0x013,
  kCr4Write = 0x014,
  kExcpBase = 0x040,
  kIntr = 0x060,
  kNmi = 0x061,
  kVintr = 0x064,
  kCpuid = 0x072,
  kIret = 0x074,
  kPause = 0x077,
  kHlt = 0x078,
  kInvlpg = 0x079,
  kInvlpga = 0x07a,
  kIoio = 0x07b,
  kMsr = 0x07c,
  kTaskSwitch = 0x07d,
  kShutdown = 0x07f,
  kVmrun = 0x080,
  kVmmcall = 0x081,
  kVmload = 0x082,
  kVmsave = 0x083,
  kStgi = 0x084,
  kClgi = 0x085,
  kSkinit = 0x086,
  kRdtscp = 0x087,
  kWbinvd = 0x089,
  kMonitor = 0x08a,
  kMwait = 0x08b,
  kXsetbv = 0x08d,
  kNpf = 0x400,
  kAvicIncompleteIpi = 0x401,
  kAvicNoAccel = 0x402,
  kVmgexit = 0x403,
  kInvalid = ~0ULL,  // VMEXIT_INVALID: consistency-check failure.
};

class Vmcb {
 public:
  uint64_t Read(VmcbField field) const;
  bool Write(VmcbField field, uint64_t value);

  // Same image layout as Vmcs (src/arch/field_image.h), in VmcbField order.
  std::vector<uint8_t> ToBitImage() const;
  void FromBitImage(std::span<const uint8_t> image);
  static constexpr size_t BitImageSize() { return (VmcbTotalBits() + 7) / 8; }

  bool operator==(const Vmcb& other) const { return values_ == other.values_; }

 private:
  std::array<uint64_t, kNumVmcbFields> values_{};  // Inline: no allocation.
};

// A minimally valid VMCB for a 64-bit L2 guest (golden configuration).
Vmcb MakeDefaultVmcb();

}  // namespace neco

#endif  // SRC_ARCH_VMCB_H_
