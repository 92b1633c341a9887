#include "src/arch/vmcb.h"

#include <array>

#include "src/arch/field_image.h"
#include "src/arch/vmx_bits.h"

namespace neco {
namespace {

constexpr auto kCtl = VmcbArea::kControl;
constexpr auto kSave = VmcbArea::kSave;

constexpr std::array<VmcbFieldInfo, kNumVmcbFields> BuildTable() {
  std::array<VmcbFieldInfo, kNumVmcbFields> t{};
  auto set = [&t](VmcbField f, std::string_view name, VmcbArea a,
                  uint8_t bits) {
    t[static_cast<size_t>(f)] = VmcbFieldInfo{f, name, a, bits};
  };
  set(VmcbField::kInterceptCrRead, "intercept_cr_read", kCtl, 16);
  set(VmcbField::kInterceptCrWrite, "intercept_cr_write", kCtl, 16);
  set(VmcbField::kInterceptDrRead, "intercept_dr_read", kCtl, 16);
  set(VmcbField::kInterceptDrWrite, "intercept_dr_write", kCtl, 16);
  set(VmcbField::kInterceptExceptions, "intercept_exceptions", kCtl, 32);
  set(VmcbField::kInterceptVec3, "intercept_vec3", kCtl, 32);
  set(VmcbField::kInterceptVec4, "intercept_vec4", kCtl, 32);
  set(VmcbField::kPauseFilterThresh, "pause_filter_thresh", kCtl, 16);
  set(VmcbField::kPauseFilterCount, "pause_filter_count", kCtl, 16);
  set(VmcbField::kIopmBasePa, "iopm_base_pa", kCtl, 64);
  set(VmcbField::kMsrpmBasePa, "msrpm_base_pa", kCtl, 64);
  set(VmcbField::kTscOffset, "tsc_offset", kCtl, 64);
  set(VmcbField::kGuestAsid, "guest_asid", kCtl, 32);
  set(VmcbField::kTlbControl, "tlb_control", kCtl, 8);
  set(VmcbField::kVIntr, "v_intr", kCtl, 64);
  set(VmcbField::kInterruptShadow, "interrupt_shadow", kCtl, 64);
  set(VmcbField::kExitCode, "exit_code", kCtl, 64);
  set(VmcbField::kExitInfo1, "exit_info1", kCtl, 64);
  set(VmcbField::kExitInfo2, "exit_info2", kCtl, 64);
  set(VmcbField::kExitIntInfo, "exit_int_info", kCtl, 64);
  set(VmcbField::kNestedCtl, "nested_ctl", kCtl, 64);
  set(VmcbField::kAvicApicBar, "avic_apic_bar", kCtl, 64);
  set(VmcbField::kEventInj, "event_inj", kCtl, 64);
  set(VmcbField::kNestedCr3, "nested_cr3", kCtl, 64);
  set(VmcbField::kVirtExt, "virt_ext", kCtl, 64);
  set(VmcbField::kVmcbClean, "vmcb_clean", kCtl, 32);
  set(VmcbField::kNextRip, "next_rip", kCtl, 64);
  set(VmcbField::kAvicBackingPage, "avic_backing_page", kCtl, 64);
  set(VmcbField::kAvicLogicalTable, "avic_logical_table", kCtl, 64);
  set(VmcbField::kAvicPhysicalTable, "avic_physical_table", kCtl, 64);

  struct Seg {
    VmcbField sel, attrib, limit, base;
    std::string_view prefix;
  };
  constexpr Seg segs[] = {
      {VmcbField::kEsSelector, VmcbField::kEsAttrib, VmcbField::kEsLimit, VmcbField::kEsBase, "es"},
      {VmcbField::kCsSelector, VmcbField::kCsAttrib, VmcbField::kCsLimit, VmcbField::kCsBase, "cs"},
      {VmcbField::kSsSelector, VmcbField::kSsAttrib, VmcbField::kSsLimit, VmcbField::kSsBase, "ss"},
      {VmcbField::kDsSelector, VmcbField::kDsAttrib, VmcbField::kDsLimit, VmcbField::kDsBase, "ds"},
      {VmcbField::kFsSelector, VmcbField::kFsAttrib, VmcbField::kFsLimit, VmcbField::kFsBase, "fs"},
      {VmcbField::kGsSelector, VmcbField::kGsAttrib, VmcbField::kGsLimit, VmcbField::kGsBase, "gs"},
      {VmcbField::kGdtrSelector, VmcbField::kGdtrAttrib, VmcbField::kGdtrLimit, VmcbField::kGdtrBase, "gdtr"},
      {VmcbField::kLdtrSelector, VmcbField::kLdtrAttrib, VmcbField::kLdtrLimit, VmcbField::kLdtrBase, "ldtr"},
      {VmcbField::kIdtrSelector, VmcbField::kIdtrAttrib, VmcbField::kIdtrLimit, VmcbField::kIdtrBase, "idtr"},
      {VmcbField::kTrSelector, VmcbField::kTrAttrib, VmcbField::kTrLimit, VmcbField::kTrBase, "tr"},
  };
  // Static names: table entries need stable string_views, so spell them out.
  constexpr std::string_view sel_names[] = {
      "es_selector", "cs_selector", "ss_selector", "ds_selector",
      "fs_selector", "gs_selector", "gdtr_selector", "ldtr_selector",
      "idtr_selector", "tr_selector"};
  constexpr std::string_view attrib_names[] = {
      "es_attrib", "cs_attrib", "ss_attrib", "ds_attrib", "fs_attrib",
      "gs_attrib", "gdtr_attrib", "ldtr_attrib", "idtr_attrib", "tr_attrib"};
  constexpr std::string_view limit_names[] = {
      "es_limit", "cs_limit", "ss_limit", "ds_limit", "fs_limit",
      "gs_limit", "gdtr_limit", "ldtr_limit", "idtr_limit", "tr_limit"};
  constexpr std::string_view base_names[] = {
      "es_base", "cs_base", "ss_base", "ds_base", "fs_base",
      "gs_base", "gdtr_base", "ldtr_base", "idtr_base", "tr_base"};
  for (size_t i = 0; i < 10; ++i) {
    set(segs[i].sel, sel_names[i], kSave, 16);
    set(segs[i].attrib, attrib_names[i], kSave, 16);
    set(segs[i].limit, limit_names[i], kSave, 32);
    set(segs[i].base, base_names[i], kSave, 64);
  }

  set(VmcbField::kCpl, "cpl", kSave, 8);
  set(VmcbField::kEfer, "efer", kSave, 64);
  set(VmcbField::kCr4, "cr4", kSave, 64);
  set(VmcbField::kCr3, "cr3", kSave, 64);
  set(VmcbField::kCr0, "cr0", kSave, 64);
  set(VmcbField::kDr7, "dr7", kSave, 64);
  set(VmcbField::kDr6, "dr6", kSave, 64);
  set(VmcbField::kRflags, "rflags", kSave, 64);
  set(VmcbField::kRip, "rip", kSave, 64);
  set(VmcbField::kRsp, "rsp", kSave, 64);
  set(VmcbField::kRax, "rax", kSave, 64);
  set(VmcbField::kStar, "star", kSave, 64);
  set(VmcbField::kLstar, "lstar", kSave, 64);
  set(VmcbField::kCstar, "cstar", kSave, 64);
  set(VmcbField::kSfmask, "sfmask", kSave, 64);
  set(VmcbField::kKernelGsBase, "kernel_gs_base", kSave, 64);
  set(VmcbField::kSysenterCs, "sysenter_cs", kSave, 64);
  set(VmcbField::kSysenterEsp, "sysenter_esp", kSave, 64);
  set(VmcbField::kSysenterEip, "sysenter_eip", kSave, 64);
  set(VmcbField::kCr2, "cr2", kSave, 64);
  set(VmcbField::kGPat, "g_pat", kSave, 64);
  set(VmcbField::kDbgCtl, "dbgctl", kSave, 64);
  set(VmcbField::kBrFrom, "br_from", kSave, 64);
  set(VmcbField::kBrTo, "br_to", kSave, 64);
  set(VmcbField::kLastExcpFrom, "last_excp_from", kSave, 64);
  set(VmcbField::kLastExcpTo, "last_excp_to", kSave, 64);
  return t;
}

constexpr std::array<VmcbFieldInfo, kNumVmcbFields> kTable = BuildTable();

static_assert(WidthsAreWholeBytes(kTable),
              "VMCB field widths must be whole bytes for the image codec");
static_assert(ImageBits(kTable) == VmcbTotalBits(),
              "VmcbTotalBits() disagrees with the field table");

}  // namespace

std::span<const VmcbFieldInfo> VmcbFieldTable() { return kTable; }

const VmcbFieldInfo* FindVmcbField(VmcbField field) {
  if (static_cast<size_t>(field) >= kNumVmcbFields) {
    return nullptr;
  }
  return &kTable[static_cast<size_t>(field)];
}

std::string_view VmcbFieldName(VmcbField field) {
  const VmcbFieldInfo* info = FindVmcbField(field);
  return info != nullptr ? info->name : std::string_view("<unknown>");
}

uint64_t Vmcb::Read(VmcbField field) const {
  if (static_cast<size_t>(field) >= kNumVmcbFields) {
    return 0;
  }
  return values_[static_cast<size_t>(field)];
}

bool Vmcb::Write(VmcbField field, uint64_t value) {
  if (static_cast<size_t>(field) >= kNumVmcbFields) {
    return false;
  }
  const auto& info = kTable[static_cast<size_t>(field)];
  values_[static_cast<size_t>(field)] = value & MaskLow(info.bits);
  return true;
}

std::vector<uint8_t> Vmcb::ToBitImage() const {
  std::vector<uint8_t> image(BitImageSize());
  PackFieldImage(kTable, values_, image);
  return image;
}

void Vmcb::FromBitImage(std::span<const uint8_t> image) {
  UnpackFieldImage(kTable, image, values_);
}

Vmcb MakeDefaultVmcb() {
  Vmcb v;
  // Control: intercept VMRUN (architecturally required) plus the standard
  // KVM-style intercept set; nested paging on; ASID 1.
  v.Write(VmcbField::kInterceptVec3,
          SvmIntercept3::kIntr | SvmIntercept3::kNmi | SvmIntercept3::kCpuid |
              SvmIntercept3::kHlt | SvmIntercept3::kIoioProt |
              SvmIntercept3::kMsrProt | SvmIntercept3::kShutdown);
  v.Write(VmcbField::kInterceptVec4,
          SvmIntercept4::kVmrun | SvmIntercept4::kVmmcall |
              SvmIntercept4::kVmload | SvmIntercept4::kVmsave |
              SvmIntercept4::kStgi | SvmIntercept4::kClgi |
              SvmIntercept4::kSkinit);
  v.Write(VmcbField::kGuestAsid, 1);
  v.Write(VmcbField::kNestedCtl, 1);  // NP_ENABLE.
  v.Write(VmcbField::kNestedCr3, 0x9000);
  v.Write(VmcbField::kIopmBasePa, 0xa000);
  v.Write(VmcbField::kMsrpmBasePa, 0xc000);

  // Save area: 64-bit long-mode guest.
  v.Write(VmcbField::kEfer, Efer::kSvme | Efer::kLme | Efer::kLma);
  v.Write(VmcbField::kCr0, Cr0::kPe | Cr0::kPg | Cr0::kNe | Cr0::kEt);
  v.Write(VmcbField::kCr3, 0x2000);
  v.Write(VmcbField::kCr4, Cr4::kPae);
  v.Write(VmcbField::kRflags, Rflags::kFixed1);
  v.Write(VmcbField::kRip, 0x100000);
  v.Write(VmcbField::kRsp, 0x8000);
  v.Write(VmcbField::kDr6, 0xffff0ff0);
  v.Write(VmcbField::kDr7, 0x400);
  v.Write(VmcbField::kGPat, 0x0007040600070406ULL);

  v.Write(VmcbField::kCsSelector, 0x08);
  v.Write(VmcbField::kCsAttrib, 0x029b);  // Long-mode code, present.
  v.Write(VmcbField::kCsLimit, 0xffffffff);
  v.Write(VmcbField::kEsSelector, 0x10);
  v.Write(VmcbField::kEsAttrib, 0x0093);
  v.Write(VmcbField::kEsLimit, 0xffffffff);
  v.Write(VmcbField::kSsSelector, 0x10);
  v.Write(VmcbField::kSsAttrib, 0x0093);
  v.Write(VmcbField::kSsLimit, 0xffffffff);
  v.Write(VmcbField::kDsSelector, 0x10);
  v.Write(VmcbField::kDsAttrib, 0x0093);
  v.Write(VmcbField::kDsLimit, 0xffffffff);
  v.Write(VmcbField::kTrSelector, 0x18);
  v.Write(VmcbField::kTrAttrib, 0x008b);
  v.Write(VmcbField::kTrLimit, 0x67);
  v.Write(VmcbField::kTrBase, 0x3000);
  v.Write(VmcbField::kGdtrLimit, 0x7f);
  v.Write(VmcbField::kGdtrBase, 0x5000);
  v.Write(VmcbField::kIdtrLimit, 0xfff);
  v.Write(VmcbField::kIdtrBase, 0x5800);
  return v;
}

}  // namespace neco
