#include "src/core/validator/vmcb_validator.h"

#include <algorithm>
#include <array>

#include "src/arch/vmx_bits.h"
#include "src/support/bits.h"

namespace neco {
namespace {

constexpr VmcbField kPriorityMutationFields[] = {
    VmcbField::kInterceptVec3,  VmcbField::kInterceptVec4,
    VmcbField::kInterceptCrWrite, VmcbField::kInterceptExceptions,
    VmcbField::kGuestAsid,      VmcbField::kNestedCtl,
    VmcbField::kNestedCr3,      VmcbField::kVIntr,
    VmcbField::kEventInj,       VmcbField::kEfer,
    VmcbField::kCr0,            VmcbField::kCr4,
    VmcbField::kCsAttrib,       VmcbField::kRflags,
};

}  // namespace

VmcbValidator::VmcbValidator(SvmCaps caps) : caps_(caps) {}

ViolationList VmcbValidator::Validate(const Vmcb& vmcb) const {
  SvmCheckProfile profile = SvmCheckProfile::Spec();
  if (quirks_.suppressed_checks.count(CheckId::kSvmLmeWithoutPg) != 0) {
    profile.reject_lme_without_pg = false;
  }
  ViolationList all = CheckVmrun(vmcb, caps_, profile);
  all.erase(std::remove_if(all.begin(), all.end(),
                           [this](CheckId id) {
                             return quirks_.suppressed_checks.count(id) != 0;
                           }),
            all.end());
  return all;
}

Vmcb VmcbValidator::RoundToValid(const Vmcb& raw) const {
  Vmcb v = raw;

  // --- Control area ---
  if (v.Read(VmcbField::kGuestAsid) == 0) {
    v.Write(VmcbField::kGuestAsid, 1);
  }
  v.Write(VmcbField::kInterceptVec4,
          v.Read(VmcbField::kInterceptVec4) | SvmIntercept4::kVmrun);
  v.Write(VmcbField::kIopmBasePa,
          AlignDown(v.Read(VmcbField::kIopmBasePa), 12) &
              (caps_.MaxPhysicalAddress() >> 1));
  v.Write(VmcbField::kMsrpmBasePa,
          AlignDown(v.Read(VmcbField::kMsrpmBasePa), 12) &
              (caps_.MaxPhysicalAddress() >> 1));
  if ((v.Read(VmcbField::kNestedCtl) & 1) != 0) {
    v.Write(VmcbField::kNestedCr3,
            AlignDown(v.Read(VmcbField::kNestedCr3), 12) &
                caps_.MaxPhysicalAddress());
  }
  uint64_t event_inj = v.Read(VmcbField::kEventInj);
  if (TestBit(event_inj, 31)) {
    uint64_t type = ExtractBits(event_inj, 8, 3);
    uint64_t vector = event_inj & 0xff;
    if (type == 1 || type > 4) {
      type = 0;
    }
    if (type == 2) {
      vector = 2;
    }
    if (type == 3) {
      vector &= 31;
    }
    event_inj = vector | (type << 8) | Bit(31);
    v.Write(VmcbField::kEventInj, event_inj);
  }

  // --- Save area ---
  uint64_t efer = v.Read(VmcbField::kEfer);
  efer = (efer | Efer::kSvme) & ~Efer::kReservedMask;
  uint64_t cr0 = v.Read(VmcbField::kCr0) & MaskLow(32);
  if ((cr0 & Cr0::kCd) == 0 && (cr0 & Cr0::kNw) != 0) {
    cr0 &= ~Cr0::kNw;
  }
  uint64_t cr4 = v.Read(VmcbField::kCr4) & ~Cr4::kReservedMask & ~Cr4::kVmxe;

  const bool lme = (efer & Efer::kLme) != 0;
  const bool pg = (cr0 & Cr0::kPg) != 0;
  if (lme && pg) {
    cr4 |= Cr4::kPae;
    cr0 |= Cr0::kPe;
    efer |= Efer::kLma;
    uint16_t cs_attrib = static_cast<uint16_t>(v.Read(VmcbField::kCsAttrib));
    if (TestBit(cs_attrib, 9) && TestBit(cs_attrib, 10)) {
      cs_attrib = static_cast<uint16_t>(ClearBit(cs_attrib, 10));
      v.Write(VmcbField::kCsAttrib, cs_attrib);
    }
  } else {
    // A strict spec reading also clears LME when paging is off (the
    // ambiguous state real silicon accepts; see SvmCheckProfile).
    if (lme && !pg) {
      efer &= ~Efer::kLme;
    }
    efer &= ~Efer::kLma;
  }
  v.Write(VmcbField::kEfer, efer);
  v.Write(VmcbField::kCr0, cr0);
  v.Write(VmcbField::kCr4, cr4);
  v.Write(VmcbField::kCr3,
          v.Read(VmcbField::kCr3) & caps_.MaxPhysicalAddress());
  v.Write(VmcbField::kDr6, v.Read(VmcbField::kDr6) & MaskLow(32));
  v.Write(VmcbField::kDr7, v.Read(VmcbField::kDr7) & MaskLow(32));
  v.Write(VmcbField::kRflags,
          (v.Read(VmcbField::kRflags) | Rflags::kFixed1) &
              ~Rflags::kReservedMask);
  return v;
}

void VmcbValidator::BoundaryMutate(Vmcb& vmcb, ByteReader& directives) const {
  const auto table = VmcbFieldTable();
  const unsigned num_fields = 1 + static_cast<unsigned>(directives.Below(3));
  for (unsigned i = 0; i < num_fields; ++i) {
    const VmcbFieldInfo* info = nullptr;
    if (directives.Chance(1, 2)) {
      const size_t pick = directives.Below(
          sizeof(kPriorityMutationFields) / sizeof(VmcbField));
      info = FindVmcbField(kPriorityMutationFields[pick]);
    } else {
      info = &table[directives.Below(table.size())];
    }
    if (info == nullptr) {
      continue;
    }
    const unsigned num_bits = 1 + static_cast<unsigned>(directives.Below(8));
    uint64_t value = vmcb.Read(info->field);
    for (unsigned b = 0; b < num_bits; ++b) {
      value = FlipBit(value,
                      static_cast<unsigned>(directives.Below(info->bits)));
    }
    vmcb.Write(info->field, value);
  }
}

Vmcb VmcbValidator::GenerateBoundaryState(ByteReader& image,
                                          ByteReader& directives) const {
  std::array<uint8_t, Vmcb::BitImageSize()> bits{};
  image.Fill(bits);
  Vmcb raw;
  raw.FromBitImage(bits);
  Vmcb rounded = RoundToValid(raw);
  BoundaryMutate(rounded, directives);
  return rounded;
}

}  // namespace neco
