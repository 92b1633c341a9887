// Tests for the architecture model: the VMCS field table geometry, the
// Vmcs/Vmcb containers, capability-MSR derivation and CPU-feature sets.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "src/arch/cpu_features.h"
#include "src/arch/vmcb.h"
#include "src/arch/vmcs.h"
#include "src/arch/vmx_bits.h"
#include "src/arch/vmx_caps.h"
#include "src/arch/vmx_fields.h"
#include "src/support/rng.h"

namespace neco {
namespace {

// The paper's state geometry: "an 8,000-bit VM state across 165 fields
// with predefined widths" (Section 5.3.2).
TEST(VmcsFieldsTest, PaperStateGeometry) {
  EXPECT_EQ(VmcsFieldCount(), 165u);
  EXPECT_EQ(VmcsTotalBits(), 8000u);
  EXPECT_EQ(Vmcs::BitImageSize(), 1000u);
}

TEST(VmcsFieldsTest, EncodingsAreUniqueAndWidthClassed) {
  std::set<uint32_t> encodings;
  std::set<std::string_view> names;
  for (const VmcsFieldInfo& info : VmcsFieldTable()) {
    const uint32_t enc = static_cast<uint32_t>(info.field);
    EXPECT_TRUE(encodings.insert(enc).second) << "duplicate encoding " << enc;
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate " << info.name;
    // SDM encoding bits 14:13 define the access width class.
    EXPECT_EQ(WidthClassOfEncoding(enc), info.width_class)
        << info.name << " encoding disagrees with its declared width class";
    EXPECT_GT(info.bits, 0);
    EXPECT_LE(info.bits, 64);
  }
}

TEST(VmcsFieldsTest, LookupAndIndex) {
  const VmcsFieldInfo* info = FindVmcsField(VmcsField::kGuestCr0);
  ASSERT_NE(info, nullptr);
  EXPECT_EQ(info->name, "guest_cr0");
  EXPECT_EQ(info->group, VmcsFieldGroup::kGuestState);
  EXPECT_EQ(FindVmcsField(0xdead0u), nullptr);
  EXPECT_EQ(VmcsFieldIndex(VmcsField::kVirtualProcessorId), 0);
  EXPECT_EQ(VmcsFieldIndex(static_cast<VmcsField>(0x9999)), -1);
}

TEST(VmcsFieldsTest, LookupsMatchALinearScanForEveryEncoding) {
  // The slot index against the table itself, for every 16-bit encoding
  // plus values above 0xffff that alias a real field's slot.
  const auto table = VmcsFieldTable();
  const auto scan = [&table](uint32_t encoding) {
    for (size_t i = 0; i < table.size(); ++i) {
      if (static_cast<uint32_t>(table[i].field) == encoding) {
        return static_cast<int>(i);
      }
    }
    return -1;
  };
  std::vector<uint32_t> encodings;
  for (uint32_t encoding = 0; encoding <= 0xffff; ++encoding) {
    encodings.push_back(encoding);
  }
  for (uint32_t high : {0x10000u, 0x80000000u, 0xffff0000u}) {
    encodings.push_back(high | static_cast<uint32_t>(VmcsField::kGuestCr0));
    encodings.push_back(high | static_cast<uint32_t>(VmcsField::kHostRip));
  }
  encodings.push_back(0xffffffffu);
  for (const uint32_t encoding : encodings) {
    const auto field = static_cast<VmcsField>(encoding);
    const int idx = scan(encoding);
    const VmcsFieldInfo* info =
        idx < 0 ? nullptr : &table[static_cast<size_t>(idx)];
    ASSERT_EQ(VmcsFieldIndex(field), idx) << std::hex << encoding;
    ASSERT_EQ(FindVmcsField(field), info) << std::hex << encoding;
    ASSERT_EQ(FindVmcsField(encoding), info) << std::hex << encoding;
    ASSERT_EQ(IsReadOnlyField(field),
              info != nullptr && info->group == VmcsFieldGroup::kReadOnlyData)
        << std::hex << encoding;
    ASSERT_EQ(VmcsFieldName(field),
              info != nullptr ? info->name : std::string_view("<unknown>"))
        << std::hex << encoding;
  }
}

TEST(VmcsFieldsTest, ReadOnlyClassification) {
  EXPECT_TRUE(IsReadOnlyField(VmcsField::kVmExitReason));
  EXPECT_TRUE(IsReadOnlyField(VmcsField::kExitQualification));
  EXPECT_TRUE(IsReadOnlyField(VmcsField::kGuestPhysicalAddress));
  EXPECT_FALSE(IsReadOnlyField(VmcsField::kGuestCr0));
  EXPECT_FALSE(IsReadOnlyField(VmcsField::kPinBasedVmExecControl));
}

TEST(VmcsFieldsTest, GroupCountsArePlausible) {
  size_t control = 0, guest = 0, host = 0, ro = 0;
  for (const VmcsFieldInfo& info : VmcsFieldTable()) {
    switch (info.group) {
      case VmcsFieldGroup::kControl: ++control; break;
      case VmcsFieldGroup::kGuestState: ++guest; break;
      case VmcsFieldGroup::kHostState: ++host; break;
      case VmcsFieldGroup::kReadOnlyData: ++ro; break;
    }
  }
  EXPECT_EQ(control + guest + host + ro, 165u);
  EXPECT_GT(guest, host);   // Guest state is the largest area.
  EXPECT_GT(control, 40u);  // Controls are substantial.
  EXPECT_EQ(ro, 15u);       // Exit-information fields.
}

TEST(VmcsTest, WriteMasksToFieldWidth) {
  Vmcs v;
  v.Write(VmcsField::kGuestEsSelector, 0x12345678);
  EXPECT_EQ(v.Read(VmcsField::kGuestEsSelector), 0x5678u);
  v.Write(VmcsField::kPinBasedVmExecControl, 0x1234567890ULL);
  EXPECT_EQ(v.Read(VmcsField::kPinBasedVmExecControl), 0x34567890u);
  v.Write(VmcsField::kGuestRip, ~0ULL);
  EXPECT_EQ(v.Read(VmcsField::kGuestRip), ~0ULL);
}

TEST(VmcsTest, UnknownFieldRejected) {
  Vmcs v;
  EXPECT_FALSE(v.Write(static_cast<VmcsField>(0x9999), 1));
  EXPECT_EQ(v.Read(static_cast<VmcsField>(0x9999)), 0u);
  EXPECT_FALSE(v.Has(static_cast<VmcsField>(0x9999)));
  EXPECT_TRUE(v.Has(VmcsField::kGuestCr0));
}

TEST(VmcsTest, BitImageRoundTrip) {
  Rng rng(555);
  for (int trial = 0; trial < 20; ++trial) {
    Vmcs v;
    for (const VmcsFieldInfo& info : VmcsFieldTable()) {
      v.Write(info.field, rng.Next());
    }
    Vmcs back;
    back.FromBitImage(v.ToBitImage());
    EXPECT_TRUE(v == back) << "trial " << trial;
  }
}

TEST(VmcsTest, BitImageShortInputReadsZeroTail) {
  std::vector<uint8_t> partial(10, 0xff);
  Vmcs v;
  v.FromBitImage(partial);
  // The first fields are saturated, later ones zero.
  EXPECT_EQ(v.Read(VmcsField::kVirtualProcessorId), 0xffffu);
  EXPECT_EQ(v.Read(VmcsField::kHostRip), 0u);
}

TEST(VmcsTest, LaunchStateTracking) {
  Vmcs v;
  EXPECT_EQ(v.launch_state(), Vmcs::LaunchState::kClear);
  v.set_launch_state(Vmcs::LaunchState::kLaunched);
  EXPECT_EQ(v.launch_state(), Vmcs::LaunchState::kLaunched);
}

TEST(VmcbTest, FieldTableComplete) {
  EXPECT_EQ(VmcbFieldTable().size(), kNumVmcbFields);
  std::set<std::string_view> names;
  for (const VmcbFieldInfo& info : VmcbFieldTable()) {
    EXPECT_FALSE(info.name.empty());
    EXPECT_TRUE(names.insert(info.name).second) << "duplicate " << info.name;
  }
  EXPECT_GT(VmcbTotalBits(), 3000u);
}

TEST(VmcbTest, WriteMasksToWidth) {
  Vmcb v;
  v.Write(VmcbField::kCpl, 0x1ff);
  EXPECT_EQ(v.Read(VmcbField::kCpl), 0xffu);
  v.Write(VmcbField::kEsSelector, 0xabcd1234);
  EXPECT_EQ(v.Read(VmcbField::kEsSelector), 0x1234u);
}

TEST(VmcbTest, BitImageRoundTrip) {
  Rng rng(777);
  for (int trial = 0; trial < 20; ++trial) {
    Vmcb v;
    for (const VmcbFieldInfo& info : VmcbFieldTable()) {
      v.Write(info.field, rng.Next());
    }
    Vmcb back;
    back.FromBitImage(v.ToBitImage());
    EXPECT_TRUE(v == back);
  }
}

// --- Golden image pins ---------------------------------------------------------

// FNV-1a 64, written out here so the pins do not move if library code does.
struct Fnv1a64 {
  uint64_t hash = 0xCBF29CE484222325ULL;
  void Bytes(std::span<const uint8_t> bytes) {
    for (uint8_t byte : bytes) {
      hash = (hash ^ byte) * 0x100000001B3ULL;
    }
  }
  void U64(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash = (hash ^ static_cast<uint8_t>(value >> (8 * i))) * 0x100000001B3ULL;
    }
  }
};

// Decodes 64 seeded images (one empty, the rest alternately full-length
// and short), then hashes each state's re-encoded image and every field
// read back through Read().
template <class State, class Table>
uint64_t DecodeSweepHash(Table table, uint64_t seed) {
  Rng rng(seed);
  Fnv1a64 h;
  const size_t full = State::BitImageSize();
  for (int i = 0; i < 64; ++i) {
    const size_t len = i == 0 ? 0 : i % 2 == 1 ? full : rng.Below(full);
    std::vector<uint8_t> image(len);
    for (uint8_t& byte : image) {
      byte = static_cast<uint8_t>(rng.Next());
    }
    State state;
    state.FromBitImage(image);
    h.Bytes(state.ToBitImage());
    for (const auto& info : table) {
      h.U64(state.Read(info.field));
    }
  }
  return h.hash;
}

// A raw fuzz input means its bit image, so every recorded campaign, golden
// event log and resume pin rests on this layout. A round trip cannot see a
// layout change made symmetrically in ToBitImage and FromBitImage; these
// hashes, captured from the bit-at-a-time codec, can.
TEST(BitImageGoldenTest, DefaultStateImages) {
  Fnv1a64 vmcs;
  vmcs.Bytes(MakeDefaultVmcs().ToBitImage());
  EXPECT_EQ(vmcs.hash, 0x33D1B5943154EF2FULL);
  Fnv1a64 vmcb;
  vmcb.Bytes(MakeDefaultVmcb().ToBitImage());
  EXPECT_EQ(vmcb.hash, 0x324F410D1F8B4745ULL);
}

TEST(BitImageGoldenTest, DecodeSweeps) {
  EXPECT_EQ(DecodeSweepHash<Vmcs>(VmcsFieldTable(), 17), 0x48904675AB135F25ULL);
  EXPECT_EQ(DecodeSweepHash<Vmcb>(VmcbFieldTable(), 17), 0x479DEC5A78E78563ULL);
}

TEST(CpuFeaturesTest, VendorRestriction) {
  CpuFeatureSet all;
  all.set_raw(~0ULL);
  const CpuFeatureSet intel = all.RestrictedTo(Arch::kIntel);
  const CpuFeatureSet amd = all.RestrictedTo(Arch::kAmd);
  EXPECT_TRUE(intel.Has(CpuFeature::kEpt));
  EXPECT_FALSE(intel.Has(CpuFeature::kNpt));
  EXPECT_TRUE(amd.Has(CpuFeature::kNpt));
  EXPECT_FALSE(amd.Has(CpuFeature::kEpt));
  // Cross-vendor knobs survive both.
  EXPECT_TRUE(intel.Has(CpuFeature::kNestedVirt));
  EXPECT_TRUE(amd.Has(CpuFeature::kNestedVirt));
}

TEST(CpuFeaturesTest, NamesAndDefaults) {
  EXPECT_EQ(CpuFeatureName(CpuFeature::kEpt), "ept");
  EXPECT_EQ(CpuFeatureName(CpuFeature::kVgif), "vgif");
  const CpuFeatureSet def = DefaultFeatureSet(Arch::kIntel);
  EXPECT_TRUE(def.Has(CpuFeature::kNestedVirt));
  EXPECT_FALSE(def.Has(CpuFeature::kEnlightenedVmcs));
  EXPECT_NE(def.ToString().find("ept"), std::string::npos);
}

TEST(VmxCapsTest, FeatureBitsGateAllowed1) {
  CpuFeatureSet features = DefaultFeatureSet(Arch::kIntel);
  features.Set(CpuFeature::kEpt, false);
  const VmxCapabilities caps = MakeVmxCapabilities(features);
  EXPECT_EQ(caps.procbased2.allowed1 & Proc2Ctl::kEnableEpt, 0u);
  // Unrestricted guest requires EPT, so it disappears too.
  EXPECT_EQ(caps.procbased2.allowed1 & Proc2Ctl::kUnrestrictedGuest, 0u);
  EXPECT_FALSE(caps.ept_4level);

  const VmxCapabilities full = HostVmxCapabilities();
  EXPECT_NE(full.procbased2.allowed1 & Proc2Ctl::kEnableEpt, 0u);
  EXPECT_NE(full.procbased2.allowed1 & Proc2Ctl::kUnrestrictedGuest, 0u);
}

TEST(VmxCapsTest, CtlCapsRoundSatisfiesPermits) {
  Rng rng(42);
  const VmxCapabilities caps = HostVmxCapabilities();
  for (const CtlCaps* ctl : {&caps.pinbased, &caps.procbased,
                             &caps.procbased2, &caps.exit, &caps.entry}) {
    EXPECT_TRUE(ctl->Permits(ctl->fixed1));
    for (int i = 0; i < 200; ++i) {
      const uint32_t rounded = ctl->Round(static_cast<uint32_t>(rng.Next()));
      EXPECT_TRUE(ctl->Permits(rounded));
    }
  }
}

TEST(VmxCapsTest, Cr0FixedBitsIncludePePgNe) {
  const VmxCapabilities caps = HostVmxCapabilities();
  EXPECT_EQ(caps.cr0_fixed0 & Cr0::kPe, Cr0::kPe);
  EXPECT_EQ(caps.cr0_fixed0 & Cr0::kPg, Cr0::kPg);
  EXPECT_EQ(caps.cr0_fixed0 & Cr0::kNe, Cr0::kNe);
  EXPECT_EQ(caps.cr4_fixed0 & Cr4::kVmxe, Cr4::kVmxe);
}

TEST(DefaultStatesTest, DefaultVmcsDescribesLongModeGuest) {
  const Vmcs v = MakeDefaultVmcs();
  EXPECT_NE(v.Read(VmcsField::kGuestCr0) & Cr0::kPg, 0u);
  EXPECT_NE(v.Read(VmcsField::kGuestCr4) & Cr4::kPae, 0u);
  EXPECT_NE(v.Read(VmcsField::kGuestIa32Efer) & Efer::kLma, 0u);
  EXPECT_NE(static_cast<uint32_t>(v.Read(VmcsField::kVmEntryControls)) &
                EntryCtl::kIa32eModeGuest,
            0u);
  EXPECT_EQ(v.Read(VmcsField::kVmcsLinkPointer), ~0ULL);
}

TEST(DefaultStatesTest, DefaultVmcbDescribesLongModeGuest) {
  const Vmcb v = MakeDefaultVmcb();
  EXPECT_NE(v.Read(VmcbField::kEfer) & Efer::kSvme, 0u);
  EXPECT_NE(v.Read(VmcbField::kCr0) & Cr0::kPg, 0u);
  EXPECT_NE(v.Read(VmcbField::kInterceptVec4) & SvmIntercept4::kVmrun, 0u);
  EXPECT_NE(v.Read(VmcbField::kGuestAsid), 0u);
}

}  // namespace
}  // namespace neco
