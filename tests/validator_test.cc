// Property and unit tests for the VM state validator — the paper's core
// contribution. The central properties:
//
//  P1 (soundness):    RoundToValid(x) passes the full spec-model check for
//                     every input x.
//  P2 (idempotence):  RoundToValid(RoundToValid(x)) == RoundToValid(x).
//  P3 (hardware):     RoundToValid(x) enters successfully on the simulated
//                     physical CPU.
//  P4 (boundedness):  BoundaryMutate flips at most 3 fields x 8 bits, each
//                     within its field's declared width, never a read-only
//                     field.
#include <gtest/gtest.h>

#include <span>

#include "src/arch/vmx_bits.h"
#include "src/core/validator/vmcb_validator.h"
#include "src/core/validator/vmcs_validator.h"
#include "src/cpu/svm_cpu.h"
#include "src/cpu/vmx_cpu.h"
#include "src/fuzz/mutator.h"
#include "src/support/rng.h"

namespace neco {
namespace {

Vmcs RandomVmcs(Rng& rng) {
  Vmcs v;
  for (const VmcsFieldInfo& info : VmcsFieldTable()) {
    v.Write(info.field, rng.Next());
  }
  return v;
}

Vmcb RandomVmcb(Rng& rng) {
  Vmcb v;
  for (const VmcbFieldInfo& info : VmcbFieldTable()) {
    v.Write(info.field, rng.Next());
  }
  return v;
}

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

// Runs GenerateBoundaryState over 256 seeded inputs and hashes each state's
// bit image plus where both readers stopped. Image slices vary in length
// (empty, shorter than the bit image, exactly it, a full input) and start
// at a seeded offset, so the image read wraps at every kind of boundary.
template <class Validator>
uint64_t GenerateSweepHash(const Validator& validator, size_t image_bytes,
                           uint64_t seed) {
  Rng rng(seed);
  Fnv1a64 h;
  for (int i = 0; i < 256; ++i) {
    FuzzInput image = MakeRandomInput(rng);
    const FuzzInput directive = MakeRandomInput(rng);
    const size_t lengths[] = {kFuzzInputSize, rng.Below(image_bytes),
                              image_bytes, rng.Between(1, kFuzzInputSize)};
    image.resize(lengths[i % 4]);
    ByteReader ir(image);
    ByteReader dr(directive);
    for (uint64_t skip = rng.Below(image.size() + 1); skip > 0; --skip) {
      ir.U8();
    }
    const auto state = validator.GenerateBoundaryState(ir, dr);
    h.Bytes(state.ToBitImage());
    h.U64(ir.consumed());
    h.U64(dr.consumed());
    h.U64(ir.U8());
    h.U64(dr.U8());
  }
  return h.hash;
}

// Generated states are what every campaign executes, so the golden event
// logs and resume pins rest on them. These hashes were captured from the
// byte-at-a-time reader and bit-at-a-time image codec.
TEST(BoundaryStateGoldenTest, IntelSweep) {
  const VmcsValidator validator(HostVmxCapabilities());
  EXPECT_EQ(GenerateSweepHash(validator, Vmcs::BitImageSize(), 29),
            0x90C0F5CB3ECAD7D2ULL);
}

TEST(BoundaryStateGoldenTest, AmdSweep) {
  const VmcbValidator validator;
  EXPECT_EQ(GenerateSweepHash(validator, Vmcb::BitImageSize(), 29),
            0xBB211731D991E814ULL);
}

class VmcsRoundingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VmcsRoundingProperty, RoundedStatePassesSpecModel) {
  VmcsValidator validator(HostVmxCapabilities());
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Vmcs raw = RandomVmcs(rng);
    const Vmcs rounded = validator.RoundToValid(raw);
    const ViolationList violations = validator.Validate(rounded);
    EXPECT_TRUE(violations.empty())
        << "seed " << GetParam() << " trial " << i << ": "
        << CheckIdName(violations.front());
  }
}

TEST_P(VmcsRoundingProperty, RoundingIsIdempotent) {
  VmcsValidator validator(HostVmxCapabilities());
  Rng rng(GetParam() ^ 0xabcdef);
  for (int i = 0; i < 30; ++i) {
    const Vmcs once = validator.RoundToValid(RandomVmcs(rng));
    const Vmcs twice = validator.RoundToValid(once);
    EXPECT_TRUE(once == twice) << "seed " << GetParam() << " trial " << i;
  }
}

TEST_P(VmcsRoundingProperty, RoundedStateEntersOnHardware) {
  VmcsValidator validator(HostVmxCapabilities());
  VmxCpu cpu;
  Rng rng(GetParam() ^ 0x123456);
  for (int i = 0; i < 50; ++i) {
    Vmcs rounded = validator.RoundToValid(RandomVmcs(rng));
    rounded.set_launch_state(Vmcs::LaunchState::kClear);
    const EntryOutcome outcome = cpu.TryEntry(rounded, /*launch=*/true);
    EXPECT_TRUE(outcome.entered())
        << "seed " << GetParam() << " trial " << i << ": hardware rejected "
        << CheckIdName(outcome.failed_check);
  }
}

// Restricted capability sets (vCPU configurations) must also round validly:
// the validator adapts to whatever the configurator produced.
TEST_P(VmcsRoundingProperty, RoundedStateValidUnderRestrictedCaps) {
  Rng rng(GetParam() ^ 0x777);
  for (int i = 0; i < 20; ++i) {
    CpuFeatureSet features;
    features.set_raw(rng.Next());
    features.Set(CpuFeature::kNestedVirt);
    const VmxCapabilities caps =
        MakeVmxCapabilities(features.RestrictedTo(Arch::kIntel));
    VmcsValidator validator(caps);
    const Vmcs rounded = validator.RoundToValid(RandomVmcs(rng));
    const ViolationList violations = validator.Validate(rounded);
    EXPECT_TRUE(violations.empty())
        << "features " << features.ToString() << ": "
        << CheckIdName(violations.front());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmcsRoundingProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

TEST(VmcsValidatorTest, RoundingForcesPaeForIa32e) {
  // The paper's Section 4.3 example: IA-32e mode guest with CR4.PAE unset
  // is rounded by forcing PAE to 1.
  VmcsValidator validator(HostVmxCapabilities());
  Vmcs v = MakeDefaultVmcs();
  v.Write(VmcsField::kGuestCr4, Cr4::kVmxe);
  const Vmcs rounded = validator.RoundToValid(v);
  EXPECT_NE(rounded.Read(VmcsField::kGuestCr4) & Cr4::kPae, 0u);
}

TEST(VmcsValidatorTest, RoundingPreservesAlreadyValidState) {
  VmcsValidator validator(HostVmxCapabilities());
  const Vmcs golden = MakeDefaultVmcs();
  const Vmcs rounded = validator.RoundToValid(golden);
  // Spot-check the load-bearing fields survive rounding untouched.
  for (VmcsField f :
       {VmcsField::kGuestCr0, VmcsField::kGuestCr4, VmcsField::kGuestRip,
        VmcsField::kHostRip, VmcsField::kGuestCsArBytes,
        VmcsField::kPinBasedVmExecControl, VmcsField::kVmEntryControls}) {
    EXPECT_EQ(rounded.Read(f), golden.Read(f)) << VmcsFieldName(f);
  }
}

TEST(VmcsValidatorTest, BoundaryMutationBounds) {
  VmcsValidator validator(HostVmxCapabilities());
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    const Vmcs base = validator.RoundToValid(RandomVmcs(rng));
    Vmcs mutated = base;
    FuzzInput directive_bytes = MakeRandomInput(rng);
    ByteReader directives(directive_bytes);
    validator.BoundaryMutate(mutated, directives);

    int fields_changed = 0;
    for (const VmcsFieldInfo& info : VmcsFieldTable()) {
      const uint64_t before = base.Read(info.field);
      const uint64_t after = mutated.Read(info.field);
      if (before == after) {
        continue;
      }
      ++fields_changed;
      EXPECT_NE(info.group, VmcsFieldGroup::kReadOnlyData)
          << "mutated read-only field " << info.name;
      const int bits_flipped = Popcount64(before ^ after);
      EXPECT_LE(bits_flipped, 8 * 3)  // Same field may be picked thrice.
          << info.name;
      // Flips stay within the declared width.
      EXPECT_EQ((before ^ after) & ~MaskLow(info.bits), 0u) << info.name;
    }
    EXPECT_LE(fields_changed, 3);
  }
}

TEST(VmcsValidatorTest, BoundaryStatesAreNearValid) {
  // Generated states must be close to the boundary: a large fraction
  // should still pass (mutation hit don't-care bits) and the failing rest
  // should fail *deep* checks, not first-reserved-bit checks only.
  VmcsValidator validator(HostVmxCapabilities());
  Rng rng(4242);
  int pass = 0;
  int fail = 0;
  for (int i = 0; i < 400; ++i) {
    FuzzInput image = MakeRandomInput(rng);
    FuzzInput directive = MakeRandomInput(rng);
    ByteReader ir(image);
    ByteReader dr(directive);
    const Vmcs state = validator.GenerateBoundaryState(ir, dr);
    if (validator.Validate(state).empty()) {
      ++pass;
    } else {
      ++fail;
    }
  }
  EXPECT_GT(pass, 40);  // Not trivially invalid.
  EXPECT_GT(fail, 40);  // Not trivially valid either: near the boundary.
}

TEST(VmcsValidatorTest, QuirkSuppressionAffectsVerdict) {
  VmcsValidator validator(HostVmxCapabilities());
  Vmcs v = MakeDefaultVmcs();
  v.Write(VmcsField::kGuestCr4, Cr4::kVmxe);  // PAE off under IA-32e.
  uint32_t entry = static_cast<uint32_t>(v.Read(VmcsField::kVmEntryControls));
  v.Write(VmcsField::kVmEntryControls, entry & ~EntryCtl::kLoadEfer);

  EXPECT_FALSE(validator.Validate(v).empty());
  validator.quirks().suppressed_checks.insert(CheckId::kGuestCr4PaeForIa32e);
  EXPECT_TRUE(validator.Validate(v).empty());
}

TEST(VmcsValidatorTest, CanonicalizePrimitive) {
  EXPECT_EQ(Canonicalize(0x0000800000000000ULL), 0xffff800000000000ULL);
  EXPECT_EQ(Canonicalize(0x00007fffffffffffULL), 0x00007fffffffffffULL);
  EXPECT_EQ(Canonicalize(0x1234000012345678ULL), 0x0000000012345678ULL);
  EXPECT_TRUE(IsCanonical(Canonicalize(0xdeadbeefcafef00dULL)));
}

// --- AMD side ---

class VmcbRoundingProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VmcbRoundingProperty, RoundedStatePassesSpecModel) {
  VmcbValidator validator;
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const Vmcb rounded = validator.RoundToValid(RandomVmcb(rng));
    const ViolationList violations = validator.Validate(rounded);
    EXPECT_TRUE(violations.empty())
        << "trial " << i << ": " << CheckIdName(violations.front());
  }
}

TEST_P(VmcbRoundingProperty, RoundingIsIdempotent) {
  VmcbValidator validator;
  Rng rng(GetParam() ^ 0x5555);
  for (int i = 0; i < 30; ++i) {
    const Vmcb once = validator.RoundToValid(RandomVmcb(rng));
    const Vmcb twice = validator.RoundToValid(once);
    EXPECT_TRUE(once == twice) << "trial " << i;
  }
}

TEST_P(VmcbRoundingProperty, RoundedStateEntersOnHardware) {
  VmcbValidator validator;
  SvmCpu cpu;
  cpu.set_svme(true);
  Rng rng(GetParam() ^ 0x9999);
  for (int i = 0; i < 50; ++i) {
    Vmcb rounded = validator.RoundToValid(RandomVmcb(rng));
    const VmrunOutcome outcome = cpu.Vmrun(rounded);
    EXPECT_TRUE(outcome.entered())
        << "trial " << i << ": " << CheckIdName(outcome.failed_check);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VmcbRoundingProperty,
                         ::testing::Values(2, 4, 6, 10, 16, 26, 42));

TEST(VmcbValidatorTest, RoundingRepairsLongModeCombination) {
  VmcbValidator validator;
  Vmcb v = MakeDefaultVmcb();
  v.Write(VmcbField::kCr4, 0);  // Long mode without PAE.
  const Vmcb rounded = validator.RoundToValid(v);
  EXPECT_NE(rounded.Read(VmcbField::kCr4) & Cr4::kPae, 0u);
  EXPECT_NE(rounded.Read(VmcbField::kEfer) & Efer::kLma, 0u);
}

TEST(VmcbValidatorTest, BoundaryMutationBounds) {
  VmcbValidator validator;
  Rng rng(1717);
  for (int trial = 0; trial < 200; ++trial) {
    const Vmcb base = validator.RoundToValid(RandomVmcb(rng));
    Vmcb mutated = base;
    FuzzInput directive_bytes = MakeRandomInput(rng);
    ByteReader directives(directive_bytes);
    validator.BoundaryMutate(mutated, directives);
    int fields_changed = 0;
    for (const VmcbFieldInfo& info : VmcbFieldTable()) {
      const uint64_t delta = base.Read(info.field) ^ mutated.Read(info.field);
      if (delta == 0) {
        continue;
      }
      ++fields_changed;
      EXPECT_EQ(delta & ~MaskLow(info.bits), 0u) << info.name;
    }
    EXPECT_LE(fields_changed, 3);
  }
}

}  // namespace
}  // namespace neco
