// Unit tests for the support library: RNG, bit utilities, byte reader
// (including Fill against a U8() loop), and the statistics helpers used by
// the benches.
#include <gtest/gtest.h>

#include <set>
#include <span>
#include <vector>

#include "src/support/bits.h"
#include "src/support/byte_reader.h"
#include "src/support/rng.h"
#include "src/support/stats.h"

namespace neco {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += a.Next() == b.Next();
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, BelowIsBounded) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
  }
  EXPECT_EQ(rng.Below(0), 0u);
  EXPECT_EQ(rng.Below(1), 0u);
}

TEST(RngTest, BetweenIsInclusive) {
  Rng rng(9);
  std::set<uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const uint64_t v = rng.Between(3, 6);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 6u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 4u);  // All four values appear.
}

TEST(RngTest, ReseedResetsStream) {
  Rng rng(42);
  const uint64_t first = rng.Next();
  rng.Next();
  rng.Reseed(42);
  EXPECT_EQ(rng.Next(), first);
}

TEST(BitsTest, MaskLow) {
  EXPECT_EQ(MaskLow(0), 0u);
  EXPECT_EQ(MaskLow(1), 1u);
  EXPECT_EQ(MaskLow(8), 0xffu);
  EXPECT_EQ(MaskLow(64), ~0ULL);
}

TEST(BitsTest, BitManipulation) {
  EXPECT_TRUE(TestBit(0b100, 2));
  EXPECT_FALSE(TestBit(0b100, 1));
  EXPECT_EQ(SetBit(0, 5), 32u);
  EXPECT_EQ(ClearBit(0xff, 0), 0xfeu);
  EXPECT_EQ(FlipBit(0, 3), 8u);
  EXPECT_EQ(AssignBit(0, 4, true), 16u);
  EXPECT_EQ(AssignBit(16, 4, false), 0u);
}

TEST(BitsTest, ExtractAndDeposit) {
  EXPECT_EQ(ExtractBits(0xabcd, 4, 8), 0xbcu);
  EXPECT_EQ(DepositBits(0xabcd, 4, 8, 0x12), 0xa12du);
}

TEST(BitsTest, CanonicalAddresses) {
  EXPECT_TRUE(IsCanonical(0));
  EXPECT_TRUE(IsCanonical(0x00007fffffffffffULL));
  EXPECT_TRUE(IsCanonical(0xffff800000000000ULL));
  EXPECT_TRUE(IsCanonical(~0ULL));
  EXPECT_FALSE(IsCanonical(0x0000800000000000ULL));
  EXPECT_FALSE(IsCanonical(0x8000000000000000ULL));
  EXPECT_FALSE(IsCanonical(0xfffe800000000000ULL & ~(1ULL << 47)));
}

TEST(BitsTest, Alignment) {
  EXPECT_EQ(AlignDown(0x12345, 12), 0x12000u);
  EXPECT_TRUE(IsAligned(0x3000, 12));
  EXPECT_FALSE(IsAligned(0x3001, 12));
}

TEST(BitsTest, HammingDistance) {
  const std::vector<uint8_t> a = {0xff, 0x00};
  const std::vector<uint8_t> b = {0x0f, 0x01};
  EXPECT_EQ(HammingDistance(a, b), 5u);
  EXPECT_EQ(HammingDistance(a, a), 0u);
  // Length mismatch counts the tail's set bits.
  const std::vector<uint8_t> c = {0xff};
  EXPECT_EQ(HammingDistance(a, c), 0u + 0);
  const std::vector<uint8_t> d = {0xff, 0x00, 0x03};
  EXPECT_EQ(HammingDistance(a, d), 2u);
}

TEST(ByteReaderTest, EmptyReaderReadsZero) {
  ByteReader reader;
  EXPECT_EQ(reader.U8(), 0);
  EXPECT_EQ(reader.U64(), 0u);
  EXPECT_EQ(reader.Below(100), 0u);
}

TEST(ByteReaderTest, ReadsLittleEndian) {
  const std::vector<uint8_t> data = {0x01, 0x02, 0x03, 0x04,
                                     0x05, 0x06, 0x07, 0x08};
  ByteReader reader(data);
  EXPECT_EQ(reader.U16(), 0x0201u);
  EXPECT_EQ(reader.U32(), 0x06050403u);
}

TEST(ByteReaderTest, WrapsAround) {
  const std::vector<uint8_t> data = {0xaa, 0xbb};
  ByteReader reader(data);
  EXPECT_EQ(reader.U8(), 0xaa);
  EXPECT_EQ(reader.U8(), 0xbb);
  EXPECT_EQ(reader.U8(), 0xaa);  // Wrapped.
  EXPECT_EQ(reader.consumed(), 3u);
}

TEST(ByteReaderTest, FillMatchesAU8Loop) {
  const std::vector<uint8_t> bytes = {0x10, 0x21, 0x32, 0x43, 0x54, 0x65, 0x76};
  for (size_t size : {size_t{0}, size_t{1}, bytes.size()}) {
    const std::span<const uint8_t> data(bytes.data(), size);
    const size_t lengths[] = {0, size > 0 ? size - 1 : 0, size, 3 * size + 1};
    // Start offsets before, at and past the end of the data, so runs wrap.
    for (size_t start = 0; start <= 2 * size + 1; ++start) {
      for (const size_t length : lengths) {
        ByteReader filled(data);
        ByteReader looped(data);
        for (size_t i = 0; i < start; ++i) {
          filled.U8();
          looped.U8();
        }
        std::vector<uint8_t> out(length, 0xee);
        filled.Fill(out);
        std::vector<uint8_t> expected(length);
        for (uint8_t& byte : expected) {
          byte = looped.U8();
        }
        EXPECT_EQ(out, expected) << size << "/" << start << "/" << length;
        EXPECT_EQ(filled.consumed(), looped.consumed())
            << size << "/" << start << "/" << length;
        EXPECT_EQ(filled.U8(), looped.U8())
            << size << "/" << start << "/" << length;
      }
    }
  }
}

TEST(ByteReaderTest, BelowBounded) {
  const std::vector<uint8_t> data = {0xde, 0xad, 0xbe, 0xef, 0x12};
  ByteReader reader(data);
  for (int i = 0; i < 50; ++i) {
    EXPECT_LT(reader.Below(7), 7u);
  }
}

TEST(ByteReaderTest, SliceIsIndependent) {
  const std::vector<uint8_t> data = {1, 2, 3, 4, 5, 6, 7, 8};
  ByteReader reader(data);
  ByteReader slice = reader.Slice(4, 2);
  EXPECT_EQ(slice.U8(), 5);
  EXPECT_EQ(slice.U8(), 6);
  EXPECT_EQ(slice.U8(), 5);  // Wraps within the slice.
  EXPECT_EQ(reader.U8(), 1);  // Parent cursor untouched.
}

TEST(StatsTest, RunningStats) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    s.Add(x);
  }
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 0.01);
  EXPECT_EQ(s.count(), 8u);
}

TEST(StatsTest, Median) {
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({4, 1, 2, 3}), 2.5);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(StatsTest, MannWhitneyDetectsSeparation) {
  // Clearly separated samples give a small p; identical samples give ~1.
  const std::vector<double> lo = {1, 2, 3, 4, 5};
  const std::vector<double> hi = {10, 11, 12, 13, 14};
  EXPECT_LT(MannWhitneyUP(lo, hi), 0.05);
  EXPECT_GT(MannWhitneyUP(lo, lo), 0.5);
}

TEST(StatsTest, CohensD) {
  RunningStats a;
  RunningStats b;
  for (int i = 0; i < 10; ++i) {
    a.Add(10.0 + (i % 2));
    b.Add(2.0 + (i % 2));
  }
  EXPECT_GT(CohensD(a, b), 5.0);
}

TEST(SplitMixTest, KnownSequenceIsStable) {
  uint64_t state = 0;
  const uint64_t first = SplitMix64(state);
  uint64_t state2 = 0;
  EXPECT_EQ(SplitMix64(state2), first);
  EXPECT_NE(SplitMix64(state2), first);
}

}  // namespace
}  // namespace neco
