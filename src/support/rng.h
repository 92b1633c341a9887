// Deterministic pseudo-random number generation for reproducible fuzzing.
//
// The engine is xoshiro256** seeded through splitmix64, which is the
// combination AFL++ and libFuzzer derivatives use for cheap, high-quality,
// fully deterministic streams. All campaign results in this repository are
// reproducible from a single 64-bit seed.
#ifndef SRC_SUPPORT_RNG_H_
#define SRC_SUPPORT_RNG_H_

#include <cstdint>
#include <cstddef>

namespace neco {

// splitmix64 step; used for seeding and as a standalone mixer.
constexpr uint64_t SplitMix64(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// xoshiro256** 1.0. Not thread-safe; create one per campaign/thread.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x6e65636f66757a7aULL) { Reseed(seed); }

  void Reseed(uint64_t seed) {
    uint64_t sm = seed;
    for (auto& w : s_) {
      w = SplitMix64(sm);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }

  // Uniform value in [0, bound). bound == 0 returns 0.
  uint64_t Below(uint64_t bound) {
    if (bound == 0) {
      return 0;
    }
    // Lemire's multiply-shift rejection-free reduction is fine here: the
    // slight modulo bias is irrelevant for fuzzing entropy.
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * bound) >> 64);
  }

  // Uniform value in [lo, hi] inclusive.
  uint64_t Between(uint64_t lo, uint64_t hi) {
    if (hi <= lo) {
      return lo;
    }
    return lo + Below(hi - lo + 1);
  }

  // True with probability num/den.
  bool Chance(uint64_t num, uint64_t den) { return Below(den) < num; }

  bool CoinFlip() { return (Next() & 1) != 0; }

  double NextDouble() {  // in [0, 1)
    return static_cast<double>(Next() >> 11) * 0x1.0p-53;
  }

  // Raw generator state, for durable campaign snapshots: a restored
  // stream must continue exactly where the saved one stopped, so the
  // four state words travel through the wire codec verbatim.
  struct State {
    uint64_t s[4] = {};

    bool operator==(const State&) const = default;
  };

  State GetState() const {
    State state;
    for (size_t i = 0; i < 4; ++i) {
      state.s[i] = s_[i];
    }
    return state;
  }

  void SetState(const State& state) {
    for (size_t i = 0; i < 4; ++i) {
      s_[i] = state.s[i];
    }
  }

 private:
  static constexpr uint64_t Rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  uint64_t s_[4] = {};
};

}  // namespace neco

#endif  // SRC_SUPPORT_RNG_H_
