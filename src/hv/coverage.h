// Line-coverage instrumentation for the simulated hypervisors.
//
// The paper measures line coverage of the nested-virtualization source
// files (KVM's vmx/nested.c and svm/nested.c, Xen's vvmx.c/nestedsvm.c)
// via kcov/gcov. Here every instrumentable basic block in a simulator
// translation unit is marked with the NVCOV() macro, which uses
// __COUNTER__ to assign dense per-unit point ids at compile time; the
// sentinel taken at the end of the TU yields the unit's total point count.
// A CoverageUnit therefore knows both "which lines ran" and "how many
// lines exist", giving the same cov%/#line metric as the paper's tables.
#ifndef SRC_HV_COVERAGE_H_
#define SRC_HV_COVERAGE_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace neco {

// Line coverage in percent (0 for a unit without points): the one
// expression shards, the merge fold and the merged result all share.
inline double CoveragePercent(size_t covered, size_t total) {
  return total == 0 ? 0.0
                    : 100.0 * static_cast<double>(covered) /
                          static_cast<double>(total);
}

class CoverageUnit {
 public:
  CoverageUnit(std::string name, size_t total_points)
      : name_(std::move(name)), hits_(total_points, 0) {}

  void Hit(size_t point) {
    if (point < hits_.size()) {
      hits_[point] = 1;
      ++hit_events_;
      trace_.push_back(static_cast<uint32_t>(point));
    }
  }

  // Per-execution trace: every Hit() since the last drain, in order. The
  // fuzzing agent drains this after each run to feed the AFL bitmap.
  std::vector<uint32_t> DrainTrace() {
    std::vector<uint32_t> out = std::move(trace_);
    trace_.clear();
    return out;
  }

  std::string_view name() const { return name_; }
  size_t total_points() const { return hits_.size(); }

  size_t covered_points() const {
    size_t n = 0;
    for (uint8_t h : hits_) {
      n += h;
    }
    return n;
  }

  double percent() const {
    return CoveragePercent(covered_points(), total_points());
  }

  bool IsCovered(size_t point) const {
    return point < hits_.size() && hits_[point] != 0;
  }

  // Set of covered point ids (for the A∩B / A−B rows of Tables 2 and 4).
  std::vector<size_t> CoveredSet() const;

  // Point ids newly covered relative to `snapshot` (grown to total_points
  // on first use); advances the snapshot so consecutive calls yield
  // disjoint deltas. The covered-set half of the shard-delta protocol
  // (src/core/wire.h): shipping these instead of the whole hits vector
  // keeps per-epoch merge records proportional to actual progress.
  // Word-at-a-time: 8 hit bytes are compared against the snapshot per
  // load (unaligned-safe, tail handled byte-wise), so the per-epoch scan
  // is one compare per 8 points once coverage saturates.
  std::vector<uint32_t> ExtractDeltaSince(std::vector<uint8_t>& snapshot) const;

  // Byte-at-a-time reference implementation of ExtractDeltaSince, kept
  // for the randomized equivalence tests (tests/bitmap_test.cc).
  std::vector<uint32_t> ExtractDeltaSinceScalar(
      std::vector<uint8_t>& snapshot) const;

  // Folds a delta into a covered-set byte vector (the merge side of
  // ExtractDeltaSince), returning how many points were newly covered;
  // out-of-range points are ignored.
  static size_t ApplyDelta(const std::vector<uint32_t>& delta,
                           std::vector<uint8_t>& covered);

  // Raw hit vector for bitmap mapping by the fuzzing agent.
  const std::vector<uint8_t>& hits() const { return hits_; }

  // Total Hit() calls (edge-ish signal used for guidance).
  uint64_t hit_events() const { return hit_events_; }

  void ResetCoverage() {
    std::fill(hits_.begin(), hits_.end(), 0);
    trace_.clear();
    hit_events_ = 0;
  }

  // Snapshot restore: reinstates accumulated coverage at an epoch
  // boundary (trace_ is drained after every execution, so it is empty
  // there by construction). Out-of-range points are ignored, mirroring
  // ApplyDelta.
  void RestoreCoverage(const std::vector<uint32_t>& covered,
                       uint64_t hit_events) {
    std::fill(hits_.begin(), hits_.end(), 0);
    for (uint32_t point : covered) {
      if (point < hits_.size()) {
        hits_[point] = 1;
      }
    }
    trace_.clear();
    hit_events_ = hit_events;
  }

 private:
  std::string name_;
  std::vector<uint8_t> hits_;
  std::vector<uint32_t> trace_;
  uint64_t hit_events_ = 0;
};

// Marks one basic block in a simulator TU. `unit` is a CoverageUnit&.
#define NVCOV(unit) (unit).Hit(__COUNTER__)

// Set algebra over covered-point sets, reported in Tables 2/4 as A−B, A∩B.
std::vector<size_t> CoverageIntersect(const std::vector<size_t>& a,
                                      const std::vector<size_t>& b);
std::vector<size_t> CoverageSubtract(const std::vector<size_t>& a,
                                     const std::vector<size_t>& b);

}  // namespace neco

#endif  // SRC_HV_COVERAGE_H_
