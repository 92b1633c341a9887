// Fuzzing corpus (AFL queue) with favored-entry scheduling.
#ifndef SRC_FUZZ_CORPUS_H_
#define SRC_FUZZ_CORPUS_H_

#include <cstdint>
#include <vector>

#include "src/fuzz/mutator.h"
#include "src/support/rng.h"

namespace neco {

struct QueueEntry {
  FuzzInput input;
  uint64_t discovered_at_iter = 0;
  uint64_t times_fuzzed = 0;
  size_t new_edges = 0;   // Edges this entry contributed when found.
  bool favored = false;

  bool operator==(const QueueEntry&) const = default;
};

class Corpus {
 public:
  explicit Corpus(uint64_t seed) : rng_(seed) {}

  void Add(FuzzInput input, uint64_t iter, size_t new_edges) {
    QueueEntry e;
    e.input = std::move(input);
    e.discovered_at_iter = iter;
    e.new_edges = new_edges;
    e.favored = new_edges >= kFavorThreshold;
    entries_.push_back(std::move(e));
  }

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }

  // Energy-weighted pick: favored and recently discovered entries are
  // chosen more often; a small fraction of picks is uniform to avoid
  // starvation.
  QueueEntry& Pick() {
    if (rng_.Chance(1, 8) || entries_.size() == 1) {
      return entries_[rng_.Below(entries_.size())];
    }
    // Two tournament rounds over favored-ness and fuzz count.
    QueueEntry* best = &entries_[rng_.Below(entries_.size())];
    for (int i = 0; i < 2; ++i) {
      QueueEntry* cand = &entries_[rng_.Below(entries_.size())];
      const bool cand_better =
          (cand->favored && !best->favored) ||
          (cand->favored == best->favored &&
           cand->times_fuzzed < best->times_fuzzed);
      if (cand_better) {
        best = cand;
      }
    }
    return *best;
  }

  const QueueEntry& at(size_t i) const { return entries_[i]; }
  QueueEntry& at(size_t i) { return entries_[i]; }

  // Random donor for splicing.
  const FuzzInput& RandomDonor() {
    return entries_[rng_.Below(entries_.size())].input;
  }

  // Snapshot hooks: the scheduler RNG and the full entry metadata
  // (times_fuzzed, favored, ...) are campaign state — a resumed corpus
  // must Pick() the same sequence the interrupted one would have.
  Rng::State rng_state() const { return rng_.GetState(); }
  void set_rng_state(const Rng::State& state) { rng_.SetState(state); }

  // Bulk restore for snapshot resume: one reserve, then entries appended
  // with their exact saved metadata (Add() would recompute favored).
  void RestoreEntries(std::vector<QueueEntry> entries) {
    entries_ = std::move(entries);
  }
  void Reserve(size_t n) { entries_.reserve(n); }

 private:
  static constexpr size_t kFavorThreshold = 4;

  Rng rng_;
  std::vector<QueueEntry> entries_;
};

}  // namespace neco

#endif  // SRC_FUZZ_CORPUS_H_
