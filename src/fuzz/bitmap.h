// AFL-style edge-coverage bitmap.
//
// The agent maps hypervisor coverage points into this 64 KiB shared bitmap
// (the same size AFL++ uses); hit counts are bucketed into the classic
// power-of-two classes before novelty comparison against the virgin map.
//
// The per-exec hot path (classify the trace, merge it into the virgin
// map) used to walk all 65,536 cells byte at a time even though one
// execution touches only dozens of them. Two layers fix that:
//
//  * CoverageBitmap's full-map operations (ClassifyCounts, MergeInto,
//    ExtractDeltaSince) are word-at-a-time: a uint64 load per 8 cells,
//    and `(cur & ~virgin) == 0` skips an uninteresting word in one
//    compare. The straightforward byte loops are retained as
//    *Scalar reference implementations; tests/bitmap_test.cc proves the
//    word paths bit-identical on randomized maps.
//  * SparseTrace wraps a trace bitmap with a touched-word set, so the
//    per-exec classify + merge + clear visit only the words the trace
//    actually dirtied — O(trace), not O(64 KiB).
//
// bench/hot_path measures both layers; BENCH_hotpath.json tracks them.
#ifndef SRC_FUZZ_BITMAP_H_
#define SRC_FUZZ_BITMAP_H_

#include <array>
#include <cstdint>
#include <cstring>
#include <vector>

namespace neco {

// Sparse difference between two coverage bitmaps: the cells whose bit set
// grew, with the bits that appeared there. This is the unit shards ship to
// the merge pipeline instead of whole 64 KiB virgin maps — applying every
// delta a map ever produced reconstructs the map exactly (ApplyDelta is an
// OR, so duplicated cells are harmless).
struct BitmapDelta {
  std::vector<uint32_t> cells;  // Parallel arrays: cell index ...
  std::vector<uint8_t> bits;    // ... and the bits that appeared there.

  bool empty() const { return cells.empty(); }
  size_t size() const { return cells.size(); }

  void Reserve(size_t n) {
    cells.reserve(n);
    bits.reserve(n);
  }

  void Append(uint32_t cell, uint8_t grown) {
    cells.push_back(cell);
    bits.push_back(grown);
  }

  // Concatenates another delta (used to hand several epochs' global
  // novelty to a shard in one feedback record).
  void Append(const BitmapDelta& other) {
    cells.insert(cells.end(), other.cells.begin(), other.cells.end());
    bits.insert(bits.end(), other.bits.begin(), other.bits.end());
  }

  bool operator==(const BitmapDelta&) const = default;
};

class CoverageBitmap {
 public:
  static constexpr size_t kSize = 1 << 16;
  // Cells per uint64 word, and the word count of the map.
  static constexpr size_t kCellsPerWord = sizeof(uint64_t);
  static constexpr size_t kWords = kSize / kCellsPerWord;

  CoverageBitmap() { Clear(); }

  void Clear() { map_.fill(0); }

  void Add(uint32_t edge_id) {
    uint8_t& cell = map_[edge_id % kSize];
    if (cell < 255) {
      ++cell;
    }
  }

  // Classic AFL hit-count bucketing: 1, 2, 3, 4-7, 8-15, 16-31, 32-127,
  // 128+ collapse into distinct bits. Word-at-a-time: zero words (the
  // vast majority of any real trace) are skipped with one compare, and
  // non-zero words go through the 16-bit bucket lookup table two cells
  // at a time.
  void ClassifyCounts();

  // Byte-at-a-time reference implementation of ClassifyCounts; the
  // equivalence tests pin the word path against it.
  void ClassifyCountsScalar() {
    for (auto& cell : map_) {
      cell = Bucket(cell);
    }
  }

  // Merges this (classified) map into `virgin`, reporting whether any new
  // bits appeared. Returns 2 for new edges, 1 for new hit-count buckets
  // only, 0 for nothing new (AFL semantics). Word-at-a-time: a word with
  // `cur == 0` or `(cur & ~virgin) == 0` is skipped in one compare; only
  // words carrying novelty fall back to per-cell classification.
  int MergeInto(CoverageBitmap& virgin) const {
    int ret = 0;
    for (size_t w = 0; w < kWords; ++w) {
      const uint64_t cur = LoadWord(w);
      if (cur == 0) {
        continue;
      }
      const uint64_t vw = virgin.LoadWord(w);
      if ((cur & ~vw) == 0) {
        continue;
      }
      ret = MergeWordCells(w, virgin, ret);
    }
    return ret;
  }

  // Byte-at-a-time reference implementation of MergeInto, kept for the
  // randomized equivalence tests (this is the collapsed form of the
  // original loop, whose ternary-then-if/else branch pair computed the
  // same value twice).
  int MergeIntoScalar(CoverageBitmap& virgin) const {
    int ret = 0;
    for (size_t i = 0; i < kSize; ++i) {
      const uint8_t cur = map_[i];
      if (cur == 0) {
        continue;
      }
      uint8_t& v = virgin.map_[i];
      if ((cur & ~v) != 0) {
        if (v == 0) {
          ret = 2;
        } else if (ret < 1) {
          ret = 1;
        }
        v |= cur;
      }
    }
    return ret;
  }

  // Every cell whose bit set grew relative to `snapshot`, with the newly
  // appearing bits; advances `snapshot` to match this map, so consecutive
  // calls yield disjoint deltas. Word-at-a-time: words where
  // `(map & ~snapshot) == 0` — everything once coverage saturates — cost
  // one load and one compare.
  BitmapDelta ExtractDeltaSince(CoverageBitmap& snapshot) const {
    BitmapDelta delta;
    for (size_t w = 0; w < kWords; ++w) {
      const uint64_t cur = LoadWord(w);
      if (cur == 0) {
        continue;
      }
      if ((cur & ~snapshot.LoadWord(w)) == 0) {
        continue;
      }
      for (size_t i = w * kCellsPerWord; i < (w + 1) * kCellsPerWord; ++i) {
        const uint8_t grown =
            static_cast<uint8_t>(map_[i] & ~snapshot.map_[i]);
        if (grown != 0) {
          delta.Append(static_cast<uint32_t>(i), grown);
          snapshot.map_[i] |= grown;
        }
      }
    }
    return delta;
  }

  // Byte-at-a-time reference implementation of ExtractDeltaSince.
  BitmapDelta ExtractDeltaSinceScalar(CoverageBitmap& snapshot) const {
    BitmapDelta delta;
    for (size_t i = 0; i < kSize; ++i) {
      const uint8_t grown =
          static_cast<uint8_t>(map_[i] & ~snapshot.map_[i]);
      if (grown != 0) {
        delta.Append(static_cast<uint32_t>(i), grown);
        snapshot.map_[i] |= grown;
      }
    }
    return delta;
  }

  // Folds a delta in (the merge side of ExtractDeltaSince).
  void ApplyDelta(const BitmapDelta& delta) {
    for (size_t i = 0; i < delta.cells.size(); ++i) {
      map_[delta.cells[i] % kSize] |= delta.bits[i];
    }
  }

  // ORs `bits` into one cell, returning the bits that were new there (the
  // merge pipeline uses this to record per-epoch global novelty).
  uint8_t OrCell(size_t cell, uint8_t bits) {
    uint8_t& v = map_[cell % kSize];
    const uint8_t grown = static_cast<uint8_t>(bits & ~v);
    v |= bits;
    return grown;
  }

  size_t CountNonZero() const {
    size_t n = 0;
    for (size_t w = 0; w < kWords; ++w) {
      if (LoadWord(w) == 0) {
        continue;
      }
      for (size_t i = w * kCellsPerWord; i < (w + 1) * kCellsPerWord; ++i) {
        n += map_[i] != 0;
      }
    }
    return n;
  }

  const uint8_t* data() const { return map_.data(); }
  uint8_t at(size_t i) const { return map_[i % kSize]; }

  // The classic AFL hit-count bucket of one cell (exposed for tests and
  // the lookup-table build in bitmap.cc).
  static uint8_t Bucket(uint8_t count) {
    if (count == 0) return 0;
    if (count == 1) return 1 << 0;
    if (count == 2) return 1 << 1;
    if (count == 3) return 1 << 2;
    if (count <= 7) return 1 << 3;
    if (count <= 15) return 1 << 4;
    if (count <= 31) return 1 << 5;
    if (count <= 127) return 1 << 6;
    return 1 << 7;
  }

 private:
  friend class SparseTrace;

  // One aligned 8-cell load; the memcpy compiles to a single mov. The
  // alignas guarantees the tail never crosses the array bound: kSize is a
  // multiple of 8, so word kWords-1 covers exactly cells kSize-8..kSize-1
  // (no out-of-bounds word read for ASan to object to).
  uint64_t LoadWord(size_t w) const {
    uint64_t v;
    std::memcpy(&v, map_.data() + w * kCellsPerWord, sizeof(v));
    return v;
  }
  void StoreWord(size_t w, uint64_t v) {
    std::memcpy(map_.data() + w * kCellsPerWord, &v, sizeof(v));
  }

  // Per-cell novelty classification for one word that is known to carry
  // new bits (defined in bitmap.cc alongside the classify table).
  int MergeWordCells(size_t w, CoverageBitmap& virgin, int ret) const;

  alignas(alignof(uint64_t)) std::array<uint8_t, kSize> map_;
};

// Per-execution trace accumulator: a coverage bitmap plus the set of words
// any Add() dirtied, so the per-exec classify + merge-into-virgin + reset
// cycle visits only the touched words instead of all 64 KiB. Reused across
// executions (Clear() zeroes touched words only); produces bit-identical
// results to running the full-map operations on a fresh CoverageBitmap —
// tests/bitmap_test.cc pins the equivalence on randomized traces.
class SparseTrace {
 public:
  SparseTrace() = default;

  // Records one edge hit (same cell mapping and 255-saturation as
  // CoverageBitmap::Add).
  void Add(uint32_t edge_id) {
    const size_t cell = edge_id % CoverageBitmap::kSize;
    const uint32_t word =
        static_cast<uint32_t>(cell / CoverageBitmap::kCellsPerWord);
    if (dirty_[word] == 0) {
      dirty_[word] = 1;
      touched_.push_back(word);
    }
    uint8_t& c = map_.map_[cell];
    if (c < 255) {
      ++c;
    }
  }

  // Buckets hit counts in the touched words (identical to a full-map
  // ClassifyCounts because every untouched word is zero).
  void ClassifyCounts();

  // MergeInto restricted to the touched words; same 0/1/2 novelty result
  // and the same virgin-map effect as the full-map form. Word order does
  // not matter: the result is a max over cells and the merge is an OR.
  int MergeInto(CoverageBitmap& virgin) const;

  // Zeroes the touched words and forgets them — O(trace), not O(64 KiB).
  void Clear() {
    for (const uint32_t w : touched_) {
      map_.StoreWord(w, 0);
      dirty_[w] = 0;
    }
    touched_.clear();
  }

  const CoverageBitmap& bitmap() const { return map_; }
  size_t touched_words() const { return touched_.size(); }

 private:
  CoverageBitmap map_;
  std::vector<uint32_t> touched_;  // Dirty word indexes, insertion order.
  std::array<uint8_t, CoverageBitmap::kWords> dirty_{};  // Dedup flags.
};

}  // namespace neco

#endif  // SRC_FUZZ_BITMAP_H_
