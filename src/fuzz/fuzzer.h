// The coverage-guided fuzzing loop (the AFL++ role in the paper).
//
// The fuzzer owns the corpus, the virgin bitmap, and the mutation
// schedule; the embedder supplies an executor callback that runs one
// 2 KiB input end to end (agent -> fuzz-harness VM -> target hypervisor)
// and reports the edges it touched plus any detected anomalies.
//
// Coverage guidance is optional (paper Table 5 / Section 5.6): with
// guidance off the loop becomes the breadth-first boundary explorer the
// paper found nearly as effective, drawing fresh random inputs instead of
// mutating interesting queue entries.
#ifndef SRC_FUZZ_FUZZER_H_
#define SRC_FUZZ_FUZZER_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/fuzz/bitmap.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/mutator.h"

namespace neco {

struct WorkerStateRecord;  // src/core/wire.h

// What one execution of the harness reported back to the fuzzer.
struct ExecFeedback {
  std::vector<uint32_t> edges;   // Edge ids hit during the run.
  bool anomaly = false;          // A sanitizer/log anomaly fired.
  std::string anomaly_id;        // Stable bug id, for crash dedup.
};

using Executor = std::function<ExecFeedback(const FuzzInput&)>;

struct FuzzerOptions {
  uint64_t seed = 1;
  bool coverage_guidance = true;
  // Havoc intensity.
  unsigned havoc_stack = 16;
  // Probability (percent) of splicing instead of plain havoc.
  unsigned splice_percent = 15;
};

struct FuzzerStats {
  uint64_t iterations = 0;
  uint64_t queue_size = 0;
  uint64_t unique_anomalies = 0;
  uint64_t bitmap_edges = 0;

  bool operator==(const FuzzerStats&) const = default;
};

// One shard's per-epoch progress as a self-contained record (everything
// since the previous export), the fuzz-layer half of the ShardDelta the
// merge pipeline serializes (src/core/wire.h). Finding reports are not
// here: the agent layer contributes those to the ShardDelta directly
// (one execution can surface several anomalies but reports only the
// first through ExecFeedback, so the agent's findings map — not the
// crash list — is the complete per-shard set).
struct FuzzerDelta {
  BitmapDelta virgin;  // Edges newly seen.
  // Discoveries past the export cursor, as pointers into the fuzzer's
  // corpus — the entries are only serialized (wire::Encode(ShardDelta,
  // queue_entries) references them), so exporting does not copy 2 KiB
  // per entry. Valid until the corpus next grows (the fuzzer's next
  // Run or ImportCorpusEntry call).
  std::vector<const FuzzInput*> queue_entries;
  uint64_t iterations = 0;  // Executions spent.
  // Crash reproduction pairs discovered since the previous export, in
  // discovery order — what lets a journaling campaign commit crash
  // artifacts with the epoch that found them.
  std::vector<std::pair<std::string, FuzzInput>> crashes;
};

class Fuzzer {
 public:
  Fuzzer(FuzzerOptions options, Executor executor);

  // Runs `iterations` executions; may be called repeatedly to continue.
  void Run(uint64_t iterations);

  // Saved inputs that triggered anomalies, deduplicated by bug id.
  const std::vector<std::pair<std::string, FuzzInput>>& crashes() const {
    return crashes_;
  }

  FuzzerStats stats() const;
  const Corpus& corpus() const { return corpus_; }
  uint64_t iterations() const { return iterations_; }

  // --- Cross-shard campaign hooks (src/core/merge_pipeline) ---
  //
  // Shards communicate exclusively through self-contained delta records:
  // instead of exposing the whole virgin map for a lock-step merge, the
  // fuzzer exports what changed since the last export and absorbs other
  // shards' novelty as deltas. See src/core/wire.h for the serialized
  // form these feed into.

  // The accumulated seen-edges map (AFL "virgin" map, with seen bits set).
  const CoverageBitmap& virgin_map() const { return virgin_; }

  // Everything this fuzzer learned since the previous ExportDelta() call:
  // newly seen edges, queue entries discovered past the export cursor, and
  // the iterations spent. Consecutive calls yield disjoint deltas;
  // replaying every delta in order reconstructs the fuzzer's contribution
  // exactly.
  FuzzerDelta ExportDelta();

  // Marks edges another shard (or the merged global view) already saw as
  // non-novel here, so syncing shards stop re-queueing each other's
  // discoveries. Absorbed bits are also excluded from future ExportDelta
  // results — they are someone else's news.
  void ApplyVirginDelta(const BitmapDelta& delta);

  // Excludes the current queue contents (e.g. just-imported entries) from
  // the next ExportDelta: re-publishing imports would bounce inputs
  // between shards, duplicating traffic without bound.
  void MarkQueueExported() { export_cursor_ = corpus_.size(); }

  // Adopts an input another shard found interesting, unless an identical
  // input is already queued here (every shard re-publishes to every other,
  // so without this hash guard the same entry would bloat each queue once
  // per publisher in guided mode). An adopted entry joins the queue
  // directly (unexecuted, never favored) so imports consume no iteration
  // budget. Returns whether the entry actually joined the queue.
  bool ImportCorpusEntry(const FuzzInput& input);

  // --- Materialized snapshots (src/core/state/snapshot.h) ---
  //
  // Full-state siblings of ExportDelta/ApplyVirginDelta: the fuzzer
  // section of a WorkerStateRecord is everything needed to continue this
  // fuzzer bit-exactly — both RNG streams, the full queue with its
  // scheduling metadata, the virgin map, the crash pairs, and the
  // iteration count.

  // Fills the fuzzer section of `*out` (other sections untouched).
  void ExportState(WorkerStateRecord* out);

  // Restores from the fuzzer section of `*record`, consuming its corpus
  // and crash-input vectors (bulk moves — reload stays O(entries) with
  // one reserve even at millions of entries). Derived state — the
  // queue-hash index, seen bug ids, and the export cursors — is rebuilt
  // here, positioned as if every restored entry had already been
  // exported (the merged side of the snapshot already has them).
  void ImportState(WorkerStateRecord* record);

 private:
  void NextInput(FuzzInput* out);

  FuzzerOptions options_;
  // Scratch input reused across Run iterations (allocation-free steady
  // state); only Run and NextInput touch it.
  FuzzInput scratch_;
  Executor executor_;
  Mutator mutator_;
  Corpus corpus_;
  // Per-exec trace accumulator, reused across executions so the classify
  // + merge + reset cycle is O(trace), not O(64 KiB bitmap).
  SparseTrace trace_;
  // Content hashes of every queued input (own discoveries and imports),
  // the dedup guard for cross-shard imports.
  std::unordered_set<uint64_t> queue_hashes_;
  CoverageBitmap virgin_;
  std::vector<std::pair<std::string, FuzzInput>> crashes_;
  std::unordered_set<std::string> seen_bug_ids_;
  uint64_t iterations_ = 0;
  // ExportDelta cursor state: what the last export already shipped.
  CoverageBitmap virgin_exported_;
  size_t export_cursor_ = 0;
  uint64_t iterations_exported_ = 0;
  size_t crashes_exported_ = 0;
};

}  // namespace neco

#endif  // SRC_FUZZ_FUZZER_H_
