// The delta merge pipeline: a single drain loop over a ShardTransport.
//
// PR 3 replaced the per-epoch stop-the-world barrier with this pipeline;
// PR 4 split it from its medium. Workers publish self-contained,
// wire-encoded ShardDeltas (src/core/wire.h) into a ShardTransport
// (src/core/transport/) — an in-process bounded queue for thread shards,
// one byte stream per child process for process and socket shards —
// and the merge loop drains whichever transport it was given, decodes,
// assigns deterministic epoch numbers, and folds into the global virgin
// bitmap, covered set, finding-dedup map, and corpus pool in fixed
// (epoch, worker) order. Observer events therefore fire in exactly the
// same merge-ordered sequence the barrier produced, for any drain size,
// any thread timing, and any transport; only wall-clock interleaving
// changes.
//
// Feedback (the merged state corpus-syncing shards absorb at epoch
// boundaries) is pushed in every shard mode: with options.push_feedback
// the drainer sends each worker a FeedbackRecord right after folding an
// epoch — the other shards' pool entries from that epoch plus its global
// novelty. Shards absorb every epoch's feedback in order, so that one
// epoch is all the pipeline keeps.
#ifndef SRC_CORE_MERGE_PIPELINE_H_
#define SRC_CORE_MERGE_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/core/campaign.h"
#include "src/core/transport/transport.h"
#include "src/core/wire.h"
#include "src/fuzz/bitmap.h"
#include "src/support/mutex.h"
#include "src/support/thread_annotations.h"

namespace neco {

class CampaignJournal;
class CampaignObserver;

struct MergePipelineOptions {
  int workers = 1;
  // Global epoch count (max over shards); every worker must publish one
  // delta per epoch, empty deltas included, so the drainer can tell a
  // complete epoch from a pending one.
  size_t epochs = 0;
  size_t total_points = 0;  // Line-coverage universe size.
  // Push an encoded FeedbackRecord to every worker through the transport
  // after folding each epoch but the last: set whenever shards sync.
  bool push_feedback = false;
  // Durable campaign state (src/core/state/journal.h), borrowed; null for
  // a memory-resident campaign. With a journal, every finalized epoch is
  // committed — crash artifacts, then the epoch's raw delta frames, then
  // the manifest — BEFORE its observer events fire, so an event stream
  // never gets ahead of what a resume can reproduce.
  CampaignJournal* journal = nullptr;
  // Epochs already committed by a previous incarnation. The fold replays
  // them: merged state and feedback advance exactly as they originally
  // did, the re-published frames are verified byte-for-byte against the
  // journal, and observer events are suppressed — the stream resumes
  // precisely where the interrupted run's commits stopped.
  size_t resume_epochs = 0;
  // Materialized-snapshot cadence (journal mode; 0 disables): at every
  // snapshot_every-th epoch the workers publish a WorkerStateRecord frame
  // right before that epoch's ShardDelta, the drainer stages them, and
  // the fold assembles + commits a CampaignSnapshot in the same commit as
  // the epoch — durably on disk before any of the epoch's observer
  // events fire.
  size_t snapshot_every = 0;
  // Resume seed (borrowed, may be null): the merged half of the snapshot
  // the campaign restarts from. The pipeline then starts with epochs
  // [0, restore->epochs_covered) already finalized — merged state and the
  // last epoch's feedback as the original incarnation left them — and
  // the fold begins at the horizon instead of epoch 0.
  const SnapshotMergedStateRecord* restore = nullptr;
  // Crash-artifact metadata stamped into persisted records (journal mode).
  std::string hypervisor;
  std::string arch;
};

// Drain-loop counters (the transport counts bytes and queue depth itself;
// see TransportStats).
struct MergePipelineStats {
  uint64_t flushes = 0;  // Drainer wake-ups.
};

class MergePipeline {
 public:
  // The transport is borrowed and must outlive the pipeline. Observers are
  // borrowed; every dispatch is exception-guarded (the first escaping
  // exception is recorded, later ones are dropped) so a throwing observer
  // can never strand worker threads — the engine rethrows observer_error()
  // after everything joined.
  MergePipeline(MergePipelineOptions options, ShardTransport* transport,
                std::vector<CampaignObserver*> observers);

  // --- Drainer ---

  // Drains the transport and folds published deltas until every epoch is
  // finalized (or Abort()). The engine runs this on the thread that
  // called Run(); observer events fire here, never concurrently. Throws
  // std::runtime_error on a corrupt delta or a transport failure (a dead
  // shard surfaces here, never as a hang).
  void RunMergeLoop() NECO_EXCLUDES(state_mu_);

  // Aborts the transport (unblocking its producers, Drain, and shards
  // waiting for feedback); used when a worker dies so nobody waits
  // forever.
  void Abort();
  bool aborted() const { return aborted_; }

  // --- Exception-guarded observer dispatch for the final assembly ---
  void NotifyShardDone(const ShardDoneEvent& event)
      NECO_EXCLUDES(error_mu_);
  void NotifyFinish(const FinishEvent& event) NECO_EXCLUDES(error_mu_);
  std::exception_ptr observer_error() const NECO_EXCLUDES(error_mu_);

  // --- Merged state accessors ---
  // The returned references stay valid for the pipeline's lifetime, but
  // their *contents* are only stable once RunMergeLoop() returned — which
  // is the only time the engine reads them. Each accessor still takes the
  // lock for the member access so the discipline is compiler-checked end
  // to end, not waived for readers.
  const CoverageBitmap& virgin() const NECO_EXCLUDES(state_mu_);
  const std::vector<uint8_t>& covered() const NECO_EXCLUDES(state_mu_);
  size_t covered_points() const NECO_EXCLUDES(state_mu_);
  const std::map<std::string, AnomalyReport>& findings() const
      NECO_EXCLUDES(state_mu_);
  const std::vector<CoverageSample>& series() const NECO_EXCLUDES(state_mu_);
  size_t finalized_epochs() const NECO_EXCLUDES(state_mu_);
  MergePipelineStats stats() const NECO_EXCLUDES(state_mu_);

 private:
  // A decoded delta plus (journal mode only) the exact frame bytes it
  // arrived as — what CommitEpoch persists and VerifyEpoch compares.
  struct StagedDelta {
    std::unique_ptr<ShardDelta> delta;
    wire::Buffer raw;
  };

  void Stage(std::unique_ptr<ShardDelta> delta, wire::Buffer raw);
  // Stages a worker's full-state record for its snapshot epoch (drainer
  // thread only, like Stage). FIFO framing per worker guarantees the
  // state frame precedes the same epoch's delta, so by the time an epoch
  // can fold every worker's state is staged.
  void StageWorkerState(std::unique_ptr<WorkerStateRecord> record);
  // Whether `epoch`'s fold commits a materialized snapshot.
  bool SnapshotEpoch(size_t epoch) const {
    return options_.snapshot_every != 0 &&
           (epoch + 1) % options_.snapshot_every == 0;
  }
  void FoldReadyEpochs() NECO_EXCLUDES(state_mu_);
  // Encodes and pushes every worker's FeedbackRecord for `epoch`, the
  // last folded one; throws on a transport failure.
  void PushEpochFeedback(size_t epoch);
  template <typename Fn>
  void Notify(Fn&& fn) NECO_EXCLUDES(error_mu_);

  MergePipelineOptions options_;
  ShardTransport* transport_;
  std::vector<CampaignObserver*> observers_;
  std::atomic<bool> aborted_{false};

  // Drainer-only staging: decoded deltas waiting for their epoch to
  // complete (all workers' records present). Single-threaded by
  // construction (only RunMergeLoop touches them), hence unguarded.
  std::map<uint64_t, std::vector<StagedDelta>> staged_;
  // Worker-state records published for snapshot epochs, keyed by epoch;
  // consumed (or, for replayed epochs, discarded) when the epoch folds.
  // Drainer-only, like staged_.
  std::map<uint64_t, std::vector<std::unique_ptr<WorkerStateRecord>>>
      staged_states_;
  size_t next_epoch_ = 0;
  // The last folded epoch's feedback, drainer-only like staged_: the pool
  // entries it published (in fold order, with their origin worker), the
  // cells it newly set globally, and the pool count through it.
  std::vector<PoolEntry> epoch_pool_;
  BitmapDelta epoch_virgin_;
  size_t pool_end_ = 0;

  // Global merged state: written by the drainer under state_mu_, read
  // through the locking accessors above.
  mutable Mutex state_mu_;
  MergePipelineStats stats_ NECO_GUARDED_BY(state_mu_);
  CoverageBitmap global_virgin_ NECO_GUARDED_BY(state_mu_);
  std::vector<uint8_t> global_covered_ NECO_GUARDED_BY(state_mu_);
  size_t covered_count_ NECO_GUARDED_BY(state_mu_) = 0;
  std::map<std::string, AnomalyReport> global_findings_
      NECO_GUARDED_BY(state_mu_);
  std::vector<CoverageSample> series_ NECO_GUARDED_BY(state_mu_);
  uint64_t total_iterations_ NECO_GUARDED_BY(state_mu_) = 0;
  size_t finalized_ NECO_GUARDED_BY(state_mu_) = 0;

  mutable Mutex error_mu_;
  std::exception_ptr observer_error_ NECO_GUARDED_BY(error_mu_);
};

}  // namespace neco

#endif  // SRC_CORE_MERGE_PIPELINE_H_
