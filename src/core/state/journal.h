// CampaignJournal — crash-consistent, resumable campaign state.
//
// A journaling campaign (CampaignOptions::state_dir) commits its progress
// at epoch granularity. The journal is a redo log: the unit of commit is
// the epoch's worker ShardDelta frames — the exact wire bytes the merge
// pipeline folded — because replaying committed deltas in (epoch, worker)
// order reconstructs the merged campaign state bit for bit (the
// determinism contract from the delta pipeline). Layout under state_dir:
//
//   MANIFEST                  wire CampaignManifestRecord: the campaign
//                             fingerprint (its CampaignSpec) +
//                             committed_epochs (the journal's commit
//                             point) + snapshot_epochs (the materialized
//                             horizon)
//   epoch-<N>.journal         N's worker delta frames (worker order),
//                             sealed by an EpochCommitRecord for epoch N
//   snapshot-<H>.state        the full merged campaign state through
//                             epoch H-1 (src/core/state/snapshot.h),
//                             sealed by an EpochCommitRecord for epoch
//                             H-1; resume loads the newest one and
//                             replays only the tail past it
//   crashes/                  the campaign's one CrashStore
//                             (src/core/repro): one .input/.report/.record
//                             triple per crash
//
// Epoch and snapshot files are both sealed frame lists, written by
// SealFrames and opened by OpenSealedFile (src/core/state/commit.h).
//
// Commit protocol per epoch (every file via AtomicWriteFile, commit.h):
//   1. persist the epoch's new crash artifacts (idempotent; each .record
//      rename is that crash's own commit point),
//   2. write epoch-<N>.journal,
//   3. at a snapshot epoch, write snapshot-<N+1>.state,
//   4. advance MANIFEST — THE commit point: committed_epochs and
//      snapshot_epochs move in one atomic write,
//   5. after the manifest is durable, compact: epoch and snapshot files
//      behind the *previous* horizon are deleted (one fallback generation
//      is always kept, so a corrupt newest snapshot degrades to the older
//      one, and only then to full replay).
// A kill anywhere in between leaves either a fully committed epoch or an
// invisible partial one (stale temp files, an epoch or snapshot file the
// manifest does not name yet); resuming recommits it byte-identically. A
// kill mid-compaction leaves extra already-superseded files, which the
// next compaction sweep (a bounded directory scan) removes — torn
// compaction is always recoverable because deletion never precedes the
// manifest advance.
//
// Resume: the engine seeds shards and pipeline from the newest loadable
// snapshot (LoadLatestSnapshot) and re-runs only the tail; each replayed
// tail epoch is still *verified* byte-for-byte against the journal
// (divergence means the state dir belongs to a different
// build/seed/target and the campaign fails loudly), with observer events
// suppressed until the resume point. Events for an epoch only ever fire
// after its commit, so an interrupted run's observers plus the resumed
// run's observers see exactly the uninterrupted stream — with or without
// a snapshot in the middle.
#ifndef SRC_CORE_STATE_JOURNAL_H_
#define SRC_CORE_STATE_JOURNAL_H_

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "src/core/repro/crash_store.h"
#include "src/core/state/commit.h"
#include "src/core/state/snapshot.h"
#include "src/core/wire.h"

namespace neco {

// Journal counters, surfaced in EngineResult::journal. The wall-clock
// fields (fsync time, reload time) are excluded from any determinism
// comparison (like the pipeline/transport stats).
struct JournalStats {
  uint64_t commits = 0;          // Epochs committed by this run.
  uint64_t replayed_epochs = 0;  // Committed epochs verified on resume.
  uint64_t bytes_written = 0;    // Payload bytes durably written.
  uint64_t crash_artifacts = 0;  // Crash records persisted by this run.
  uint64_t snapshots = 0;        // Snapshot files committed by this run.
  uint64_t compacted_files = 0;  // Superseded files deleted by this run.
  uint64_t reload_ns = 0;        // Wall time opening durable state: crash
                                 // store reload + snapshot load.
  double fsync_seconds = 0.0;    // Wall time spent in fsync.
  size_t committed_epochs = 0;   // Manifest commit point after the run.
  size_t snapshot_epochs = 0;    // Manifest snapshot horizon after the run.
};

class CampaignJournal {
 public:
  // Opens (or creates) the journal at `dir` for the campaign `spec`
  // defines — the same spec every shard of the campaign is built from. A
  // fresh directory starts at committed_epochs = 0 with `spec` stamped
  // into its manifest; an existing one must carry a manifest whose spec
  // equals `spec` — a mismatch (named by its first differing field), a
  // manifest from another wire format version, or a corrupt manifest
  // throws std::runtime_error.
  CampaignJournal(std::filesystem::path dir, const CampaignSpec& spec);

  size_t committed_epochs() const { return committed_epochs_; }

  // The materialized horizon: epochs [0, snapshot_epochs()) are covered
  // by a committed snapshot file, so a resume replays only
  // [snapshot_epochs(), committed_epochs()).
  size_t snapshot_epochs() const { return snapshot_epochs_; }

  // Commits the next epoch (`epoch` must equal committed_epochs()):
  // writes the epoch file, `frames` sealed for `epoch`, then advances the
  // manifest. Throws std::runtime_error on any write failure. The journal
  // seals the file itself and ignores `trailer`, which stays only because
  // perfbench passes one.
  //
  // When `snapshot` is non-null it must materialize exactly epochs
  // [0, epoch + 1); its file is made durable between the epoch file and
  // the manifest advance, the manifest moves committed_epochs and
  // snapshot_epochs in one atomic write, and files behind the previous
  // horizon are compacted away afterwards — durability strictly before
  // any deletion.
  void CommitEpoch(size_t epoch, const std::vector<wire::Buffer>& frames,
                   EpochCommitRecord trailer,
                   const CampaignSnapshot* snapshot = nullptr);

  // Loads the newest decodable snapshot at or below the manifest horizon
  // into `*out` and returns its horizon. Returns 0 (out untouched) when
  // no snapshot loads — a torn or corrupt file is a recoverable
  // condition, not an error: the scan falls back to the previous
  // generation, and a 0 return means full replay.
  size_t LoadLatestSnapshot(CampaignSnapshot* out);

  // Resume verification: opens the committed epoch file and checks that
  // a replayed epoch's re-published frames are byte-identical to the
  // committed ones. Divergence throws, naming the first shard that
  // differs — it means the state dir was produced by a different
  // campaign or binary, and silently mixing the two states would corrupt
  // both. An unreadable, torn or damaged file throws too.
  void VerifyEpoch(size_t epoch, const std::vector<wire::Buffer>& frames);

  // Persists one crash artifact through the store (idempotent by bug id).
  // Returns whether the artifact was new. Throws on write failure.
  bool SaveCrashArtifact(CrashArtifactRecord record);

  CrashStore& crash_store() { return crash_store_; }
  JournalStats stats() const;
  const std::filesystem::path& directory() const { return dir_; }

  static std::string EpochFileName(size_t epoch) {
    return "epoch-" + std::to_string(epoch) + ".journal";
  }

 private:
  std::filesystem::path ManifestPath() const { return dir_ / "MANIFEST"; }
  void WriteManifest();
  // Deletes epoch and snapshot files strictly below `horizon` (a bounded
  // directory scan, so a torn previous compaction is swept up too).
  // Deletion-only: errors are ignored — a file that refuses to die is
  // retried by the next sweep, never a commit failure.
  void CompactBelow(size_t horizon);

  std::filesystem::path dir_;
  CampaignManifestRecord manifest_;
  size_t committed_epochs_ = 0;
  size_t snapshot_epochs_ = 0;
  CrashStore crash_store_;
  JournalStats stats_;
  CommitStats commit_stats_;
};

}  // namespace neco

#endif  // SRC_CORE_STATE_JOURNAL_H_
