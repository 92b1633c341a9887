// Wire format for campaign records: the serialized shapes shards and the
// merge pipeline exchange (src/core/merge_pipeline.h) over a
// ShardTransport (src/core/transport/transport.h).
//
// Three families of records live here:
//
//  * The five observer event records (SampleEvent .. FinishEvent) — the
//    streaming API of CampaignEngine (src/core/engine.h re-exports them).
//    The two completion events carry a CampaignResult whole: a shard's
//    own in ShardDoneEvent, the merged one in FinishEvent.
//  * ShardDelta — everything one shard learned during one epoch, as a
//    self-contained record: new virgin-map bits, newly covered line ids,
//    new queue entries, new findings. Shards communicate with the merge
//    loop exclusively through these; nothing shares in-memory fuzzer
//    state across threads (or, with process shards, across processes).
//  * The shard-protocol records: FeedbackRecord (the per-epoch merged
//    state a syncing shard absorbs — pool entries + the global-novelty
//    BitmapDelta — pushed from the drainer to every shard),
//    ShardResultRecord (a shard's ShardDoneEvent plus its crash
//    reproduction inputs, shipped after its last delta, so nothing stays
//    resident in a child that may live on another machine),
//    ShardChildConfigRecord (the CampaignSpec a shard is built from, plus
//    its identity; every shard reads it as its first frame), and
//    ShardHelloRecord (the socket-transport handshake: a dialing shard
//    identifies itself before receiving its config).
//
// A fourth family — the durable-state records further down — reuses the
// same framing as the storage format of src/core/state/: manifests (which
// embed the same CampaignSpec), the EpochCommitRecord trailer that seals
// epoch files and snapshot files alike, crash artifacts, and (since v6)
// the records of a materialized campaign snapshot.
//
// The binary encoding is versioned, length-prefixed, and endian-stable
// (everything is serialized little-endian byte by byte, so records decode
// identically across hosts). Frame layout:
//
//   [u8 record type][u8 version][u32 payload length][payload]
//
// Decode() is strict: a wrong type, unknown version, bad length, truncated
// buffer, or out-of-range enum/count is rejected (returns false) without
// reading out of bounds. This is the exact payload a process-level shard
// ships over its stream, so robustness against corrupt input is part of the
// contract; tests/wire_test.cc checks it for every record in
// wire::Records.
//
// Each record's layout is defined once, as a field list in wire.cc that
// sizes, encodes and decodes it, so the two directions cannot drift.
#ifndef SRC_CORE_WIRE_H_
#define SRC_CORE_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/fuzz/bitmap.h"
#include "src/fuzz/corpus.h"
#include "src/fuzz/fuzzer.h"
#include "src/fuzz/mutator.h"
#include "src/hv/sanitizer.h"
#include "src/support/rng.h"

namespace neco {

// --- Campaign results ----------------------------------------------------

struct CoverageSample {
  uint64_t iteration;
  double percent;

  bool operator==(const CoverageSample&) const = default;
};

// A campaign's result, or one shard's: EngineResult::merged, each
// per_worker entry, and the completion events' payload. Decode() rejects
// a covered_set that is not strictly ascending below total_points, or
// whose size is not covered_points.
struct CampaignResult {
  std::vector<CoverageSample> series;  // Empty for a shard.
  double final_percent = 0.0;
  size_t covered_points = 0;
  size_t total_points = 0;
  std::vector<size_t> covered_set;      // Covered point ids, ascending.
  std::vector<AnomalyReport> findings;  // Bug-id order.
  FuzzerStats fuzzer_stats;
  uint64_t watchdog_restarts = 0;

  // Every field is deterministic for a fixed campaign.
  bool operator==(const CampaignResult&) const = default;
};

// --- Observer event records ----------------------------------------------

// One merged coverage sample (epoch boundary) — the streaming form of
// CampaignResult::series.
struct SampleEvent {
  size_t epoch = 0;        // 0-based merge epoch.
  uint64_t iteration = 0;  // Campaign-wide iterations completed.
  double percent = 0.0;    // Merged coverage after this epoch.
  size_t covered_points = 0;

  bool operator==(const SampleEvent&) const = default;
};

// A finding entered the global deduplicated set for the first time.
struct FindingEvent {
  size_t epoch = 0;
  int worker = 0;  // Shard whose report won the (deterministic) merge.
  AnomalyReport report;

  bool operator==(const FindingEvent&) const = default;
};

// One shard's corpus exchange at an epoch boundary. `published` counts
// queue entries pushed to the shared pool at this merge; `imported` counts
// pool entries the shard adopted since the previous merge.
struct CorpusSyncEvent {
  size_t epoch = 0;
  int worker = 0;
  uint64_t published = 0;
  uint64_t imported = 0;

  bool operator==(const CorpusSyncEvent&) const = default;
};

// A shard finished its budget (fired per worker, in worker-id order):
// its EngineResult::per_worker entry and the pool entries it adopted.
struct ShardDoneEvent {
  int worker = 0;
  CampaignResult result;
  uint64_t corpus_imports = 0;

  bool operator==(const ShardDoneEvent&) const = default;
};

// The campaign completed: EngineResult::merged and its corpus imports.
struct FinishEvent {
  int workers = 1;
  size_t epochs = 0;
  CampaignResult result;
  uint64_t corpus_imports = 0;

  bool operator==(const FinishEvent&) const = default;
};

// --- ShardDelta ----------------------------------------------------------

// Everything one shard learned during one epoch that the global merge
// consumes. Folding every delta into the global view in (epoch, worker)
// order reconstructs exactly the state the old stop-the-world barrier
// merge produced. The merged view only dedups findings by bug id; the
// crash arrays below carry the *reproduction inputs* at epoch granularity
// so a journaling campaign (src/core/state/journal.h) can commit crash
// artifacts together with the epoch that discovered them — per-worker
// crash collection for EngineResult still rides the shard's final result.
struct ShardDelta {
  int worker = 0;
  uint64_t epoch = 0;       // The shard's 0-based epoch index.
  uint64_t iterations = 0;  // Executions spent this epoch.
  uint64_t imported = 0;    // Pool entries adopted at epoch start.
  BitmapDelta virgin;       // Edges newly seen by this shard.
  std::vector<uint32_t> covered_points;  // Line ids newly covered.
  std::vector<FuzzInput> queue_entries;  // New discoveries, for the pool.
  // New unique findings, sorted by bug id (merge dedup is first-wins in
  // fold order, so the sort makes FindingEvent order deterministic).
  std::vector<AnomalyReport> findings;
  // New crash reproduction pairs this epoch, in discovery order. Parallel
  // arrays; Decode() rejects a record whose lengths disagree.
  std::vector<std::string> crash_ids;
  std::vector<FuzzInput> crash_inputs;

  bool operator==(const ShardDelta&) const = default;
};

// --- CampaignSpec --------------------------------------------------------

// Everything a campaign's results depend on, resolved once by
// CampaignEngine::Run(). The journal manifest and every shard's config
// inherit it, so an option cannot reach the fingerprint without reaching
// the shards, or the reverse. shard_mode and the snapshot cadence are
// absent: results are invariant to them, so a campaign may resume with
// them changed. Not a record of its own.
struct CampaignSpec {
  uint64_t epochs = 0;  // Global epoch count (the longest shard schedule).
  int workers = 1;
  int samples = 1;
  uint8_t arch = 0;  // static_cast<uint8_t>(Arch).
  uint64_t iterations = 0;
  uint64_t seed = 1;
  uint8_t corpus_sync = 0;  // The resolved cross-shard syncing decision.
  // FuzzerOptions (a shard's fuzzer seed is seed + worker).
  uint8_t coverage_guidance = 0;
  uint32_t havoc_stack = 16;
  uint32_t splice_percent = 15;
  // AgentOptions (the agent's arch is the campaign arch above).
  uint8_t use_harness = 1;
  uint8_t use_validator = 1;
  uint8_t use_configurator = 1;
  uint32_t oracle_interval = 64;
  std::string target;  // Registry name ("" for factory/borrowed sessions).

  bool operator==(const CampaignSpec&) const = default;
};

// --- Process-sharding records --------------------------------------------

// The merged state a syncing shard absorbs at an epoch boundary, as the
// drainer pushes it to every shard (over an in-proc queue, a socketpair,
// or a TCP socket) right after folding the epoch.
struct FeedbackRecord {
  uint64_t epoch = 0;  // The folded epoch this feedback comes from.
  int worker = 0;      // Target shard (lets the shard validate routing).
  // Other shards' pool entries published in that epoch, in fold order.
  std::vector<FuzzInput> pool_entries;
  // Global novelty: cells that epoch newly merged into the global virgin
  // map.
  BitmapDelta virgin;

  bool operator==(const FeedbackRecord&) const = default;
};

// A shard's final state, shipped after its last delta in every shard
// mode: its ShardDoneEvent, plus the crash pairs of its
// EngineResult::crashes entry.
struct ShardResultRecord : ShardDoneEvent {
  std::vector<std::string> crash_ids;  // In discovery order.
  // Parallel to crash_ids: the input that reproduces each crash. Shipping
  // them in the result record is what lets a process/socket campaign
  // collect reproduction inputs from children that exit (or live on
  // another machine) — they never stay resident in the shard. Decode()
  // rejects a record whose two crash arrays disagree in length.
  std::vector<FuzzInput> crash_inputs;

  bool operator==(const ShardResultRecord&) const = default;
};

// The first frame a socket-mode shard child sends after dialing the
// parent's listener (src/core/transport/socket.h): which worker this
// connection carries. The parent validates it and replies with the
// shard's ShardChildConfigRecord; anything else on a fresh connection —
// stray dialers, port scanners, a corrupt hello — gets the connection
// dropped. The magic makes a non-NecoFuzz peer fail the handshake even
// when its bytes happen to parse as a frame.
struct ShardHelloRecord {
  static constexpr uint32_t kMagic = 0x4E43534Bu;  // "KSCN" little-endian.
  uint32_t magic = kMagic;
  int worker = 0;

  bool operator==(const ShardHelloRecord&) const = default;
};

// Everything one shard is built from: the campaign's spec, the shard's
// identity, and where its run starts. Every shard, in every shard mode,
// receives it as its first frame and decodes it at startup.
struct ShardChildConfigRecord : CampaignSpec {
  int worker = 0;
  // Snapshot resume: the shard starts at this epoch instead of 0. When
  // non-zero, a WorkerStateRecord frame follows this config frame on the
  // same stream, carrying the shard's materialized state. Not part of the
  // spec (like snapshot_every below): results are invariant to where the
  // tail starts.
  uint64_t start_epoch = 0;
  // CampaignOptions::snapshot_every_epochs, so the shard publishes its
  // WorkerStateRecord at exactly the parent's snapshot epochs.
  uint64_t snapshot_every = 0;

  bool operator==(const ShardChildConfigRecord&) const = default;
};

// --- Durable campaign state records (src/core/state/journal.h) -----------
//
// The wire format doubles as the storage format: a CampaignJournal's
// on-disk files are framed records from this header, so the same strict
// codecs that reject a corrupt stream frame reject a torn or damaged state
// file on reopen.

// The journal's versioned manifest (file MANIFEST under the state dir).
// `committed_epochs` is the journal's commit point — it only advances
// after the epoch file it names is durable. The inherited CampaignSpec is
// the campaign's fingerprint: a journal opened with a different spec is a
// different campaign (different schedule, seeds, or target), so the open
// throws rather than silently mixing two runs' state.
struct CampaignManifestRecord : CampaignSpec {
  static constexpr uint32_t kMagic = 0x4D4A434Eu;  // "NCJM" little-endian.
  uint32_t magic = kMagic;
  uint64_t committed_epochs = 0;
  // Snapshot horizon: epochs materialized in the newest snapshot file
  // (snapshot-<horizon>.state). 0 means no snapshot — resume is pure
  // replay. Advances in the same atomic manifest write as
  // committed_epochs, so the snapshot a manifest names is always durable
  // and always covers a prefix of the committed epochs.
  uint64_t snapshot_epochs = 0;

  bool operator==(const CampaignManifestRecord&) const = default;
};

// The seal of the journal's epoch files and snapshot files
// (src/core/state/commit.h): the last frame of each. Its checksum covers
// every frame before it, so a foreign, torn or damaged file fails the
// open, whatever its frames decode to.
struct EpochCommitRecord {
  uint64_t epoch = 0;     // The last epoch the file covers.
  uint32_t frames = 0;    // Frames before this trailer.
  uint64_t checksum = 0;  // FNV-1a 64 over those frames' bytes.

  bool operator==(const EpochCommitRecord&) const = default;
};

// One persisted crash: the authoritative `<seq>-<id>.record` file a
// CrashStore writes last (its commit marker — the human-readable .report
// and raw .input beside it are derived conveniences). The store keeps
// these records in memory too.
struct CrashArtifactRecord {
  uint64_t seq = 0;
  AnomalyReport report;
  std::string hypervisor;
  std::string arch;
  uint64_t iteration = 0;
  FuzzInput input;

  bool operator==(const CrashArtifactRecord&) const = default;
};

// --- Materialized snapshot records (wire v6) -----------------------------
//
// A snapshot file (snapshot-<horizon>.state under the state dir) is the
// campaign's full merged state at an epoch boundary, framed as: one
// SnapshotMergedStateRecord, one WorkerStateRecord per shard (worker-id
// order), and the EpochCommitRecord trailer an epoch file ends with, so
// the one sealed-file reader rejects a torn or damaged snapshot and
// resume falls back to replay.

// Everything one shard needs to continue exactly where the snapshot epoch
// ended: the fuzzer's full state (the full-state sibling of ShardDelta),
// the agent's history-dependent state, and the shard-level coverage and
// watchdog bookkeeping. Oracle counters are deliberately absent — results
// are invariant to them, exactly as they are across a replay resume.
struct WorkerStateRecord {
  int worker = 0;
  uint64_t epochs_covered = 0;  // State is as of the end of epoch
                                // epochs_covered - 1.
  // --- Fuzzer ---
  Rng::State mutator_rng;
  Rng::State corpus_rng;
  uint64_t iterations = 0;
  // Full queue with scheduling metadata (times_fuzzed, favored, ...); the
  // queue-hash index is rebuilt from the inputs on import.
  std::vector<QueueEntry> corpus;
  BitmapDelta virgin;  // Full virgin map, as a delta against empty.
  // Crash reproduction pairs in discovery order. Parallel arrays;
  // Decode() rejects a record whose lengths disagree. seen_bug_ids is
  // rebuilt from crash_ids on import.
  std::vector<std::string> crash_ids;
  std::vector<FuzzInput> crash_inputs;
  // --- Agent ---
  uint64_t executions = 0;  // Preserves the oracle-interval phase.
  uint64_t watchdog_restarts = 0;
  std::vector<AnomalyReport> findings;  // Bug-id order (agent map order).
  // Learned quirk tables, in sorted order (std::set iteration). Values
  // are CheckId / VmxFixupId; Decode() bounds them by the enums' kCount.
  std::vector<uint16_t> vmx_suppressed_checks;
  std::vector<uint8_t> vmx_learned_fixups;
  std::vector<uint16_t> svm_suppressed_checks;
  // --- Shard ---
  uint8_t host_crashed = 0;
  uint64_t host_restarts = 0;
  std::vector<uint32_t> covered;  // Accumulated line-coverage point ids.
  uint64_t hit_events = 0;
  uint64_t imports = 0;  // Pool entries adopted so far (post-dedup).

  bool operator==(const WorkerStateRecord&) const = default;
};

// One entry of the merged corpus pool: the input and the shard that
// published it.
struct PoolEntry {
  int origin = 0;
  FuzzInput input;

  bool operator==(const PoolEntry&) const = default;
};

// The merge pipeline's global state at the snapshot horizon: the merged
// views plus the last folded epoch's feedback, which a resumed pipeline
// pushes again before its first live epoch (every shard absorbed the
// earlier epochs' feedback, so only that epoch's pool slice and virgin
// delta travel).
struct SnapshotMergedStateRecord {
  uint64_t epochs_covered = 0;
  BitmapDelta virgin;             // Global virgin map vs empty.
  std::vector<uint32_t> covered;  // Global covered point ids, ascending.
  std::vector<AnomalyReport> findings;  // Bug-id order (merge map order).
  // Shared corpus pool: prior_pool_end entries were published before the
  // last folded epoch and pool_end through it; only that epoch's slice
  // [prior_pool_end, pool_end) ships, in fold order. Decode() rejects
  // prior_pool_end > pool_end, or a slice whose length disagrees with the
  // two bounds.
  uint64_t prior_pool_end = 0;
  uint64_t pool_end = 0;
  std::vector<PoolEntry> pool;
  std::vector<CoverageSample> series;  // Coverage series through the horizon.
  uint64_t total_iterations = 0;
  // The last folded epoch's feedback virgin delta (the cells it newly set
  // globally).
  BitmapDelta feedback_virgin;

  bool operator==(const SnapshotMergedStateRecord&) const = default;
};

// --- Encode / decode -----------------------------------------------------

namespace wire {

inline constexpr uint8_t kVersion = 10;  // v2 added the process-sharding
                                         // records (kFeedback..kChildConfig);
                                         // v3 the socket handshake
                                         // (kShardHello) and crash-input
                                         // shipping in ShardResultRecord;
                                         // v4 per-epoch crash shipping in
                                         // ShardDelta and the durable-state
                                         // records (kManifest..
                                         // kCrashArtifact); v5 the
                                         // execution-core stats in
                                         // ShardResultRecord and the
                                         // snapshot-cache capacity in
                                         // ShardChildConfigRecord; v6 the
                                         // materialized-snapshot records
                                         // (kWorkerState..kCampaignSnapshot),
                                         // the snapshot horizon + crash
                                         // count in the manifest, and the
                                         // resume fields in
                                         // ShardChildConfigRecord; v7
                                         // removed the v5 additions and
                                         // the cache counters in
                                         // WorkerStateRecord; v8 laid
                                         // ShardChildConfigRecord out as
                                         // the CampaignSpec it shares with
                                         // the manifest; v9 embedded a
                                         // CampaignResult in both
                                         // completion events and made
                                         // ShardResultRecord a
                                         // ShardDoneEvent plus crash pairs;
                                         // v10 made EpochCommitRecord the
                                         // three-field seal of epoch and
                                         // snapshot files, removed
                                         // CampaignSnapshotRecord, the
                                         // manifest's crash count and the
                                         // child config's crash_dir.

enum class RecordType : uint8_t {
  kShardDelta = 1,
  kSample = 2,
  kFinding = 3,
  kCorpusSync = 4,
  kShardDone = 5,
  kFinish = 6,
  kFeedback = 7,
  kShardResult = 8,
  kChildConfig = 9,
  kShardHello = 10,
  kManifest = 11,
  kEpochCommit = 12,
  kCrashArtifact = 13,
  kWorkerState = 14,
  kSnapshotMerged = 15,
  kEnd,  // One past the last record type; keep it last.
};

template <class... Types>
struct TypeList {
  static constexpr size_t kSize = sizeof...(Types);
};

// Every framed record, in RecordType order: entry i is framed as type
// i + 1. wire.cc derives each record's type byte from its position here,
// and tests/wire_test.cc runs one typed suite over the whole list.
using Records =
    TypeList<ShardDelta, SampleEvent, FindingEvent, CorpusSyncEvent,
             ShardDoneEvent, FinishEvent, FeedbackRecord, ShardResultRecord,
             ShardChildConfigRecord, ShardHelloRecord, CampaignManifestRecord,
             EpochCommitRecord, CrashArtifactRecord, WorkerStateRecord,
             SnapshotMergedStateRecord>;
static_assert(Records::kSize + 1 == static_cast<size_t>(RecordType::kEnd),
              "every RecordType needs its record in wire::Records");

using Buffer = std::vector<uint8_t>;

// [u8 type][u8 version][u32 payload length] — what FrameStreamTransport
// needs to cut frames out of a byte stream.
inline constexpr size_t kFrameHeaderSize = 1 + 1 + 4;

// Sanity bound on a single frame travelling a stream: a real delta is a few
// KiB, so anything this large is a corrupt length field, and rejecting it
// beats letting four attacker-controlled bytes trigger a 4 GiB allocation.
inline constexpr size_t kMaxFramePayload = size_t{1} << 30;

Buffer Encode(const ShardDelta& record);
// Zero-copy variant for the publishing shard: the queue-entry section is
// serialized from `queue_entries` (pointers into the fuzzer's corpus —
// see FuzzerDelta::queue_entries for the lifetime rule) and
// `record.queue_entries` is ignored, so exporting discoveries never
// copies input bytes before they hit the wire. Produces a frame
// byte-identical to Encode() of a record owning the same entries.
Buffer Encode(const ShardDelta& record,
              const std::vector<const FuzzInput*>& queue_entries);
Buffer Encode(const SampleEvent& record);
Buffer Encode(const FindingEvent& record);
Buffer Encode(const CorpusSyncEvent& record);
Buffer Encode(const ShardDoneEvent& record);
Buffer Encode(const FinishEvent& record);
Buffer Encode(const FeedbackRecord& record);
Buffer Encode(const ShardResultRecord& record);
Buffer Encode(const ShardChildConfigRecord& record);
Buffer Encode(const ShardHelloRecord& record);
Buffer Encode(const CampaignManifestRecord& record);
Buffer Encode(const EpochCommitRecord& record);
Buffer Encode(const CrashArtifactRecord& record);
Buffer Encode(const WorkerStateRecord& record);
Buffer Encode(const SnapshotMergedStateRecord& record);

// Strict decoding; `*out` is unspecified when false is returned.
bool Decode(const uint8_t* data, size_t size, ShardDelta* out);
bool Decode(const uint8_t* data, size_t size, SampleEvent* out);
bool Decode(const uint8_t* data, size_t size, FindingEvent* out);
bool Decode(const uint8_t* data, size_t size, CorpusSyncEvent* out);
bool Decode(const uint8_t* data, size_t size, ShardDoneEvent* out);
bool Decode(const uint8_t* data, size_t size, FinishEvent* out);
bool Decode(const uint8_t* data, size_t size, FeedbackRecord* out);
bool Decode(const uint8_t* data, size_t size, ShardResultRecord* out);
bool Decode(const uint8_t* data, size_t size, ShardChildConfigRecord* out);
bool Decode(const uint8_t* data, size_t size, ShardHelloRecord* out);
bool Decode(const uint8_t* data, size_t size, CampaignManifestRecord* out);
bool Decode(const uint8_t* data, size_t size, EpochCommitRecord* out);
bool Decode(const uint8_t* data, size_t size, CrashArtifactRecord* out);
bool Decode(const uint8_t* data, size_t size, WorkerStateRecord* out);
bool Decode(const uint8_t* data, size_t size, SnapshotMergedStateRecord* out);

template <typename Record>
bool Decode(const Buffer& buffer, Record* out) {
  return Decode(buffer.data(), buffer.size(), out);
}

// The record type of a framed buffer (for demultiplexing a stream);
// returns false for anything shorter than a frame header.
bool PeekType(const uint8_t* data, size_t size, RecordType* out);

// Stream framing: given the head of a byte stream, reports the total size
// (header + payload) of the frame it starts with, so a transport can tell
// whether a complete frame has arrived. Returns false while fewer than
// kFrameHeaderSize bytes are available, or when the header is invalid
// (unknown type byte, payload length above kMaxFramePayload).
bool FrameSize(const uint8_t* data, size_t size, size_t* out);

}  // namespace wire
}  // namespace neco

#endif  // SRC_CORE_WIRE_H_
