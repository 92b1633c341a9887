// CampaignEngine — the unified session API for fuzzing campaigns.
//
// A session is constructed from a target — a registry name ("kvm"), an
// explicit HypervisorFactory, or a borrowed Hypervisor instance —
// configured with CampaignOptions, optionally wired to observers, and
// driven by Run(). Run() shards the iteration budget across
// options.workers worker threads; `workers = 1` reproduces the historical
// serial campaign schedule bit for bit (same fuzzer seed, same chunking,
// same merge math), so serial and sharded campaigns are the same code
// path at different widths.
//
// Since PR 3 the merge path is a delta pipeline, not a lock-step barrier:
// every shard owns a private Hypervisor/Agent/Fuzzer (coverage units are
// not thread-safe) and runs one shard loop whatever carries its frames.
// It starts from the start frames the engine sends it through its
// ShardTransport (src/core/transport/) — its ShardChildConfigRecord and,
// on a resume, its WorkerStateRecord — then once per epoch publishes a
// wire-encoded ShardDelta (src/core/wire.h), reads one FeedbackRecord per
// epoch when shards sync, and ends with a ShardResultRecord. A single
// merge loop (src/core/merge_pipeline.h) on the thread that called Run()
// drains the transport, folds deltas into the global view in
// deterministic (epoch, worker) order, pushes each epoch's feedback, and
// fires observer events in that same merge-ordered sequence, concurrently
// with the shards' next epoch.
//
// CampaignOptions::shard_mode picks the transport:
//  * threads (default) — one worker thread per shard, exchanging the
//    frames over in-memory queues (InProcTransport; backpressure when the
//    queue toward the merge loop is full);
//  * processes — the engine fork(/exec)s one child process per shard
//    (ShardSupervisor) and each child exchanges the same frames over one
//    socketpair (FrameStreamTransport);
//  * sockets — the engine listens on a TCP port (SocketTransport) and
//    shard children dial in, say hello, and stream the same frames over
//    the connection. The launcher is pluggable: by default children are
//    local subprocesses (fork, or exec when shard_exec_path is set),
//    while options.remote_launcher starts them on other machines. Crash
//    reproduction inputs come home in each shard's ShardResultRecord, so
//    nothing stays resident on a remote box.
// The merge math never changes, so process and socket campaigns produce
// bit-identical EngineResults and observer event sequences to thread
// campaigns at the same worker count (pinned in tests/engine_test.cc).
// A shard that dies (even kill -9, even mid-socket) surfaces as a thrown
// shard error — recorded, never a hang.
//
// Observers stream the campaign instead of waiting for the final blob.
// Every event is a plain serializable wire record, and delivery is
// deterministic and merge-ordered: two runs with identical (options,
// target) produce identical event sequences. OnShardDone and OnFinish
// carry the per-worker and the merged CampaignResult whole.
// Events fire on the thread that called Run(), never concurrently.
// Observer exceptions cannot strand or kill the campaign: every callback
// is guarded, the first exception is recorded, and Run() rethrows it
// after all shards joined.
#ifndef SRC_CORE_ENGINE_H_
#define SRC_CORE_ENGINE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/core/campaign.h"
#include "src/core/merge_pipeline.h"
#include "src/core/state/journal.h"
#include "src/core/transport/transport.h"
#include "src/core/wire.h"
#include "src/hv/factory.h"

namespace neco {

// --- Observer ------------------------------------------------------------

// Default-no-op interface; override the events you care about. Observers
// are borrowed (caller keeps ownership) and must stay alive across Run().
// The event records themselves live in src/core/wire.h, next to their
// serialized form. Callbacks run on the thread calling Run() and are
// never invoked concurrently. A
// callback that throws does not terminate the process: the engine records
// the first exception, keeps the campaign (and other observers) running,
// and rethrows it from Run() after every shard joined.
class CampaignObserver {
 public:
  virtual ~CampaignObserver() = default;
  virtual void OnSample(const SampleEvent& event) {}
  virtual void OnFinding(const FindingEvent& event) {}
  virtual void OnCorpusSync(const CorpusSyncEvent& event) {}
  virtual void OnShardDone(const ShardDoneEvent& event) {}
  virtual void OnFinish(const FinishEvent& event) {}
};

// --- Results -------------------------------------------------------------

// What a campaign found: every member is deterministic for a fixed
// (options, target), so outcomes compare with ==, across shard modes and
// across a resume alike.
struct CampaignOutcome {
  // The global merged view, shaped exactly like a serial CampaignResult.
  // With workers == 1 it reproduces the historical serial campaign bit
  // for bit.
  CampaignResult merged;
  // Each shard's own final state (per-worker coverage is a subset of the
  // merged coverage).
  std::vector<CampaignResult> per_worker;
  // Queue entries adopted across shards over the whole campaign.
  uint64_t corpus_imports = 0;
  // Per-worker crash reproduction: the (bug id, input) pairs each shard's
  // fuzzer saved, in discovery order. Every shard ships them home inside
  // its ShardResultRecord — which is what makes a crash found on a remote
  // machine reproducible on the parent. Identical across shard modes.
  std::vector<std::vector<std::pair<std::string, FuzzInput>>> crashes;

  bool operator==(const CampaignOutcome&) const = default;
};

// The outcome plus this run's own counters, which == leaves out: a
// resumed run counts different work, and some counters are wall-clock.
struct EngineResult : CampaignOutcome {
  // Merge-loop counters (flushes).
  MergePipelineStats pipeline;
  // Transport counters: bytes, queue depth and thread-shard waits through
  // whichever ShardTransport carried the campaign (the per-transport
  // columns of bench/parallel_scaling).
  TransportStats transport;
  // Durable-state counters (all zero without CampaignOptions::state_dir):
  // epochs committed and replayed, bytes fsync'd, crash artifacts
  // persisted.
  JournalStats journal;
};

// --- The session object --------------------------------------------------

class CampaignEngine {
 public:
  // By registry name. Throws std::invalid_argument for an unknown name,
  // listing the registered targets (see ResolveHypervisorFactory).
  explicit CampaignEngine(std::string_view target,
                          CampaignOptions options = {});

  // By explicit factory, for targets that are not (or cannot be)
  // registered — e.g. factories capturing per-run configuration.
  explicit CampaignEngine(HypervisorFactory factory,
                          CampaignOptions options = {});

  // Borrowed-target session: runs against an existing instance the caller
  // keeps alive and owns. A single instance cannot shard, so this mode
  // always runs one thread shard regardless of options.workers and
  // options.shard_mode (the historical serial-campaign contract).
  explicit CampaignEngine(Hypervisor& target, CampaignOptions options = {});

  // Registers a borrowed observer for subsequent Run() calls.
  CampaignEngine& AddObserver(CampaignObserver* observer);

  CampaignOptions& options() { return options_; }
  const CampaignOptions& options() const { return options_; }

  // Executes one full campaign with the current options. Coverage is reset
  // at the start, so repeated Run() calls are independent sessions.
  EngineResult Run();

 private:
  // Run() resolves the campaign's CampaignSpec once, opens the journal
  // from it, and builds `config` and the pipeline options, the same for
  // every shard mode. Each path only launches and tears down its shards:
  // every shard receives `config` with its worker id set as its first
  // frame, through the transport, in every mode. `snapshot` is the
  // materialized resume point loaded from the journal (null for a fresh
  // or snapshot-less campaign): each shard receives its
  // snapshot->workers entry right behind its config and starts at the
  // horizon, the pipeline seeds its merged state from snapshot->merged,
  // and only the tail past the horizon is replayed.
  EngineResult RunWithThreadShards(const ShardChildConfigRecord& config,
                                   const MergePipelineOptions& pipeline_options,
                                   const CampaignSnapshot* snapshot);
  EngineResult RunWithProcessShards(
      const ShardChildConfigRecord& config,
      const MergePipelineOptions& pipeline_options,
      const CampaignSnapshot* snapshot);

  HypervisorFactory factory_;
  Hypervisor* borrowed_ = nullptr;
  std::string target_name_;  // Set for by-name sessions; exec'd process
                             // shards rebuild the target from this.
  CampaignOptions options_;
  std::vector<CampaignObserver*> observers_;
};

// --- Hidden process-shard entrypoint -------------------------------------

// When argv carries --necofuzz-shard-child, the process is an exec'd shard
// child of a shard_mode = processes or sockets campaign. A process child
// (--necofuzz-fd=<n> --necofuzz-worker=<n>) runs over the stream end it
// inherited; a socket child (--necofuzz-connect=<address:port>
// --necofuzz-worker=<n>) dials
// the parent's listener and sends a ShardHelloRecord — this is the
// invocation a RemoteLauncher issues on another machine. Either way the
// child reads its start frames off the stream, rebuilds the target from
// the config's registry name, runs (publishing ShardDelta frames,
// absorbing FeedbackRecords, finishing with a ShardResultRecord), and
// this returns the process exit code — the caller's main() must return
// it without doing anything else. A child that cannot start (a bad
// argument, a failed dial) prints one stderr line naming the worker and
// the reason and returns 2; one whose shard throws (an unknown target,
// say) prints "necofuzz: shard <n> failed: <what>" and returns 1. A
// config for another worker than --necofuzz-worker is refused. Returns
// -1 for a normal invocation (no flag), in which case main() proceeds as
// usual.
//
//   int main(int argc, char** argv) {
//     if (const int code = neco::MaybeRunShardChild(argc, argv); code >= 0)
//       return code;
//     ...
//   }
//
// Binaries that never set CampaignOptions::shard_exec_path (fork-mode
// process sharding, the default) do not need this hook.
int MaybeRunShardChild(int argc, char** argv);

}  // namespace neco

#endif  // SRC_CORE_ENGINE_H_
