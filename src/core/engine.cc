#include "src/core/engine.h"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>

#include "src/arch/cpu_features.h"
#include "src/core/agent.h"
#include "src/core/transport/inproc.h"
#include "src/core/transport/pipe.h"
#include "src/core/transport/socket.h"
#include "src/core/transport/supervisor.h"
#include "src/fuzz/fuzzer.h"
#include "src/support/errno_util.h"
#include "src/support/mutex.h"

namespace neco {
namespace {

// --- One shard's private campaign state ----------------------------------

struct ShardContext {
  Hypervisor* hv = nullptr;  // Owned or borrowed.
  std::unique_ptr<Hypervisor> owned;
  std::unique_ptr<Agent> agent;
  std::unique_ptr<Fuzzer> fuzzer;
  // Per-epoch iteration steps; mirrors the serial campaign's chunking so
  // worker 0 of a one-worker campaign replays the historical serial
  // schedule exactly.
  std::vector<uint64_t> steps;
  // Covered-point snapshot backing CoverageUnit::ExtractDeltaSince.
  std::vector<uint8_t> covered_seen;
  // Finding ids already shipped in a delta (the agent's findings map is
  // bug-id-sorted, so per-epoch diffs against this set come out sorted —
  // the order ShardDelta::findings promises).
  std::unordered_set<std::string> shipped_findings;
  uint64_t imports = 0;  // Pool entries adopted (post-dedup).
};

// What the engine needs from a finished shard, whichever side of a fork it
// ran on: thread shards fill this from their ShardContext, process shards
// ship it as a ShardResultRecord.
struct ShardOutcome {
  CampaignResult result;
  uint64_t imports = 0;
  std::vector<std::string> crash_ids;
  std::vector<FuzzInput> crash_inputs;  // Parallel to crash_ids.
};

uint64_t ShardBudget(uint64_t iterations, int workers, int w) {
  const uint64_t base = iterations / static_cast<uint64_t>(workers);
  const uint64_t rem = iterations % static_cast<uint64_t>(workers);
  return base + (static_cast<uint64_t>(w) < rem ? 1 : 0);
}

// The global epoch count: the longest shard schedule. Pure arithmetic, so
// the parent of a process campaign and every exec'd child agree without
// sharing memory.
size_t ComputeEpochs(uint64_t iterations, int workers, int samples) {
  size_t epochs = 0;
  for (int w = 0; w < workers; ++w) {
    epochs = std::max(
        epochs, ChunkSchedule(ShardBudget(iterations, workers, w), samples)
                    .size());
  }
  return epochs;
}

void InitShard(ShardContext& state, Hypervisor* borrowed,
               const HypervisorFactory& factory,
               const CampaignOptions& options, int workers, int w,
               int samples) {
  if (borrowed != nullptr) {
    state.hv = borrowed;
  } else {
    state.owned = factory();
    state.hv = state.owned.get();
  }
  CoverageUnit& cov = state.hv->nested_coverage(options.arch);
  cov.ResetCoverage();
  state.hv->sanitizers().Clear();

  AgentOptions agent_options = options.agent;
  agent_options.arch = options.arch;
  state.agent = std::make_unique<Agent>(*state.hv, agent_options);

  FuzzerOptions fuzzer_options = options.fuzzer;
  fuzzer_options.seed = options.seed + static_cast<uint64_t>(w);
  state.fuzzer =
      std::make_unique<Fuzzer>(fuzzer_options, state.agent->MakeExecutor());

  state.steps =
      ChunkSchedule(ShardBudget(options.iterations, workers, w), samples);
}

// --- Worker state capture/restore (materialized snapshots) ---------------

// Serializes everything a shard needs to continue past `horizon` epochs
// as if it never stopped: fuzzer (corpus, RNG streams, virgin map, crash
// dedup), agent (throughput counters, findings, learned quirk tables),
// coverage unit, host-crash flags, and the export bookkeeping. Captured
// AFTER the epoch's delta was assembled, so every "already shipped"
// cursor is included at its post-export position.
WorkerStateRecord ExportWorkerState(ShardContext& state,
                                    const CampaignOptions& options, int w,
                                    size_t horizon) {
  WorkerStateRecord record;
  record.worker = w;
  record.epochs_covered = horizon;
  state.fuzzer->ExportState(&record);
  state.agent->ExportState(&record);
  const CoverageUnit& cov = state.hv->nested_coverage(options.arch);
  for (size_t point : cov.CoveredSet()) {
    record.covered.push_back(static_cast<uint32_t>(point));
  }
  record.hit_events = cov.hit_events();
  record.host_crashed = state.hv->host_crashed() ? 1 : 0;
  record.host_restarts = state.hv->host_restarts();
  record.imports = state.imports;
  return record;
}

// The inverse: seeds a freshly initialized shard from its snapshot record
// so the next epoch runs bit-identically to the incarnation that wrote
// it. `record` is consumed (corpus entries are moved, not copied).
void ImportWorkerState(ShardContext& state, const CampaignOptions& options,
                       WorkerStateRecord* record) {
  state.fuzzer->ImportState(record);
  state.agent->ImportState(*record);
  CoverageUnit& cov = state.hv->nested_coverage(options.arch);
  cov.RestoreCoverage(record->covered, record->hit_events);
  // The snapshot's coverage was exported right after a delta, so the
  // restored "already shipped" baseline is the full restored map.
  state.covered_seen = cov.hits();
  state.hv->RestoreHostCrashState(record->host_crashed != 0,
                                  record->host_restarts);
  state.imports = record->imports;
  for (const AnomalyReport& report : record->findings) {
    state.shipped_findings.insert(report.bug_id);
  }
}

// The shard epoch loop, shared by thread workers and process children:
// absorb the previous epoch's feedback (when syncing), fuzz one step,
// publish one wire-encoded ShardDelta. `get_feedback` and `publish`
// abstract the transport direction; either returning false means the
// campaign is going down and the shard stops quietly. Every worker
// publishes one delta per global epoch — empty ones past its own schedule
// — so the drainer can finalize epochs without tracking per-shard
// schedules. A snapshot-resumed shard starts at `start_epoch` instead of
// 0; with a snapshot cadence it additionally publishes a
// WorkerStateRecord frame right before each snapshot epoch's delta.
bool RunShardEpochs(
    ShardContext& state, const CampaignOptions& options, int w,
    size_t epochs, bool syncing, size_t start_epoch, size_t snapshot_every,
    const std::function<bool(size_t, MergePipeline::Feedback*)>& get_feedback,
    const std::function<bool(wire::Buffer)>& publish,
    const std::function<void(int, size_t)>& fault_hook) {
  for (size_t epoch = start_epoch; epoch < epochs; ++epoch) {
    if (fault_hook) {
      fault_hook(w, epoch);
    }
    uint64_t imported = 0;
    if (syncing && epoch > 0) {
      MergePipeline::Feedback feedback;
      if (!get_feedback(epoch - 1, &feedback)) {
        return false;
      }
      for (const FuzzInput& input : feedback.pool_entries) {
        // The fuzzer hash-guards imports, so an identical entry
        // re-published by several shards joins this queue only once.
        if (state.fuzzer->ImportCorpusEntry(input)) {
          ++imported;
        }
      }
      state.imports += imported;
      // Mark the merged global novelty seen (not novel here, not
      // re-exported) and skip the just-imported entries at the next
      // export: re-publishing them would bounce inputs between shards,
      // duplicating without bound.
      state.fuzzer->ApplyVirginDelta(feedback.virgin);
      state.fuzzer->MarkQueueExported();
    }
    if (epoch < state.steps.size()) {
      state.fuzzer->Run(state.steps[epoch]);
    }

    if (!syncing) {
      // Nothing consumes queue entries without syncing; skip the
      // per-epoch input copies entirely.
      state.fuzzer->MarkQueueExported();
    }
    FuzzerDelta fuzzer_delta = state.fuzzer->ExportDelta();
    ShardDelta delta;
    delta.worker = w;
    delta.epoch = epoch;
    delta.iterations = fuzzer_delta.iterations;
    delta.imported = imported;
    delta.virgin = std::move(fuzzer_delta.virgin);
    for (auto& [id, input] : fuzzer_delta.crashes) {
      delta.crash_ids.push_back(std::move(id));
      delta.crash_inputs.push_back(std::move(input));
    }
    delta.covered_points = state.hv->nested_coverage(options.arch)
                               .ExtractDeltaSince(state.covered_seen);
    for (const auto& [id, report] : state.agent->findings()) {
      if (state.shipped_findings.insert(id).second) {
        delta.findings.push_back(report);
      }
    }
    // At a snapshot epoch, capture the shard's full state — after the
    // delta assembly above, so every export cursor sits at its shipped
    // position — and publish it BEFORE the delta: per-channel FIFO then
    // guarantees the drainer has the state staged by the time the epoch
    // can fold.
    if (snapshot_every != 0 && (epoch + 1) % snapshot_every == 0) {
      if (!publish(wire::Encode(
              ExportWorkerState(state, options, w, epoch + 1)))) {
        return false;
      }
    }
    // Queue entries are serialized straight out of the fuzzer's corpus
    // (fuzzer_delta holds pointers, valid until the fuzzer's next Run);
    // delta.queue_entries stays empty — the bytes exist once, in the
    // corpus and then in the frame.
    if (!publish(wire::Encode(delta, fuzzer_delta.queue_entries))) {
      return false;
    }
  }
  return true;
}

ShardOutcome CollectOutcome(ShardContext& state,
                            const CampaignOptions& options) {
  ShardOutcome out;
  CampaignResult& wr = out.result;
  CoverageUnit& cov = state.hv->nested_coverage(options.arch);
  wr.final_percent = cov.percent();
  wr.covered_points = cov.covered_points();
  wr.total_points = cov.total_points();
  wr.covered_set = cov.CoveredSet();
  for (const auto& [id, report] : state.agent->findings()) {
    wr.findings.push_back(report);
  }
  wr.fuzzer_stats = state.fuzzer->stats();
  wr.watchdog_restarts = state.agent->watchdog_restarts();
  out.imports = state.imports;
  for (const auto& [id, input] : state.fuzzer->crashes()) {
    out.crash_ids.push_back(id);
    out.crash_inputs.push_back(input);
  }
  return out;
}

ShardOutcome OutcomeFromRecord(const ShardResultRecord& record) {
  ShardOutcome out;
  CampaignResult& wr = out.result;
  wr.final_percent = record.final_percent;
  wr.covered_points = static_cast<size_t>(record.covered_points);
  wr.total_points = static_cast<size_t>(record.total_points);
  for (uint32_t point : record.covered_set) {
    wr.covered_set.push_back(point);
  }
  wr.findings = record.findings;
  wr.fuzzer_stats.iterations = record.iterations;
  wr.fuzzer_stats.queue_size = record.queue_size;
  wr.fuzzer_stats.unique_anomalies = record.unique_anomalies;
  wr.fuzzer_stats.bitmap_edges = record.bitmap_edges;
  wr.watchdog_restarts = record.watchdog_restarts;
  out.imports = record.imports;
  out.crash_ids = record.crash_ids;
  out.crash_inputs = record.crash_inputs;
  return out;
}

ShardResultRecord RecordFromContext(ShardContext& state,
                                    const CampaignOptions& options, int w) {
  ShardResultRecord record;
  ShardOutcome outcome = CollectOutcome(state, options);
  const CampaignResult& wr = outcome.result;
  record.worker = w;
  record.final_percent = wr.final_percent;
  record.covered_points = wr.covered_points;
  record.total_points = wr.total_points;
  for (size_t point : wr.covered_set) {
    record.covered_set.push_back(static_cast<uint32_t>(point));
  }
  record.findings = wr.findings;
  record.iterations = wr.fuzzer_stats.iterations;
  record.queue_size = wr.fuzzer_stats.queue_size;
  record.unique_anomalies = wr.fuzzer_stats.unique_anomalies;
  record.bitmap_edges = wr.fuzzer_stats.bitmap_edges;
  record.watchdog_restarts = wr.watchdog_restarts;
  record.imports = outcome.imports;
  record.crash_ids = std::move(outcome.crash_ids);
  record.crash_inputs = std::move(outcome.crash_inputs);
  return record;
}

// Closes every registered descriptor on destruction unless released;
// keeps the process-shard setup's error paths from leaking 2 x workers
// pipe ends however they unwind.
class FdCloser {
 public:
  ~FdCloser() {
    for (int fd : fds_) {
      ::close(fd);
    }
  }
  void Add(int fd) { fds_.push_back(fd); }
  void Release() { fds_.clear(); }

 private:
  std::vector<int> fds_;
};

// Whether shards exchange corpus entries: syncing needs a corpus, and in
// breadth-first mode (guidance off) nothing is ever queued or exported, so
// shards run fully decoupled instead of idling on empty exchanges.
bool ResolveSyncing(const CampaignOptions& options, int workers) {
  return options.corpus_sync && workers > 1 &&
         options.fuzzer.coverage_guidance;
}

// The journal fingerprint: everything the campaign's results depend on.
// merge_batch and shard_mode are deliberately absent — results are
// invariant to both, so a campaign may resume under a different transport
// or batch size than it started with.
CampaignManifestRecord MakeManifest(const CampaignOptions& options,
                                    const std::string& target, int workers,
                                    int samples, size_t epochs,
                                    bool syncing) {
  CampaignManifestRecord manifest;
  manifest.epochs = epochs;
  manifest.workers = workers;
  manifest.samples = samples;
  manifest.arch = static_cast<uint8_t>(options.arch);
  manifest.iterations = options.iterations;
  manifest.seed = options.seed;
  manifest.corpus_sync = syncing ? 1 : 0;
  manifest.coverage_guidance = options.fuzzer.coverage_guidance ? 1 : 0;
  manifest.havoc_stack = options.fuzzer.havoc_stack;
  manifest.splice_percent = options.fuzzer.splice_percent;
  manifest.use_harness = options.agent.use_harness ? 1 : 0;
  manifest.use_validator = options.agent.use_validator ? 1 : 0;
  manifest.use_configurator = options.agent.use_configurator ? 1 : 0;
  manifest.oracle_interval = options.agent.oracle_interval;
  manifest.target = target;
  return manifest;
}

// --- The shard child loop (process/socket mode, fork and exec flavors) ---

// `delta_fd` and `feedback_fd` are the same descriptor for a socket-mode
// child: the frames are direction-tagged by type, so one full-duplex
// stream carries both. `restore` (consumed; null for a fresh start) seeds
// the shard from its snapshot record before the tail runs.
int RunShardChildLoop(const HypervisorFactory& factory,
                      const CampaignOptions& options, int workers, int w,
                      int samples, size_t epochs, bool syncing,
                      size_t start_epoch, size_t snapshot_every,
                      WorkerStateRecord* restore, int delta_fd,
                      int feedback_fd) {
  // The parent may die or abort at any time; a write into the closed pipe
  // must come back as an error code, not a process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  ShardContext state;
  InitShard(state, nullptr, factory, options, workers, w, samples);
  if (restore != nullptr) {
    ImportWorkerState(state, options, restore);
  }
  const bool completed = RunShardEpochs(
      state, options, w, epochs, syncing, start_epoch, snapshot_every,
      [&](size_t through_epoch, MergePipeline::Feedback* out) {
        wire::Buffer frame;
        FeedbackRecord record;
        if (!ReadPipeFrame(feedback_fd, &frame) ||
            !wire::Decode(frame, &record) || record.worker != w ||
            record.epoch != through_epoch) {
          return false;  // Parent gone or stream corrupt: stop quietly.
        }
        out->pool_entries = std::move(record.pool_entries);
        out->virgin = std::move(record.virgin);
        return true;
      },
      [&](wire::Buffer frame) { return WritePipeFrame(delta_fd, frame); },
      options.shard_fault_for_test);
  if (!completed) {
    return 2;  // Aborted mid-campaign; the parent reports its own error.
  }
  const ShardResultRecord record = RecordFromContext(state, options, w);
  if (!WritePipeFrame(delta_fd, wire::Encode(record))) {
    return 2;
  }
  ::close(delta_fd);
  if (feedback_fd != delta_fd) {
    ::close(feedback_fd);
  }
  return 0;
}

// --- Result assembly (shared by both shard modes) ------------------------

EngineResult AssembleResult(MergePipeline& pipeline,
                            ShardTransport& transport,
                            std::vector<ShardOutcome> outcomes, int workers,
                            size_t epochs, size_t total_points,
                            CampaignJournal* journal) {
  EngineResult out;
  out.pipeline = pipeline.stats();
  out.transport = transport.stats();
  if (journal != nullptr) {
    out.journal = journal->stats();
  }
  out.merged.series = pipeline.series();
  out.merged.total_points = total_points;
  const std::vector<uint8_t>& global_covered = pipeline.covered();
  for (size_t i = 0; i < global_covered.size(); ++i) {
    if (global_covered[i] != 0) {
      out.merged.covered_set.push_back(i);
    }
  }
  out.merged.covered_points = out.merged.covered_set.size();
  out.merged.final_percent =
      total_points == 0
          ? 0.0
          : 100.0 * static_cast<double>(out.merged.covered_points) /
                static_cast<double>(total_points);
  for (const auto& [id, report] : pipeline.findings()) {
    out.merged.findings.push_back(report);
  }
  out.merged.fuzzer_stats.bitmap_edges = pipeline.virgin().CountNonZero();

  std::unordered_set<std::string> crash_ids;
  for (int w = 0; w < workers; ++w) {
    ShardOutcome& outcome = outcomes[static_cast<size_t>(w)];
    CampaignResult& wr = outcome.result;
    out.merged.fuzzer_stats.iterations += wr.fuzzer_stats.iterations;
    out.merged.fuzzer_stats.queue_size += wr.fuzzer_stats.queue_size;
    for (const std::string& id : outcome.crash_ids) {
      crash_ids.insert(id);
    }
    std::vector<std::pair<std::string, FuzzInput>> shard_crashes;
    const size_t crash_count =
        std::min(outcome.crash_ids.size(), outcome.crash_inputs.size());
    shard_crashes.reserve(crash_count);
    for (size_t i = 0; i < crash_count; ++i) {
      shard_crashes.emplace_back(std::move(outcome.crash_ids[i]),
                                 std::move(outcome.crash_inputs[i]));
    }
    out.crashes.push_back(std::move(shard_crashes));
    out.merged.watchdog_restarts += wr.watchdog_restarts;
    out.corpus_imports += outcome.imports;

    const ShardDoneEvent event{w,
                               wr.fuzzer_stats.iterations,
                               wr.final_percent,
                               wr.covered_points,
                               wr.fuzzer_stats.queue_size,
                               wr.findings.size(),
                               outcome.imports,
                               wr.watchdog_restarts};
    pipeline.NotifyShardDone(event);
    out.per_worker.push_back(std::move(wr));
  }
  out.merged.fuzzer_stats.unique_anomalies = crash_ids.size();

  const FinishEvent event{workers,
                          epochs,
                          out.merged.fuzzer_stats.iterations,
                          out.merged.final_percent,
                          out.merged.covered_points,
                          out.merged.total_points,
                          out.merged.findings.size(),
                          out.corpus_imports};
  pipeline.NotifyFinish(event);
  if (std::exception_ptr error = pipeline.observer_error()) {
    std::rethrow_exception(error);
  }
  return out;
}

}  // namespace

CampaignEngine::CampaignEngine(std::string_view target,
                               CampaignOptions options)
    : factory_(ResolveHypervisorFactory(target)),
      target_name_(target),
      options_(std::move(options)) {}

CampaignEngine::CampaignEngine(HypervisorFactory factory,
                               CampaignOptions options)
    : factory_(std::move(factory)), options_(std::move(options)) {}

CampaignEngine::CampaignEngine(Hypervisor& target, CampaignOptions options)
    : borrowed_(&target), options_(std::move(options)) {}

CampaignEngine& CampaignEngine::AddObserver(CampaignObserver* observer) {
  if (observer != nullptr) {
    observers_.push_back(observer);
  }
  return *this;
}

EngineResult CampaignEngine::Run() {
  // A borrowed target is a single instance, hence a single inline shard
  // (and nothing that could cross a fork).
  const int workers =
      borrowed_ != nullptr ? 1
                           : (options_.workers > 0 ? options_.workers : 1);
  const int samples = options_.samples > 0 ? options_.samples : 1;
  // Durable state: open (or create) the journal before any shard starts.
  // A fingerprint mismatch — the directory belongs to a different
  // campaign — throws here, before anything runs.
  std::unique_ptr<CampaignJournal> journal;
  CampaignSnapshot snapshot;
  size_t horizon = 0;
  if (!options_.state_dir.empty()) {
    const size_t epochs =
        ComputeEpochs(options_.iterations, workers, samples);
    journal = std::make_unique<CampaignJournal>(
        options_.state_dir,
        MakeManifest(options_, target_name_, workers, samples, epochs,
                     ResolveSyncing(options_, workers)));
    // O(tail) resume: seed everything from the newest loadable snapshot
    // and replay only the epochs past its horizon. A 0 return (no
    // snapshot, or every candidate torn/corrupt) degrades to full replay
    // — never an error. The worker-count check is belt and braces: the
    // fingerprint already pins `workers`.
    horizon = journal->LoadLatestSnapshot(&snapshot);
    if (horizon != 0 &&
        snapshot.workers.size() != static_cast<size_t>(workers)) {
      horizon = 0;
    }
  }
  CampaignSnapshot* resume = horizon != 0 ? &snapshot : nullptr;
  if (borrowed_ == nullptr && options_.shard_mode != ShardMode::kThreads) {
    // kProcesses and kSockets share the epoch/merge loop; only the
    // transport setup differs.
    return RunWithProcessShards(workers, samples, journal.get(), resume);
  }
  return RunWithThreadShards(workers, samples, journal.get(), resume);
}

EngineResult CampaignEngine::RunWithThreadShards(int workers, int samples,
                                                 CampaignJournal* journal,
                                                 CampaignSnapshot* snapshot) {
  const CampaignOptions& options = options_;

  std::vector<ShardContext> states(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    InitShard(states[static_cast<size_t>(w)], borrowed_, factory_, options,
              workers, w, samples);
  }
  const size_t start_epoch =
      snapshot != nullptr ? snapshot->epochs_covered : 0;
  const size_t snapshot_every =
      journal != nullptr ? options.snapshot_every_epochs : 0;
  if (snapshot != nullptr) {
    for (int w = 0; w < workers; ++w) {
      ImportWorkerState(states[static_cast<size_t>(w)], options,
                        &snapshot->workers[static_cast<size_t>(w)]);
    }
  }
  const size_t epochs = ComputeEpochs(options.iterations, workers, samples);
  const size_t total_points =
      states[0].hv->nested_coverage(options.arch).total_points();
  const bool syncing = ResolveSyncing(options, workers);

  InProcTransportOptions transport_options;
  transport_options.workers = workers;
  transport_options.merge_batch = options.merge_batch;
  InProcTransport transport(transport_options);

  MergePipelineOptions pipeline_options;
  pipeline_options.workers = workers;
  pipeline_options.epochs = epochs;
  pipeline_options.total_points = total_points;
  pipeline_options.merge_batch = options.merge_batch;
  if (journal != nullptr) {
    pipeline_options.journal = journal;
    pipeline_options.resume_epochs =
        std::min(journal->committed_epochs(), epochs);
    pipeline_options.snapshot_every = snapshot_every;
    pipeline_options.restore =
        snapshot != nullptr ? &snapshot->merged : nullptr;
    pipeline_options.hypervisor = std::string(states[0].hv->name());
    pipeline_options.arch = std::string(ArchName(options.arch));
  }
  MergePipeline pipeline(pipeline_options, &transport, observers_);

  // A worker or merge-thread failure must not strand the other threads at
  // the queue or the feedback wait: record the first exception, abort the
  // pipeline (unblocking everybody), and rethrow after the join. (`fatal`
  // is a local, so clang's analysis cannot tie it to error_mu the way
  // NECO_GUARDED_BY ties members; the capture lambda is its only writer.)
  Mutex error_mu;
  std::exception_ptr fatal;
  auto capture = [&](std::exception_ptr error) {
    {
      MutexLock lock(&error_mu);
      if (!fatal) {
        fatal = error;
      }
    }
    pipeline.Abort();
  };

  auto worker_main = [&](int w) {
    ShardContext& state = states[static_cast<size_t>(w)];
    try {
      RunShardEpochs(
          state, options, w, epochs, syncing, start_epoch, snapshot_every,
          [&](size_t through_epoch, MergePipeline::Feedback* out) {
            return pipeline.WaitForFeedback(through_epoch, w, out);
          },
          [&](wire::Buffer frame) {
            return transport.Publish(std::move(frame));
          },
          /*fault_hook=*/nullptr);
    } catch (...) {
      capture(std::current_exception());
    }
  };

  std::thread merge_thread([&] {
    try {
      pipeline.RunMergeLoop();
    } catch (...) {
      capture(std::current_exception());
    }
  });

  if (workers == 1) {
    worker_main(0);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      threads.emplace_back(worker_main, w);
    }
    for (auto& thread : threads) {
      thread.join();
    }
  }
  merge_thread.join();
  if (fatal) {
    std::rethrow_exception(fatal);
  }

  std::vector<ShardOutcome> outcomes;
  outcomes.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    outcomes.push_back(
        CollectOutcome(states[static_cast<size_t>(w)], options));
  }
  return AssembleResult(pipeline, transport, std::move(outcomes), workers,
                        epochs, total_points, journal);
}

EngineResult CampaignEngine::RunWithProcessShards(int workers, int samples,
                                                  CampaignJournal* journal,
                                                  CampaignSnapshot* snapshot) {
  const CampaignOptions& options = options_;
  const size_t start_epoch =
      snapshot != nullptr ? snapshot->epochs_covered : 0;
  const size_t snapshot_every =
      journal != nullptr ? options.snapshot_every_epochs : 0;
  const bool sockets = options.shard_mode == ShardMode::kSockets;
  const bool exec_mode = !options.shard_exec_path.empty();
  const bool remote = sockets && options.remote_launcher != nullptr;
  if ((exec_mode || remote) && target_name_.empty()) {
    throw std::invalid_argument(
        "CampaignEngine: exec-mode and remote-launched shards rebuild the "
        "target from the registry, so the session must be constructed by "
        "name");
  }

  const size_t epochs = ComputeEpochs(options.iterations, workers, samples);
  const bool syncing = ResolveSyncing(options, workers);
  size_t total_points = 0;
  std::string hv_name;
  {
    // One throwaway instance answers the coverage-universe question the
    // thread path reads off its worker states (and names the target for
    // persisted crash artifacts).
    const std::unique_ptr<Hypervisor> probe = factory_();
    total_points = probe->nested_coverage(options.arch).total_points();
    hv_name = std::string(probe->name());
  }

  // Everything an exec'd or remote child needs to rebuild its shard; fork
  // children receive (and discard) the same record so the handshake is
  // uniform.
  auto child_config = [&](int w) {
    ShardChildConfigRecord config;
    config.target = target_name_;
    config.worker = w;
    config.workers = workers;
    config.epochs = epochs;
    config.arch = static_cast<uint8_t>(options.arch);
    config.iterations = options.iterations;
    config.samples = samples;
    config.seed = options.seed;
    config.syncing = syncing ? 1 : 0;
    config.coverage_guidance = options.fuzzer.coverage_guidance ? 1 : 0;
    config.havoc_stack = options.fuzzer.havoc_stack;
    config.splice_percent = options.fuzzer.splice_percent;
    config.use_harness = options.agent.use_harness ? 1 : 0;
    config.use_validator = options.agent.use_validator ? 1 : 0;
    config.use_configurator = options.agent.use_configurator ? 1 : 0;
    config.oracle_interval = options.agent.oracle_interval;
    config.crash_dir = options.agent.crash_dir;
    config.start_epoch = start_epoch;
    config.snapshot_every = snapshot_every;
    wire::Buffer frame = wire::Encode(config);
    // Snapshot resume: the shard's materialized state rides the same
    // stream, framed right behind the config (children read one frame at
    // a time, so the concatenation demuxes itself).
    if (snapshot != nullptr) {
      const wire::Buffer state =
          wire::Encode(snapshot->workers[static_cast<size_t>(w)]);
      frame.insert(frame.end(), state.begin(), state.end());
    }
    return frame;
  };

  // The supervisor also scopes SIGPIPE (see transport.h) for every
  // feedback write below — constructed before any child or socket exists.
  ShardSupervisor supervisor;
  std::unique_ptr<FrameStreamTransport> transport;
  SocketTransport* socket_transport = nullptr;

  if (sockets) {
    SocketTransportOptions transport_options;
    transport_options.workers = workers;
    transport_options.address = options.listen_address;
    transport_options.port = options.listen_port;
    transport_options.accept_timeout_seconds = options.socket_accept_timeout;
    auto owned = std::make_unique<SocketTransport>(transport_options);
    socket_transport = owned.get();
    transport = std::move(owned);
    const uint16_t port = socket_transport->port();

    for (int w = 0; w < workers; ++w) {
      if (remote) {
        if (!options.remote_launcher(
                {w, options.listen_address, port, target_name_})) {
          throw std::runtime_error(
              "CampaignEngine: remote launcher failed for shard " +
              std::to_string(w));
        }
      } else if (exec_mode) {
        const std::vector<std::string> argv = {
            "--necofuzz-shard-child",
            "--necofuzz-connect=" + options.listen_address + ":" +
                std::to_string(port),
            "--necofuzz-worker=" + std::to_string(w)};
        // No descriptors to keep: a socket child dials its own.
        if (supervisor.SpawnExec(w, options.shard_exec_path, argv, {}) < 0) {
          throw std::runtime_error("CampaignEngine: fork() failed");
        }
      } else {
        const HypervisorFactory factory = factory_;
        const std::string address = options.listen_address;
        const int listen_fd = socket_transport->listen_fd();
        const pid_t pid = supervisor.SpawnFork(w, [&, w] {
          ::close(listen_fd);  // Do not keep the parent's port alive.
          std::string dial_error;
          const int sock = DialShardSocket(address, port, w, &dial_error);
          if (sock < 0) {
            return 2;
          }
          // A fork child inherits its configuration through memory, but
          // reads the config frame anyway so the stream afterwards
          // carries feedback frames only.
          wire::Buffer frame;
          ShardChildConfigRecord config;
          if (!ReadPipeFrame(sock, &frame) || !wire::Decode(frame, &config)) {
            ::close(sock);
            return 2;
          }
          // Same for the snapshot state frame trailing the config on a
          // resume — decoded off the stream, like an exec'd child would.
          WorkerStateRecord restore;
          if (config.start_epoch > 0 &&
              (!ReadPipeFrame(sock, &frame) ||
               !wire::Decode(frame, &restore) || restore.worker != w)) {
            ::close(sock);
            return 2;
          }
          return RunShardChildLoop(factory, options, workers, w, samples,
                                   epochs, syncing, start_epoch,
                                   snapshot_every,
                                   config.start_epoch > 0 ? &restore : nullptr,
                                   sock, sock);
        });
        if (pid < 0) {
          throw std::runtime_error("CampaignEngine: fork() failed");
        }
      }
    }
  } else {
    // Pipe pairs are created per child, immediately before its fork, so a
    // child never inherits a sibling's write end (which would keep that
    // sibling's stream from ever reaching EOF when it dies). Parent-held
    // ends are O_CLOEXEC from birth, so exec'd children shed them without
    // any close sweep racing the exec.
    std::vector<PipeShardChannel> channels;
    FdCloser parent_ends;  // Until PipeTransport takes ownership.
    for (int w = 0; w < workers; ++w) {
      int delta[2] = {-1, -1};
      int feedback[2] = {-1, -1};
      if (::pipe2(delta, O_CLOEXEC) != 0) {
        throw std::runtime_error("CampaignEngine: pipe2() failed: " +
                                 SafeStrerror(errno));
      }
      parent_ends.Add(delta[0]);
      if (::pipe2(feedback, O_CLOEXEC) != 0) {
        ::close(delta[1]);
        throw std::runtime_error("CampaignEngine: pipe2() failed: " +
                                 SafeStrerror(errno));
      }
      parent_ends.Add(feedback[1]);
      channels.push_back({w, delta[0], feedback[1]});
      const int delta_wr = delta[1];
      const int feedback_rd = feedback[0];

      pid_t pid = -1;
      if (exec_mode) {
        const std::vector<std::string> argv = {
            "--necofuzz-shard-child",
            "--necofuzz-delta-fd=" + std::to_string(delta_wr),
            "--necofuzz-feedback-fd=" + std::to_string(feedback_rd)};
        // SpawnExec clears FD_CLOEXEC on the kept ends in the child.
        pid = supervisor.SpawnExec(w, options.shard_exec_path, argv,
                                   {delta_wr, feedback_rd});
      } else {
        // Fork mode: the child inherits everything it needs through
        // memory. It drops the parent-held ends created so far (CLOEXEC
        // cannot help a fork-only child); sibling child ends need no
        // hand-closing anymore — they are already gone from this process
        // by the time this fork happens.
        const HypervisorFactory factory = factory_;
        pid = supervisor.SpawnFork(w, [&, w, delta_wr, feedback_rd] {
          for (const PipeShardChannel& ch : channels) {
            ::close(ch.delta_fd);
            ::close(ch.feedback_fd);
          }
          // A fork child's snapshot state arrives through inherited
          // memory, like the rest of its configuration (no config frame
          // is sent on the pipe-fork path).
          return RunShardChildLoop(
              factory, options, workers, w, samples, epochs, syncing,
              start_epoch, snapshot_every,
              snapshot != nullptr
                  ? &snapshot->workers[static_cast<size_t>(w)]
                  : nullptr,
              delta_wr, feedback_rd);
        });
      }
      // Parent: the child-side ends live in the child now (or never will,
      // on failure).
      ::close(delta_wr);
      ::close(feedback_rd);
      if (pid < 0) {
        // parent_ends releases every parent pipe end; ~ShardSupervisor
        // reaps whatever was already spawned.
        throw std::runtime_error("CampaignEngine: fork() failed");
      }
    }
    // PipeTransport owns the parent ends from here (closing them itself
    // if its constructor fails).
    parent_ends.Release();
    transport = std::make_unique<PipeTransport>(std::move(channels));
  }

  MergePipelineOptions pipeline_options;
  pipeline_options.workers = workers;
  pipeline_options.epochs = epochs;
  pipeline_options.total_points = total_points;
  pipeline_options.merge_batch = options.merge_batch;
  pipeline_options.push_feedback = syncing;
  if (journal != nullptr) {
    pipeline_options.journal = journal;
    pipeline_options.resume_epochs =
        std::min(journal->committed_epochs(), epochs);
    pipeline_options.snapshot_every = snapshot_every;
    pipeline_options.restore =
        snapshot != nullptr ? &snapshot->merged : nullptr;
    pipeline_options.hypervisor = hv_name;
    pipeline_options.arch = std::string(ArchName(options.arch));
  }
  MergePipeline pipeline(pipeline_options, transport.get(), observers_);

  // There are no worker threads in the parent, so the merge loop runs
  // inline; any failure (corrupt delta, dead shard, failed handshake)
  // lands here.
  try {
    if (sockets) {
      // The handshake doubles as config delivery; with a local launcher a
      // child that dies before saying hello fails the wait early instead
      // of running out the accept timeout. A *clean* exit is not a death:
      // a fast shard can legitimately finish its whole workload (frames
      // parked in the socket buffers) and exit 0 while a slower sibling
      // is still dialing.
      auto children_alive = [&supervisor] {
        for (const ShardExit& shard_exit : supervisor.ReapExited()) {
          if (shard_exit.reaped && !shard_exit.clean()) {
            return false;
          }
        }
        return true;
      };
      if (!socket_transport->AcceptShards(
              child_config, remote ? std::function<bool()>()
                                   : std::function<bool()>(children_alive))) {
        throw std::runtime_error("CampaignEngine: " + transport->error());
      }
    } else if (exec_mode) {
      // Exec'd pipe children know nothing yet: ship each one its config
      // record before expecting the first delta.
      for (int w = 0; w < workers; ++w) {
        if (!transport->SendFeedback(w, child_config(w))) {
          throw std::runtime_error("CampaignEngine: " + transport->error());
        }
      }
    }
    pipeline.RunMergeLoop();
    if (pipeline.finalized_epochs() < epochs) {
      throw std::runtime_error("CampaignEngine: campaign aborted after " +
                               std::to_string(pipeline.finalized_epochs()) +
                               " of " + std::to_string(epochs) + " epochs");
    }
    if (!transport->CollectResults()) {
      throw std::runtime_error("CampaignEngine: " + transport->error());
    }
  } catch (const std::exception& e) {
    // Harvest whoever already died (the likely culprit) for the error
    // message, then tear the rest down so nothing outlives the campaign.
    pipeline.Abort();
    std::string message = e.what();
    // The transport knows which shard it saw die; reap that child for
    // its exit status ("killed by signal 9") before the teardown kill
    // makes every survivor look the same. Then harvest any other
    // already-dead children. (With a remote launcher there is nothing to
    // reap; the transport's attribution is the whole story.)
    const int dead_worker = transport->dead_worker();
    if (dead_worker >= 0) {
      const ShardExit shard_exit = supervisor.WaitWorker(dead_worker);
      if (shard_exit.reaped && !shard_exit.clean()) {
        message += "; shard " + std::to_string(shard_exit.worker) + " " +
                   shard_exit.Describe();
      }
    }
    for (const ShardExit& shard_exit : supervisor.ReapExited()) {
      if (shard_exit.worker != dead_worker && shard_exit.reaped &&
          !shard_exit.clean()) {
        message += "; shard " + std::to_string(shard_exit.worker) + " " +
                   shard_exit.Describe();
      }
    }
    supervisor.KillAll(SIGKILL);
    supervisor.WaitAll();
    throw std::runtime_error(message);
  }

  // Clean completion: every locally launched child must also exit
  // cleanly (remote-launched shards have no local pid; their clean "exit"
  // is the result record plus EOF the transport already verified).
  for (const ShardExit& shard_exit : supervisor.WaitAll()) {
    if (!shard_exit.clean()) {
      throw std::runtime_error("CampaignEngine: shard " +
                               std::to_string(shard_exit.worker) + " " +
                               shard_exit.Describe());
    }
  }

  std::vector<ShardOutcome> outcomes;
  outcomes.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    const ShardResultRecord* record = transport->shard_result(w);
    if (record == nullptr) {
      throw std::runtime_error("CampaignEngine: shard " + std::to_string(w) +
                               " never delivered its result record");
    }
    outcomes.push_back(OutcomeFromRecord(*record));
  }
  return AssembleResult(pipeline, *transport, std::move(outcomes), workers,
                        epochs, total_points, journal);
}

namespace {

// Strict fd parse: anything but a pure decimal number is -1, so a mangled
// argument can never alias stdin (fd 0) and pass validation.
int ParseFdArg(const std::string& arg, const std::string& prefix) {
  const char* text = arg.c_str() + prefix.size();
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0 || value > 1 << 20) {
    return -1;
  }
  return static_cast<int>(value);
}

}  // namespace

int MaybeRunShardChild(int argc, char** argv) {
  bool is_child = false;
  int delta_fd = -1;
  int feedback_fd = -1;
  int worker_arg = -1;
  std::string connect;
  const std::string delta_prefix = "--necofuzz-delta-fd=";
  const std::string feedback_prefix = "--necofuzz-feedback-fd=";
  const std::string connect_prefix = "--necofuzz-connect=";
  const std::string worker_prefix = "--necofuzz-worker=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--necofuzz-shard-child") {
      is_child = true;
    } else if (arg.rfind(delta_prefix, 0) == 0) {
      delta_fd = ParseFdArg(arg, delta_prefix);
    } else if (arg.rfind(feedback_prefix, 0) == 0) {
      feedback_fd = ParseFdArg(arg, feedback_prefix);
    } else if (arg.rfind(connect_prefix, 0) == 0) {
      connect = arg.substr(connect_prefix.size());
    } else if (arg.rfind(worker_prefix, 0) == 0) {
      worker_arg = ParseFdArg(arg, worker_prefix);
    }
  }
  if (!is_child) {
    return -1;
  }
  ::signal(SIGPIPE, SIG_IGN);

  if (!connect.empty()) {
    // Socket mode: dial the parent's listener, introduce ourselves, and
    // run the shard over the connection. This is the exact invocation a
    // RemoteLauncher issues on another machine.
    const size_t colon = connect.rfind(':');
    if (colon == std::string::npos || worker_arg < 0) {
      return 2;
    }
    const std::string address = connect.substr(0, colon);
    const int port = ParseFdArg(connect.substr(colon + 1), std::string());
    if (port <= 0 || port > 65535) {
      return 2;
    }
    std::string dial_error;
    const int sock = DialShardSocket(address, static_cast<uint16_t>(port),
                                     worker_arg, &dial_error);
    if (sock < 0) {
      return 2;
    }
    delta_fd = sock;
    feedback_fd = sock;
  } else if (delta_fd < 0 || feedback_fd < 0) {
    return 2;
  }

  wire::Buffer frame;
  ShardChildConfigRecord config;
  if (!ReadPipeFrame(feedback_fd, &frame) || !wire::Decode(frame, &config) ||
      (worker_arg >= 0 && config.worker != worker_arg)) {
    return 2;
  }
  // Snapshot resume: a non-zero start epoch promises a WorkerStateRecord
  // frame right behind the config on the same stream.
  WorkerStateRecord restore;
  if (config.start_epoch > 0 &&
      (!ReadPipeFrame(feedback_fd, &frame) || !wire::Decode(frame, &restore) ||
       restore.worker != config.worker ||
       restore.epochs_covered != config.start_epoch)) {
    return 2;
  }
  try {
    const HypervisorFactory factory =
        ResolveHypervisorFactory(config.target);
    CampaignOptions options;
    options.arch = static_cast<Arch>(config.arch);
    options.iterations = config.iterations;
    options.samples = config.samples;
    options.seed = config.seed;
    options.workers = config.workers;
    options.fuzzer.coverage_guidance = config.coverage_guidance != 0;
    options.fuzzer.havoc_stack = config.havoc_stack;
    options.fuzzer.splice_percent = config.splice_percent;
    options.agent.use_harness = config.use_harness != 0;
    options.agent.use_validator = config.use_validator != 0;
    options.agent.use_configurator = config.use_configurator != 0;
    options.agent.oracle_interval = config.oracle_interval;
    options.agent.crash_dir = config.crash_dir;
    return RunShardChildLoop(
        factory, options, config.workers, config.worker, config.samples,
        config.epochs, config.syncing != 0,
        static_cast<size_t>(config.start_epoch),
        static_cast<size_t>(config.snapshot_every),
        config.start_epoch > 0 ? &restore : nullptr, delta_fd, feedback_fd);
  } catch (...) {
    return 1;
  }
}

}  // namespace neco
