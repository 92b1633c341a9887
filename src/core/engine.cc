#include "src/core/engine.h"

#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
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
#include "src/core/transport/socket.h"
#include "src/core/transport/stream.h"
#include "src/core/transport/supervisor.h"
#include "src/fuzz/fuzzer.h"
#include "src/support/errno_util.h"
#include "src/support/mutex.h"

namespace neco {

namespace {

// --- One shard's private campaign state ----------------------------------

struct ShardContext {
  Arch arch = Arch::kIntel;
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

// Everything the campaign's results depend on, resolved once per Run():
// the journal fingerprints it and every shard is built from it.
CampaignSpec MakeSpec(const CampaignOptions& options,
                      const std::string& target, bool borrowed) {
  CampaignSpec spec;
  // A borrowed target is a single instance, hence a single shard (and
  // nothing that could cross a fork).
  spec.workers = borrowed ? 1 : std::max(options.workers, 1);
  spec.samples = std::max(options.samples, 1);
  spec.epochs = ComputeEpochs(options.iterations, spec.workers, spec.samples);
  spec.arch = static_cast<uint8_t>(options.arch);
  spec.iterations = options.iterations;
  spec.seed = options.seed;
  // Syncing needs a corpus, and in breadth-first mode (guidance off)
  // nothing is ever queued or exported, so shards run fully decoupled
  // instead of idling on empty exchanges.
  spec.corpus_sync = options.corpus_sync && spec.workers > 1 &&
                     options.fuzzer.coverage_guidance;
  spec.coverage_guidance = options.fuzzer.coverage_guidance;
  spec.havoc_stack = options.fuzzer.havoc_stack;
  spec.splice_percent = options.fuzzer.splice_percent;
  spec.use_harness = options.agent.use_harness;
  spec.use_validator = options.agent.use_validator;
  spec.use_configurator = options.agent.use_configurator;
  spec.oracle_interval = options.agent.oracle_interval;
  spec.target = target;
  return spec;
}

// Builds a shard from its config. An empty `factory` rebuilds the target
// from the config's registry name (exec'd and remote children).
void InitShard(ShardContext& state, Hypervisor* borrowed,
               const HypervisorFactory& factory,
               const ShardChildConfigRecord& config) {
  state.arch = static_cast<Arch>(config.arch);
  if (borrowed != nullptr) {
    state.hv = borrowed;
  } else {
    state.owned =
        factory ? factory() : ResolveHypervisorFactory(config.target)();
    state.hv = state.owned.get();
  }
  CoverageUnit& cov = state.hv->nested_coverage(state.arch);
  cov.ResetCoverage();
  state.hv->sanitizers().Clear();

  const AgentOptions agent_options{
      .arch = state.arch,
      .use_harness = config.use_harness != 0,
      .use_validator = config.use_validator != 0,
      .use_configurator = config.use_configurator != 0,
      .oracle_interval = config.oracle_interval};
  state.agent = std::make_unique<Agent>(*state.hv, agent_options);

  const FuzzerOptions fuzzer_options{
      .seed = config.seed + static_cast<uint64_t>(config.worker),
      .coverage_guidance = config.coverage_guidance != 0,
      .havoc_stack = config.havoc_stack,
      .splice_percent = config.splice_percent};
  state.fuzzer =
      std::make_unique<Fuzzer>(fuzzer_options, state.agent->MakeExecutor());

  state.steps = ChunkSchedule(
      ShardBudget(config.iterations, config.workers, config.worker),
      config.samples);
}

// --- Worker state capture/restore (materialized snapshots) ---------------

// Serializes everything a shard needs to continue past `horizon` epochs
// as if it never stopped: fuzzer (corpus, RNG streams, virgin map, crash
// dedup), agent (throughput counters, findings, learned quirk tables),
// coverage unit, host-crash flags, and the export bookkeeping. Captured
// AFTER the epoch's delta was assembled, so every "already shipped"
// cursor is included at its post-export position.
WorkerStateRecord ExportWorkerState(ShardContext& state, int w,
                                    size_t horizon) {
  WorkerStateRecord record;
  record.worker = w;
  record.epochs_covered = horizon;
  state.fuzzer->ExportState(&record);
  state.agent->ExportState(&record);
  const CoverageUnit& cov = state.hv->nested_coverage(state.arch);
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
void ImportWorkerState(ShardContext& state, WorkerStateRecord* record) {
  state.fuzzer->ImportState(record);
  state.agent->ImportState(*record);
  CoverageUnit& cov = state.hv->nested_coverage(state.arch);
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

// A shard's link to the merge side, the same two calls over every medium:
// publish one encoded frame, receive one. Either returning false means the
// campaign is going down (or the stream is gone) and the shard stops.
struct ShardChannel {
  std::function<bool(wire::Buffer)> publish;
  std::function<bool(wire::Buffer*)> receive;
};

ShardResultRecord RecordFromContext(ShardContext& state, int w) {
  ShardResultRecord record;
  CoverageUnit& cov = state.hv->nested_coverage(state.arch);
  record.worker = w;
  CampaignResult& result = record.result;
  result.final_percent = cov.percent();
  result.covered_points = cov.covered_points();
  result.total_points = cov.total_points();
  result.covered_set = cov.CoveredSet();
  for (const auto& [id, report] : state.agent->findings()) {
    result.findings.push_back(report);
  }
  result.fuzzer_stats = state.fuzzer->stats();
  result.watchdog_restarts = state.agent->watchdog_restarts();
  record.corpus_imports = state.imports;
  for (const auto& [id, input] : state.fuzzer->crashes()) {
    record.crash_ids.push_back(id);
    record.crash_inputs.push_back(input);
  }
  return record;
}

// The shard run path, the same for every shard in every mode. It first
// reads the shard's start frames (see SendStartFrames; a negative
// `worker` accepts whichever worker the config names), builds the shard
// from its config, seeds it from its WorkerStateRecord on a resume, runs
// the epoch loop, and publishes the ShardResultRecord. Each epoch absorbs
// the previous epoch's FeedbackRecord (when syncing), fuzzes one step,
// and publishes one wire-encoded ShardDelta. Every worker publishes one
// delta per global epoch — empty ones past its own schedule — so the
// drainer can finalize epochs without tracking per-shard schedules. With
// a snapshot cadence it additionally publishes a WorkerStateRecord frame
// right before each snapshot epoch's delta. Returns false when the
// channel failed or handed over a frame that is not this shard's next
// start or feedback frame.
bool RunShard(Hypervisor* borrowed, const HypervisorFactory& factory,
              int worker, const ShardChannel& channel,
              const std::function<void(int, size_t)>& fault_hook) {
  wire::Buffer start;
  ShardChildConfigRecord config;
  if (!channel.receive(&start) || !wire::Decode(start, &config) ||
      (worker >= 0 && config.worker != worker)) {
    return false;
  }
  WorkerStateRecord restore;
  if (config.start_epoch > 0 &&
      (!channel.receive(&start) || !wire::Decode(start, &restore) ||
       restore.worker != config.worker ||
       restore.epochs_covered != config.start_epoch)) {
    return false;
  }
  const int w = config.worker;
  ShardContext state;
  InitShard(state, borrowed, factory, config);
  if (config.start_epoch > 0) {
    ImportWorkerState(state, &restore);
  }
  for (size_t epoch = config.start_epoch; epoch < config.epochs; ++epoch) {
    if (fault_hook) {
      fault_hook(w, epoch);
    }
    uint64_t imported = 0;
    if (config.corpus_sync && epoch > 0) {
      wire::Buffer frame;
      FeedbackRecord feedback;
      if (!channel.receive(&frame) || !wire::Decode(frame, &feedback) ||
          feedback.worker != w || feedback.epoch != epoch - 1) {
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

    if (!config.corpus_sync) {
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
    delta.covered_points = state.hv->nested_coverage(state.arch)
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
    if (config.snapshot_every != 0 &&
        (epoch + 1) % config.snapshot_every == 0) {
      if (!channel.publish(
              wire::Encode(ExportWorkerState(state, w, epoch + 1)))) {
        return false;
      }
    }
    // Queue entries are serialized straight out of the fuzzer's corpus
    // (fuzzer_delta holds pointers, valid until the fuzzer's next Run);
    // delta.queue_entries stays empty — the bytes exist once, in the
    // corpus and then in the frame.
    if (!channel.publish(wire::Encode(delta, fuzzer_delta.queue_entries))) {
      return false;
    }
  }
  return channel.publish(wire::Encode(RecordFromContext(state, w)));
}

// The merge pipeline's options, the same for every shard mode. One probe
// instance built by the factory — or the borrowed target — answers the
// coverage-universe size and names the target for persisted crash
// artifacts.
MergePipelineOptions MakePipelineOptions(const ShardChildConfigRecord& config,
                                         Hypervisor* borrowed,
                                         const HypervisorFactory& factory,
                                         CampaignJournal* journal,
                                         const CampaignSnapshot* snapshot) {
  const std::unique_ptr<Hypervisor> probe =
      borrowed == nullptr ? factory() : nullptr;
  Hypervisor& target = borrowed != nullptr ? *borrowed : *probe;
  const Arch arch = static_cast<Arch>(config.arch);
  MergePipelineOptions pipeline;
  pipeline.workers = config.workers;
  pipeline.epochs = config.epochs;
  pipeline.total_points = target.nested_coverage(arch).total_points();
  pipeline.push_feedback = config.corpus_sync != 0;
  if (journal != nullptr) {
    pipeline.journal = journal;
    pipeline.resume_epochs =
        std::min(journal->committed_epochs(), pipeline.epochs);
    pipeline.snapshot_every = config.snapshot_every;
    pipeline.restore = snapshot != nullptr ? &snapshot->merged : nullptr;
    pipeline.hypervisor = std::string(target.name());
    pipeline.arch = std::string(ArchName(arch));
  }
  return pipeline;
}

// Sends every shard its start frames through the transport, the same
// frames through the same call in every shard mode: the shard's config
// and, on a resume from `snapshot`, the WorkerStateRecord it continues
// from. They are the first frames each shard reads (RunShard).
void SendStartFrames(ShardTransport& transport,
                     const ShardChildConfigRecord& config,
                     const CampaignSnapshot* snapshot) {
  for (int w = 0; w < config.workers; ++w) {
    ShardChildConfigRecord shard = config;
    shard.worker = w;
    bool sent = transport.SendFeedback(w, wire::Encode(shard));
    if (sent && snapshot != nullptr) {
      sent = transport.SendFeedback(
          w, wire::Encode(snapshot->workers[static_cast<size_t>(w)]));
    }
    if (!sent) {
      throw std::runtime_error("CampaignEngine: " + transport.error());
    }
  }
}

// --- The shard child (process and socket mode, fork and exec flavors) ---

// Says on stderr why a shard child exits with `code`: otherwise the
// parent sees only a stream that closed or a shard that never dialed in.
int ShardChildExit(int worker, int code, const std::string& why) {
  const std::string who =
      worker >= 0 ? "shard " + std::to_string(worker) : "shard child";
  std::fprintf(stderr, "necofuzz: %s %s\n", who.c_str(), why.c_str());
  return code;
}

int ShardChildCannotStart(int worker, const std::string& reason) {
  return ShardChildExit(worker, 2, "cannot start: " + reason);
}

// The entry of every shard child: runs the shard over its one
// full-duplex stream `fd`, which it owns. An empty `factory` rebuilds the
// target from the config's registry name. SIGPIPE must be ignored: a
// fork'd child inherits the supervisor's SIG_IGN, and MaybeRunShardChild
// sets it for an exec'd or remote one. A shard that throws (an unknown
// target, a failing hypervisor) says why and exits 1.
int RunShardChild(const HypervisorFactory& factory, int fd, int worker,
                  const std::function<void(int, size_t)>& fault_hook) {
  const ShardChannel channel{
      [fd](wire::Buffer frame) { return WritePipeFrame(fd, frame); },
      [fd](wire::Buffer* frame) { return ReadPipeFrame(fd, frame); }};
  bool ran = false;
  try {
    ran = RunShard(nullptr, factory, worker, channel, fault_hook);
  } catch (const std::exception& e) {
    ::close(fd);
    return ShardChildExit(worker, 1, std::string("failed: ") + e.what());
  }
  ::close(fd);
  // A failed run means the parent is gone or the stream is corrupt; the
  // parent reports its own error.
  return ran ? 0 : 2;
}

// Runs the merge loop through the last epoch, then waits for every shard's
// result record; throws when either falls short.
void MergeAndCollect(MergePipeline& pipeline, ShardTransport& transport,
                     size_t epochs) {
  pipeline.RunMergeLoop();
  if (pipeline.finalized_epochs() < epochs) {
    throw std::runtime_error("CampaignEngine: campaign aborted after " +
                             std::to_string(pipeline.finalized_epochs()) +
                             " of " + std::to_string(epochs) + " epochs");
  }
  if (!transport.CollectResults()) {
    throw std::runtime_error("CampaignEngine: " + transport.error());
  }
}

// --- Result assembly (shared by both shard modes) ------------------------

EngineResult AssembleResult(MergePipeline& pipeline,
                            const ShardTransport& transport,
                            const MergePipelineOptions& options) {
  EngineResult out;
  out.pipeline = pipeline.stats();
  out.transport = transport.stats();
  if (options.journal != nullptr) {
    out.journal = options.journal->stats();
  }
  const size_t total_points = options.total_points;
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
      CoveragePercent(out.merged.covered_points, total_points);
  for (const auto& [id, report] : pipeline.findings()) {
    out.merged.findings.push_back(report);
  }
  out.merged.fuzzer_stats.bitmap_edges = pipeline.virgin().CountNonZero();

  std::unordered_set<std::string> crash_ids;
  for (int w = 0; w < options.workers; ++w) {
    const ShardResultRecord* record = transport.shard_result(w);
    if (record == nullptr) {
      throw std::runtime_error("CampaignEngine: shard " + std::to_string(w) +
                               " never delivered its result record");
    }
    const CampaignResult& shard = record->result;
    out.merged.fuzzer_stats.iterations += shard.fuzzer_stats.iterations;
    out.merged.fuzzer_stats.queue_size += shard.fuzzer_stats.queue_size;
    out.merged.watchdog_restarts += shard.watchdog_restarts;
    out.corpus_imports += record->corpus_imports;
    // Decode() guarantees the two crash arrays agree in length.
    std::vector<std::pair<std::string, FuzzInput>>& shard_crashes =
        out.crashes.emplace_back();
    for (size_t i = 0; i < record->crash_ids.size(); ++i) {
      crash_ids.insert(record->crash_ids[i]);
      shard_crashes.emplace_back(record->crash_ids[i],
                                 record->crash_inputs[i]);
    }
    pipeline.NotifyShardDone(*record);
    out.per_worker.push_back(shard);
  }
  out.merged.fuzzer_stats.unique_anomalies = crash_ids.size();

  pipeline.NotifyFinish(
      {options.workers, options.epochs, out.merged, out.corpus_imports});
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
  ShardChildConfigRecord config{
      MakeSpec(options_, target_name_, borrowed_ != nullptr)};
  // Durable state: open (or create) the journal before any shard starts.
  // A fingerprint mismatch — the directory belongs to a different
  // campaign — throws here, before anything runs.
  std::unique_ptr<CampaignJournal> journal;
  CampaignSnapshot snapshot;
  const CampaignSnapshot* resume = nullptr;
  if (!options_.state_dir.empty()) {
    journal = std::make_unique<CampaignJournal>(options_.state_dir, config);
    // O(tail) resume: seed everything from the newest loadable snapshot
    // and replay only the epochs past its horizon. A 0 return (no
    // snapshot, or every candidate torn/corrupt) degrades to full replay
    // — never an error. The worker-count check is belt and braces: the
    // fingerprint already pins `workers`.
    if (journal->LoadLatestSnapshot(&snapshot) != 0 &&
        snapshot.workers.size() == static_cast<size_t>(config.workers)) {
      resume = &snapshot;
      config.start_epoch = snapshot.epochs_covered;
    }
    config.snapshot_every = options_.snapshot_every_epochs;
  }
  const MergePipelineOptions pipeline_options = MakePipelineOptions(
      config, borrowed_, factory_, journal.get(), resume);
  if (borrowed_ == nullptr && options_.shard_mode != ShardMode::kThreads) {
    // kProcesses and kSockets share the child entry and the stream
    // transport engine; only the transport setup differs.
    return RunWithProcessShards(config, pipeline_options, resume);
  }
  return RunWithThreadShards(config, pipeline_options, resume);
}

EngineResult CampaignEngine::RunWithThreadShards(
    const ShardChildConfigRecord& config,
    const MergePipelineOptions& pipeline_options,
    const CampaignSnapshot* snapshot) {
  InProcTransportOptions transport_options;
  transport_options.workers = config.workers;
  InProcTransport transport(transport_options);
  MergePipeline pipeline(pipeline_options, &transport, observers_);

  // A worker or merge-loop failure must not strand the other threads at
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
    const ShardChannel channel{
        [&](wire::Buffer frame) {
          return transport.Publish(std::move(frame));
        },
        [&, w](wire::Buffer* frame) {
          return transport.ReceiveFeedback(w, frame);
        }};
    try {
      if (!RunShard(borrowed_, factory_, w, channel,
                    /*fault_hook=*/nullptr)) {
        // The campaign is already failing (that error was recorded first),
        // or the shard broke the protocol: fail rather than leave it hung.
        throw std::runtime_error("CampaignEngine: shard " +
                                 std::to_string(w) +
                                 " stopped before delivering its result");
      }
    } catch (...) {
      capture(std::current_exception());
    }
  };

  // Every shard builds and runs on its own thread; the merge loop runs on
  // this one. The start frames are queued before any thread starts, so no
  // shard waits for them.
  std::vector<std::thread> threads;
  try {
    SendStartFrames(transport, config, snapshot);
    for (int w = 0; w < config.workers; ++w) {
      threads.emplace_back(worker_main, w);
    }
    MergeAndCollect(pipeline, transport, config.epochs);
  } catch (...) {
    capture(std::current_exception());
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  if (fatal) {
    std::rethrow_exception(fatal);
  }
  return AssembleResult(pipeline, transport, pipeline_options);
}

EngineResult CampaignEngine::RunWithProcessShards(
    const ShardChildConfigRecord& config,
    const MergePipelineOptions& pipeline_options,
    const CampaignSnapshot* snapshot) {
  const CampaignOptions& options = options_;
  const bool sockets = options.shard_mode == ShardMode::kSockets;
  const bool exec_mode = !options.shard_exec_path.empty();
  const bool remote = sockets && options.remote_launcher != nullptr;
  if ((exec_mode || remote) && target_name_.empty()) {
    throw std::invalid_argument(
        "CampaignEngine: exec-mode and remote-launched shards rebuild the "
        "target from the registry, so the session must be constructed by "
        "name");
  }

  // The supervisor also scopes SIGPIPE (see transport.h) for every
  // feedback write below — constructed before any child or socket exists.
  ShardSupervisor supervisor;
  std::unique_ptr<FrameStreamTransport> transport;
  SocketTransport* socket_transport = nullptr;

  if (sockets) {
    SocketTransportOptions transport_options;
    transport_options.workers = config.workers;
    transport_options.address = options.listen_address;
    transport_options.port = options.listen_port;
    transport_options.accept_timeout_seconds = options.socket_accept_timeout;
    auto owned = std::make_unique<SocketTransport>(transport_options);
    socket_transport = owned.get();
    transport = std::move(owned);
    const uint16_t port = socket_transport->port();

    for (int w = 0; w < config.workers; ++w) {
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
        // No descriptor to keep: a socket child dials its own.
        if (supervisor.SpawnExec(w, options.shard_exec_path, argv, -1) < 0) {
          throw std::runtime_error("CampaignEngine: fork() failed");
        }
      } else {
        const int listen_fd = socket_transport->listen_fd();
        const pid_t pid = supervisor.SpawnFork(w, [&, w] {
          ::close(listen_fd);  // Do not keep the parent's port alive.
          std::string dial_error;
          const int sock =
              DialShardSocket(options.listen_address, port, w, &dial_error);
          if (sock < 0) {
            return ShardChildCannotStart(w, dial_error);
          }
          return RunShardChild(factory_, sock, w,
                               options.shard_fault_for_test);
        });
        if (pid < 0) {
          throw std::runtime_error("CampaignEngine: fork() failed");
        }
      }
    }
  } else {
    // One socketpair per child, created immediately before its fork, so a
    // child never inherits a sibling's child end (which would keep that
    // sibling's stream from ever reaching EOF when it dies). The
    // transport adopts the parent end at once; it is O_CLOEXEC, so exec'd
    // children shed it without any close sweep racing the exec.
    transport = std::make_unique<FrameStreamTransport>();
    std::vector<int> parent_ends;
    for (int w = 0; w < config.workers; ++w) {
      int ends[2] = {-1, -1};
      if (::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends) != 0) {
        throw std::runtime_error("CampaignEngine: socketpair() failed: " +
                                 SafeStrerror(errno));
      }
      const int child_end = ends[1];
      if (!transport->AdoptChannel(w, ends[0])) {
        ::close(child_end);
        throw std::runtime_error("CampaignEngine: " + transport->error());
      }
      parent_ends.push_back(ends[0]);

      pid_t pid = -1;
      if (exec_mode) {
        const std::vector<std::string> argv = {
            "--necofuzz-shard-child",
            "--necofuzz-fd=" + std::to_string(child_end),
            "--necofuzz-worker=" + std::to_string(w)};
        pid = supervisor.SpawnExec(w, options.shard_exec_path, argv,
                                   child_end);
      } else {
        // A fork'd child drops the parent ends created so far, its own
        // included (CLOEXEC cannot help a fork-only child); sibling child
        // ends are already gone from this process by the time it forks.
        pid = supervisor.SpawnFork(w, [&, w, child_end] {
          for (const int fd : parent_ends) {
            ::close(fd);
          }
          return RunShardChild(factory_, child_end, w,
                               options.shard_fault_for_test);
        });
      }
      // Parent: the child end lives in the child now (or never will, on
      // failure); ~ShardSupervisor reaps whatever was already spawned.
      ::close(child_end);
      if (pid < 0) {
        throw std::runtime_error("CampaignEngine: fork() failed");
      }
    }
  }

  MergePipeline pipeline(pipeline_options, transport.get(), observers_);

  // There are no worker threads in the parent; any failure of the merge
  // loop (corrupt delta, dead shard, failed handshake) lands here.
  try {
    if (sockets) {
      // The handshake is the hello alone; with a local launcher a child
      // that dies before saying hello fails the wait early instead of
      // running out the accept timeout.
      auto children_alive = [&supervisor] {
        for (const ShardExit& shard_exit : supervisor.ReapExited()) {
          if (shard_exit.reaped && !shard_exit.clean()) {
            return false;
          }
        }
        return true;
      };
      if (!socket_transport->AcceptShards(
              remote ? std::function<bool()>()
                     : std::function<bool()>(children_alive))) {
        throw std::runtime_error("CampaignEngine: " + transport->error());
      }
    }
    SendStartFrames(*transport, config, snapshot);
    MergeAndCollect(pipeline, *transport, config.epochs);
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

  return AssembleResult(pipeline, *transport, pipeline_options);
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
  int fd = -1;
  int worker = -1;
  std::string connect;
  const std::string fd_prefix = "--necofuzz-fd=";
  const std::string connect_prefix = "--necofuzz-connect=";
  const std::string worker_prefix = "--necofuzz-worker=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--necofuzz-shard-child") {
      is_child = true;
    } else if (arg.rfind(fd_prefix, 0) == 0) {
      fd = ParseFdArg(arg, fd_prefix);
    } else if (arg.rfind(connect_prefix, 0) == 0) {
      connect = arg.substr(connect_prefix.size());
    } else if (arg.rfind(worker_prefix, 0) == 0) {
      worker = ParseFdArg(arg, worker_prefix);
    }
  }
  if (!is_child) {
    return -1;
  }
  // The parent may die or abort at any time; a write into the closed
  // stream, the hello included, must come back as an error code, not a
  // process-killing SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);

  if (!connect.empty()) {
    // Socket mode: dial the parent's listener, introduce ourselves, and
    // run the shard over the connection. This is the exact invocation a
    // RemoteLauncher issues on another machine.
    const size_t colon = connect.rfind(':');
    const int port = colon == std::string::npos
                         ? -1
                         : ParseFdArg(connect.substr(colon + 1), std::string());
    if (worker < 0 || port <= 0 || port > 65535) {
      return ShardChildCannotStart(
          worker, "needs --necofuzz-connect=<address:port> and "
                  "--necofuzz-worker=<n>");
    }
    std::string dial_error;
    fd = DialShardSocket(connect.substr(0, colon),
                         static_cast<uint16_t>(port), worker, &dial_error);
    if (fd < 0) {
      return ShardChildCannotStart(worker, dial_error);
    }
  } else if (fd < 0) {
    return ShardChildCannotStart(
        worker, "needs --necofuzz-fd=<n> or --necofuzz-connect");
  }
  return RunShardChild(HypervisorFactory(), fd, worker,
                       /*fault_hook=*/nullptr);
}

}  // namespace neco
