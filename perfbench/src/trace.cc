// The traced run: per-layer costs, each timed from outside around the
// public functions of its layer.
//
//  1. An observed CampaignEngine::Run() of the workload: the gaps between
//     OnSample events (merge epochs) and the bytes the transport carried.
//  2. A shard loop driven by the benchmark (the engine's epoch loop,
//     rebuilt from public calls): Fuzzer::Run and the executor inside it
//     are timed in place, the inputs and the hash of each edge trace are
//     recorded, and each epoch's ShardDelta is encoded as the engine
//     encodes it. Shards run one after another in this thread; with corpus
//     sync they swap their epoch's queue entries and virgin deltas
//     directly, a stand-in for the merge pipeline's feedback.
//  3. Rounds over the recorded inputs, each of three passes: the inputs
//     through Agent::ExecuteOne on a fresh agent, then through the stage
//     replay (replay.h) untraced and traced. They give the per-exec agent
//     cost, the per-stage costs, the share of replay time the stages
//     account for, and the tracing overhead.
//  4. The recorded frames decoded, folded by MergePipeline::RunMergeLoop
//     through an InProcTransport, and committed by CampaignJournal.
//
// Fidelity checks, each a failed operation on mismatch: every trace of the
// agent pass and of the stage replay equals the recorded one, and for a
// one-shard breadth-first workload the benchmark's shard loop reproduces
// the engine's covered set.
#include <algorithm>
#include <cstdint>
#include <exception>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "perfbench/src/common.h"
#include "perfbench/src/replay.h"
#include "src/core/agent.h"
#include "src/core/merge_pipeline.h"
#include "src/core/state/journal.h"
#include "src/core/transport/inproc.h"
#include "src/fuzz/fuzzer.h"
#include "src/hv/sim_kvm/kvm.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using neco::FuzzInput;

// Inputs recorded (and replayed) per shard; bounds the memory of the
// recording at 2 KiB per input.
constexpr size_t kMaxRecordedPerShard = 5000;
// Rounds of agent, untraced-replay and traced-replay passes.
constexpr int kMinReplayRounds = 3;
constexpr int kMaxReplayRounds = 6;
// MergePipeline folds of the recorded frames.
constexpr int kFoldReps = 3;

// The kvm sim with a boot counter: the agent boots through StartVm on
// every snapshot-cache miss, so this counts the boots an exec really pays.
// It only counts; the agent pass uses it for hv.boots_per_exec.
class CountingKvm : public neco::SimKvm {
 public:
  void StartVm(const neco::VcpuConfig& config) override {
    ++boots_;
    SimKvm::StartVm(config);
  }
  uint64_t boots() const { return boots_; }

 private:
  uint64_t boots_ = 0;
};

// Timestamps every merged epoch of an engine run.
class EpochClock : public neco::CampaignObserver {
 public:
  explicit EpochClock(Clock::time_point start) : last_(start) {}
  void OnSample(const neco::SampleEvent&) override {
    const Clock::time_point now = Clock::now();
    gaps_ms_.push_back(static_cast<double>(NanosBetween(last_, now)) / 1e6);
    last_ = now;
  }
  const std::vector<double>& gaps_ms() const { return gaps_ms_; }

 private:
  Clock::time_point last_;
  std::vector<double> gaps_ms_;
};

// What the bench-driven shard loop leaves behind.
struct Shard {
  std::unique_ptr<neco::Hypervisor> hv;
  std::unique_ptr<neco::Agent> agent;
  std::unique_ptr<neco::Fuzzer> fuzzer;
  std::vector<uint64_t> steps;
  std::vector<uint8_t> covered_seen;
  std::unordered_set<std::string> shipped_findings;
  std::unordered_set<uint32_t> seen_edges;
  std::vector<FuzzInput> inputs;
  std::vector<uint64_t> trace_hashes;
  uint64_t execs = 0;
  uint64_t novel_execs = 0;
  uint64_t exec_ns = 0;
};

struct ShardLoop {
  std::vector<std::unique_ptr<Shard>> shards;
  std::vector<std::vector<neco::wire::Buffer>> frames;  // [epoch][worker]
  uint64_t run_ns = 0;     // Inside Fuzzer::Run.
  uint64_t encode_ns = 0;  // Inside wire::Encode.
};

uint64_t ShardBudget(uint64_t iterations, int workers, int w) {
  const uint64_t n = static_cast<uint64_t>(workers);
  return iterations / n + (static_cast<uint64_t>(w) < iterations % n ? 1 : 0);
}

ShardLoop RunShardLoop(const Workload& workload,
                       const neco::CampaignOptions& options) {
  ShardLoop loop;
  const neco::HypervisorFactory factory = neco::ResolveHypervisorFactory("kvm");
  const int workers = workload.workers;
  const bool syncing =
      options.corpus_sync && workers > 1 && options.fuzzer.coverage_guidance;
  size_t epochs = 0;
  for (int w = 0; w < workers; ++w) {
    auto shard = std::make_unique<Shard>();
    Shard& s = *shard;
    s.hv = factory();
    neco::AgentOptions agent_options = options.agent;
    agent_options.arch = options.arch;
    s.agent = std::make_unique<neco::Agent>(*s.hv, agent_options);
    neco::FuzzerOptions fuzzer_options = options.fuzzer;
    fuzzer_options.seed = options.seed + static_cast<uint64_t>(w);
    s.fuzzer = std::make_unique<neco::Fuzzer>(
        fuzzer_options, [&s](const FuzzInput& input) {
          const Clock::time_point start = Clock::now();
          neco::ExecFeedback feedback = s.agent->ExecuteOne(input);
          s.exec_ns += NanosBetween(start, Clock::now());
          ++s.execs;
          bool novel = false;
          for (uint32_t edge : feedback.edges) {
            novel |= s.seen_edges.insert(edge).second;
          }
          s.novel_execs += novel ? 1 : 0;
          if (s.inputs.size() < kMaxRecordedPerShard) {
            s.inputs.push_back(input);
            s.trace_hashes.push_back(TraceHash(feedback.edges));
          }
          return feedback;
        });
    s.steps = neco::ChunkSchedule(ShardBudget(options.iterations, workers, w),
                                  options.samples);
    epochs = std::max(epochs, s.steps.size());
    loop.shards.push_back(std::move(shard));
  }

  // Corpus sync stand-in: the previous epoch's published entries and
  // virgin deltas, by origin worker.
  std::vector<std::pair<int, FuzzInput>> pool;
  std::vector<neco::BitmapDelta> virgins(static_cast<size_t>(workers));
  loop.frames.resize(epochs);
  for (size_t epoch = 0; epoch < epochs; ++epoch) {
    std::vector<std::pair<int, FuzzInput>> next_pool;
    std::vector<neco::BitmapDelta> next_virgins(static_cast<size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      Shard& s = *loop.shards[static_cast<size_t>(w)];
      uint64_t imported = 0;
      if (syncing && epoch > 0) {
        for (const auto& [origin, input] : pool) {
          if (origin != w && s.fuzzer->ImportCorpusEntry(input)) {
            ++imported;
          }
        }
        for (int other = 0; other < workers; ++other) {
          if (other != w) {
            s.fuzzer->ApplyVirginDelta(virgins[static_cast<size_t>(other)]);
          }
        }
        s.fuzzer->MarkQueueExported();
      }
      if (epoch < s.steps.size()) {
        const Clock::time_point start = Clock::now();
        s.fuzzer->Run(s.steps[epoch]);
        loop.run_ns += NanosBetween(start, Clock::now());
      }
      if (!syncing) {
        s.fuzzer->MarkQueueExported();
      }
      neco::FuzzerDelta fuzzer_delta = s.fuzzer->ExportDelta();
      neco::ShardDelta delta;
      delta.worker = w;
      delta.epoch = epoch;
      delta.iterations = fuzzer_delta.iterations;
      delta.imported = imported;
      delta.virgin = fuzzer_delta.virgin;
      for (auto& [id, input] : fuzzer_delta.crashes) {
        delta.crash_ids.push_back(std::move(id));
        delta.crash_inputs.push_back(std::move(input));
      }
      delta.covered_points = s.hv->nested_coverage(options.arch)
                                 .ExtractDeltaSince(s.covered_seen);
      for (const auto& [id, report] : s.agent->findings()) {
        if (s.shipped_findings.insert(id).second) {
          delta.findings.push_back(report);
        }
      }
      const Clock::time_point start = Clock::now();
      neco::wire::Buffer frame =
          neco::wire::Encode(delta, fuzzer_delta.queue_entries);
      loop.encode_ns += NanosBetween(start, Clock::now());
      loop.frames[epoch].push_back(std::move(frame));
      if (syncing) {
        for (const FuzzInput* input : fuzzer_delta.queue_entries) {
          next_pool.emplace_back(w, *input);
        }
        next_virgins[static_cast<size_t>(w)] = std::move(fuzzer_delta.virgin);
      }
    }
    pool = std::move(next_pool);
    virgins = std::move(next_virgins);
  }
  return loop;
}

// Wall time of one pass of Agent::ExecuteOne over every shard's
// recording, each shard on a fresh agent. Counts trace mismatches and boots.
uint64_t AgentPass(const ShardLoop& loop, const neco::CampaignOptions& options,
                   uint64_t* mismatches, uint64_t* boots) {
  uint64_t total_ns = 0;
  for (const auto& shard : loop.shards) {
    CountingKvm hv;
    neco::AgentOptions agent_options = options.agent;
    agent_options.arch = options.arch;
    neco::Agent agent(hv, agent_options);
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < shard->inputs.size(); ++i) {
      if (TraceHash(agent.ExecuteOne(shard->inputs[i]).edges) !=
          shard->trace_hashes[i]) {
        ++*mismatches;
      }
    }
    total_ns += NanosBetween(start, Clock::now());
    *boots += hv.boots();
  }
  return total_ns;
}

// Wall time of one stage-replay pass over every shard's recording, adding
// span times to `*spans` when traced. Counts trace mismatches.
template <bool kTraced>
uint64_t ReplayPass(const ShardLoop& loop, neco::Arch arch, StageNanos* spans,
                    uint64_t* mismatches, uint64_t* insns) {
  const neco::HypervisorFactory factory =
      neco::ResolveHypervisorFactory("kvm");
  uint64_t total_ns = 0;
  for (const auto& shard : loop.shards) {
    StageReplayer replayer(factory, arch);
    const Clock::time_point start = Clock::now();
    for (size_t i = 0; i < shard->inputs.size(); ++i) {
      if (replayer.Execute<kTraced>(shard->inputs[i], spans) !=
          shard->trace_hashes[i]) {
        ++*mismatches;
      }
    }
    total_ns += NanosBetween(start, Clock::now());
    *insns += replayer.program_insns();
  }
  return total_ns;
}

}  // namespace

Report RunTraced(const Workload& workload, uint64_t seed, double seconds,
                 const fs::path& work_dir) {
  Report report;
  const Clock::time_point run_start = Clock::now();
  const fs::path state_dir = work_dir / "traced-state";
  const neco::CampaignOptions options = MakeOptions(workload, seed, state_dir);

  // --- 1. The observed engine run.
  neco::EngineResult engine_result;
  std::vector<double> epoch_gaps_ms;
  ++report.attempted;
  try {
    neco::CampaignEngine engine("kvm", options);
    EpochClock clock(Clock::now());
    engine.AddObserver(&clock);
    engine_result = engine.Run();
    epoch_gaps_ms = clock.gaps_ms();
  } catch (const std::exception& e) {
    report.Fail(std::string("observed campaign threw: ") + e.what());
  }
  fs::remove_all(state_dir);
  const neco::TransportStats& transport = engine_result.transport;

  // --- 2. The bench-driven shard loop.
  const ShardLoop loop = RunShardLoop(workload, options);
  uint64_t execs = 0;
  uint64_t novel_execs = 0;
  uint64_t exec_ns = 0;
  uint64_t recorded = 0;
  for (const auto& shard : loop.shards) {
    execs += shard->execs;
    novel_execs += shard->novel_execs;
    exec_ns += shard->exec_ns;
    recorded += shard->inputs.size();
  }
  if (workload.workers == 1 && !workload.guided) {
    ++report.attempted;
    const std::vector<size_t> covered =
        loop.shards[0]->hv->nested_coverage(options.arch).CoveredSet();
    if (covered != engine_result.merged.covered_set) {
      report.Fail("bench shard loop did not reproduce the covered set");
    }
  }

  // --- 3. Rounds of an agent pass, an untraced and a traced replay pass
  // over the same recorded inputs, so that the three are timed side by side.
  StageNanos spans{};
  std::vector<double> agent_ns;
  std::vector<double> untraced_ns;
  std::vector<double> traced_ns;
  uint64_t mismatches = 0;
  uint64_t boots = 0;
  uint64_t insns = 0;
  const Clock::time_point replay_start = Clock::now();
  for (int round = 0; round < kMaxReplayRounds; ++round) {
    // Stop once another round would overrun the run's budget.
    if (round >= kMinReplayRounds &&
        SecondsSince(run_start) + SecondsSince(replay_start) / round >
            seconds) {
      break;
    }
    // The pass order rotates, so no pass always runs first or last.
    for (int pass = 0; pass < 3; ++pass) {
      switch ((pass + round) % 3) {
        case 0:
          agent_ns.push_back(static_cast<double>(
              AgentPass(loop, options, &mismatches, &boots)));
          break;
        case 1: {
          uint64_t unused_insns = 0;
          untraced_ns.push_back(static_cast<double>(ReplayPass<false>(
              loop, options.arch, nullptr, &mismatches, &unused_insns)));
          break;
        }
        default:
          traced_ns.push_back(static_cast<double>(ReplayPass<true>(
              loop, options.arch, &spans, &mismatches, &insns)));
      }
    }
  }
  const double replayed = static_cast<double>(recorded * traced_ns.size());
  report.attempted += recorded * 3 * traced_ns.size();
  if (mismatches != 0) {
    report.Fail(std::to_string(mismatches) +
                " replayed traces differ from the recorded ones");
    report.failed += mismatches - 1;
  }

  // --- 4. Wire decode, merge fold, journal commit over the frames.
  uint64_t frame_count = 0;
  uint64_t frame_bytes = 0;
  uint64_t decode_ns = 0;
  for (const auto& epoch_frames : loop.frames) {
    for (const neco::wire::Buffer& frame : epoch_frames) {
      neco::ShardDelta delta;
      const Clock::time_point start = Clock::now();
      const bool ok = neco::wire::Decode(frame, &delta);
      decode_ns += NanosBetween(start, Clock::now());
      ++frame_count;
      frame_bytes += frame.size();
      ++report.attempted;
      if (!ok) {
        report.Fail("recorded ShardDelta frame does not decode");
      }
    }
  }

  const size_t epochs = loop.frames.size();
  const size_t total_points =
      loop.shards[0]->hv->nested_coverage(options.arch).total_points();
  std::vector<double> fold_ns;
  for (int rep = 0; rep < kFoldReps; ++rep) {
    neco::InProcTransportOptions transport_options;
    transport_options.workers = workload.workers;
    transport_options.capacity = std::numeric_limits<size_t>::max();
    neco::InProcTransport inproc(transport_options);
    for (const auto& epoch_frames : loop.frames) {
      for (const neco::wire::Buffer& frame : epoch_frames) {
        inproc.Publish(frame);
      }
    }
    neco::MergePipelineOptions pipeline_options;
    pipeline_options.workers = workload.workers;
    pipeline_options.epochs = epochs;
    pipeline_options.total_points = total_points;
    neco::MergePipeline pipeline(pipeline_options, &inproc, {});
    ++report.attempted;
    try {
      const Clock::time_point start = Clock::now();
      pipeline.RunMergeLoop();
      fold_ns.push_back(static_cast<double>(NanosBetween(start, Clock::now())));
      if (pipeline.finalized_epochs() != epochs) {
        report.Fail("merge loop did not finalize every recorded epoch");
      }
    } catch (const std::exception& e) {
      report.Fail(std::string("merge loop threw: ") + e.what());
    }
  }

  const fs::path journal_dir = work_dir / "journal";
  std::vector<double> commit_ms;
  ++report.attempted;
  try {
    neco::CampaignManifestRecord manifest;
    manifest.epochs = epochs;
    manifest.workers = workload.workers;
    manifest.samples = options.samples;
    manifest.arch = static_cast<uint8_t>(options.arch);
    manifest.iterations = options.iterations;
    manifest.seed = options.seed;
    manifest.coverage_guidance = workload.guided ? 1 : 0;
    manifest.target = "kvm";
    neco::CampaignJournal journal(journal_dir, manifest);
    for (size_t epoch = 0; epoch < epochs; ++epoch) {
      neco::EpochCommitRecord summary;
      summary.epoch = epoch;
      const Clock::time_point start = Clock::now();
      journal.CommitEpoch(epoch, loop.frames[epoch], summary);
      commit_ms.push_back(
          static_cast<double>(NanosBetween(start, Clock::now())) / 1e6);
    }
  } catch (const std::exception& e) {
    report.Fail(std::string("journal commit threw: ") + e.what());
  }
  fs::remove_all(journal_dir);

  // --- Per-layer metrics.
  auto per_exec_us = [&](Stage stage) {
    return replayed == 0 ? 0.0
                         : static_cast<double>(spans[stage]) / replayed / 1e3;
  };
  const double d_execs = static_cast<double>(std::max<uint64_t>(execs, 1));
  const double d_recorded =
      static_cast<double>(std::max<uint64_t>(recorded, 1));
  const double boots_per_exec =
      replayed == 0 ? 0.0 : static_cast<double>(boots) / replayed;
  const double agent_exec_us = Median(agent_ns) / d_recorded / 1e3;
  // The agent does what the untraced replay does, except that it boots
  // only on a snapshot-cache miss; what is left is the glue around the
  // stages (caches, findings map, crash store).
  const double glue_us = agent_exec_us -
                         Median(untraced_ns) / d_recorded / 1e3 +
                         (1.0 - boots_per_exec) * per_exec_us(kBoot);
  uint64_t span_total = 0;
  for (uint64_t ns : spans) {
    span_total += ns;
  }
  double traced_total = 0.0;
  for (double ns : traced_ns) {
    traced_total += ns;
  }
  const double d_frames =
      static_cast<double>(std::max<uint64_t>(frame_count, 1));

  report.Set("validator.generate_us", per_exec_us(kValidator), "us");
  report.Set("harness.build_us", per_exec_us(kHarness), "us");
  report.Set("harness.insns_per_exec",
             replayed == 0 ? 0.0 : static_cast<double>(insns) / replayed,
             "count");
  report.Set("hv.init_us", per_exec_us(kInit), "us");
  report.Set("hv.runtime_us", per_exec_us(kRuntime), "us");
  report.Set("agent.plant_us", per_exec_us(kPlant), "us");
  report.Set("config.generate_us", per_exec_us(kConfig), "us");
  report.Set("hv.boot_us", per_exec_us(kBoot), "us");
  report.Set("hv.boots_per_exec", boots_per_exec, "count");
  report.Set("agent.exec_us", agent_exec_us, "us");
  report.Set("agent.glue_us", glue_us, "us");
  report.Set("fuzz.self_us",
             (static_cast<double>(loop.run_ns) - static_cast<double>(exec_ns)) /
                 d_execs / 1e3,
             "us");
  report.Set("fuzz.novel_per_kexec",
             1000.0 * static_cast<double>(novel_execs) / d_execs, "count");
  report.Set("wire.encode_us",
             static_cast<double>(loop.encode_ns) / d_frames / 1e3, "us");
  report.Set("wire.decode_us", static_cast<double>(decode_ns) / d_frames / 1e3,
             "us");
  report.Set("wire.frame_bytes", static_cast<double>(frame_bytes) / d_frames,
             "B");
  report.Set("merge.fold_us",
             Median(fold_ns) /
                 static_cast<double>(std::max<size_t>(epochs, 1)) / 1e3,
             "us");
  report.Set("merge.epoch_ms_p50", Percentile(epoch_gaps_ms, 50), "ms");
  report.Set("merge.epoch_ms_p99", Percentile(epoch_gaps_ms, 99), "ms");
  report.Set("transport.wire_kib",
             static_cast<double>(transport.delta_bytes +
                                 transport.feedback_bytes) /
                 1024.0,
             "KiB");
  report.Set("journal.commit_ms", Median(commit_ms), "ms");
  report.Set("trace.attributed_frac",
             traced_total == 0 ? 0.0
                               : static_cast<double>(span_total) / traced_total,
             "ratio");
  report.Set("trace.overhead_frac",
             Median(traced_ns) / Median(untraced_ns) - 1.0, "ratio");
  std::cerr << "perfbench: " << workload.name << " seed " << seed
            << " traced: " << execs << " execs, " << recorded
            << " replayed x" << traced_ns.size() << ", " << mismatches
            << " mismatches, " << epochs << " epochs\n";
  return report;
}

}  // namespace perfbench
