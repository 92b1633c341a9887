// Tests for the CampaignEngine session API and its delta-based merge
// pipeline: registry round-trip (register/list/construct), loud failure
// on unknown targets, observer event-stream determinism, barrier-era
// golden event ordering (in thread AND process AND socket shard mode),
// process/socket-shard equivalence (shard_mode=processes and
// shard_mode=sockets both reproduce the thread-mode EngineResult —
// including the shipped-home crash reproduction inputs — and event
// sequence exactly, over the same frames, start frames included),
// dead-shard error reporting (kill -9 over a socketpair and an abruptly
// cut socket alike), a shard child that cannot dial or cannot build its
// shard saying why, a failing thread shard releasing its siblings, and
// the observer exception guard.
//
// This suite defines its own main() (calling MaybeRunShardChild before
// gtest) so exec-mode campaigns can re-exec this binary as real shard
// children — the same invocation a RemoteLauncher would issue on another
// machine.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdarg>
#include <cstdio>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "src/core/engine.h"
#include "src/core/wire.h"
#include "src/hv/factory.h"
#include "src/hv/sim_kvm/kvm.h"
#include "tests/event_recorder.h"

namespace neco {
namespace {

CampaignOptions SmallOptions(Arch arch, uint64_t iterations, int workers) {
  CampaignOptions options;
  options.arch = arch;
  options.iterations = iterations;
  options.samples = 4;
  options.seed = 7;
  options.workers = workers;
  return options;
}

TEST(HypervisorRegistryTest, BuiltinsAreListed) {
  const std::vector<std::string> names = ListHypervisors();
  auto has = [&](const char* name) {
    for (const std::string& n : names) {
      if (n == name) return true;
    }
    return false;
  };
  EXPECT_TRUE(has("kvm"));
  EXPECT_TRUE(has("xen"));
  EXPECT_TRUE(has("virtualbox"));
  // Sorted, hence deterministic output for registry-driven tooling.
  for (size_t i = 1; i < names.size(); ++i) {
    EXPECT_LT(names[i - 1], names[i]);
  }
}

TEST(HypervisorRegistryTest, RegisterListConstructRoundTrip) {
  // An out-of-tree target plugs in with one call; the engine can then
  // build sessions from the name alone.
  EXPECT_TRUE(RegisterHypervisor("engine-test-kvm",
                                 [] { return std::make_unique<SimKvm>(); }));
  // Names are first-come-first-served.
  EXPECT_FALSE(RegisterHypervisor("engine-test-kvm",
                                  [] { return std::make_unique<SimKvm>(); }));
  EXPECT_FALSE(RegisterHypervisor("", [] { return std::make_unique<SimKvm>(); }));
  EXPECT_FALSE(RegisterHypervisor("engine-test-null", HypervisorFactory{}));

  const std::vector<std::string> names = ListHypervisors();
  EXPECT_NE(std::find(names.begin(), names.end(), "engine-test-kvm"),
            names.end());

  const HypervisorFactory factory = FindHypervisorFactory("engine-test-kvm");
  ASSERT_TRUE(factory);
  ASSERT_NE(factory(), nullptr);

  const EngineResult result =
      CampaignEngine("engine-test-kvm", SmallOptions(Arch::kIntel, 200, 1))
          .Run();
  EXPECT_GT(result.merged.final_percent, 0.0);
}

TEST(HypervisorRegistryTest, UnknownTargetFailsLoudly) {
  EXPECT_FALSE(FindHypervisorFactory("hyper-v"));
  try {
    CampaignEngine engine("hyper-v");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("hyper-v"), std::string::npos) << message;
    EXPECT_NE(message.find("kvm"), std::string::npos) << message;
    EXPECT_NE(message.find("xen"), std::string::npos) << message;
  }
}

TEST(CampaignEngineTest, BorrowedTargetAlwaysRunsOneInlineShard) {
  // A borrowed instance cannot shard; options.workers is ignored (the
  // historical serial-campaign contract).
  CampaignOptions options = SmallOptions(Arch::kIntel, 400, 4);
  SimKvm kvm;
  const EngineResult borrowed = CampaignEngine(kvm, options).Run();
  EXPECT_EQ(borrowed.per_worker.size(), 1u);

  options.workers = 1;
  EXPECT_EQ(borrowed, CampaignEngine("kvm", options).Run());
}

TEST(CampaignObserverTest, EventStreamIsDeterministicAcrossRuns) {
  // Guided mode with several shards exercises every event type: samples,
  // findings (AMD anomalies appear quickly), corpus syncs, shard
  // completions, finish.
  CampaignOptions options = SmallOptions(Arch::kAmd, 1200, 3);
  options.fuzzer.coverage_guidance = true;

  EventRecorder a;
  CampaignEngine("kvm", options).AddObserver(&a).Run();
  EventRecorder b;
  CampaignEngine("kvm", options).AddObserver(&b).Run();

  ASSERT_FALSE(a.events.empty());
  EXPECT_EQ(a.events, b.events);
  EXPECT_GT(a.Count<SampleEvent>(), 0u);
  EXPECT_GT(a.Count<FindingEvent>(), 0u);
  EXPECT_GT(a.Count<CorpusSyncEvent>(), 0u);
  EXPECT_EQ(a.Count<ShardDoneEvent>(), 3u);
  EXPECT_EQ(a.Count<FinishEvent>(), 1u);
  EXPECT_TRUE(std::holds_alternative<FinishEvent>(a.events.back()));
}

TEST(CampaignObserverTest, SampleEventsMirrorTheMergedSeries) {
  const CampaignOptions options = SmallOptions(Arch::kIntel, 600, 2);

  class SeriesObserver : public CampaignObserver {
   public:
    void OnSample(const SampleEvent& event) override {
      samples.push_back(event);
    }
    void OnFinish(const FinishEvent& event) override { finish = event; }
    std::vector<SampleEvent> samples;
    FinishEvent finish;
  } observer;

  CampaignEngine engine("kvm", options);
  engine.AddObserver(&observer);
  const EngineResult result = engine.Run();

  ASSERT_EQ(observer.samples.size(), result.merged.series.size());
  for (size_t i = 0; i < observer.samples.size(); ++i) {
    EXPECT_EQ(observer.samples[i].epoch, i);
    EXPECT_EQ(observer.samples[i].iteration,
              result.merged.series[i].iteration);
    EXPECT_DOUBLE_EQ(observer.samples[i].percent,
                     result.merged.series[i].percent);
  }
  EXPECT_EQ(observer.finish, (FinishEvent{2, observer.samples.size(),
                                          result.merged,
                                          result.corpus_imports}));
}

// --- Delta pipeline vs the barrier era -----------------------------------

// Integer-field event formatter: no doubles, so the log is stable across
// platforms and safe to pin as a golden.
class GoldenObserver : public CampaignObserver {
 public:
  void OnSample(const SampleEvent& e) override {
    Line("sample epoch=%zu iter=%llu covered=%zu", e.epoch,
         (unsigned long long)e.iteration, e.covered_points);
  }
  void OnFinding(const FindingEvent& e) override {
    std::ostringstream s;
    s << "finding epoch=" << e.epoch << " worker=" << e.worker
      << " id=" << e.report.bug_id;
    log.push_back(s.str());
  }
  void OnCorpusSync(const CorpusSyncEvent& e) override {
    Line("sync epoch=%zu worker=%d published=%llu imported=%llu", e.epoch,
         e.worker, (unsigned long long)e.published,
         (unsigned long long)e.imported);
  }
  void OnShardDone(const ShardDoneEvent& e) override {
    const CampaignResult& r = e.result;
    Line("shard worker=%d iters=%llu covered=%zu queue=%llu findings=%zu "
         "imports=%llu",
         e.worker, (unsigned long long)r.fuzzer_stats.iterations,
         r.covered_points, (unsigned long long)r.fuzzer_stats.queue_size,
         r.findings.size(), (unsigned long long)e.corpus_imports);
  }
  void OnFinish(const FinishEvent& e) override {
    const CampaignResult& r = e.result;
    Line("finish workers=%d epochs=%zu iters=%llu covered=%zu total=%zu "
         "findings=%zu imports=%llu",
         e.workers, e.epochs, (unsigned long long)r.fuzzer_stats.iterations,
         r.covered_points, r.total_points, r.findings.size(),
         (unsigned long long)e.corpus_imports);
  }

  std::vector<std::string> log;

 private:
  void Line(const char* fmt, ...) {
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof(buf), fmt, ap);
    va_end(ap);
    log.push_back(buf);
  }
};

// This exact event sequence was captured from the PR 2 engine — the
// stop-the-world barrier implementation — for (kvm, AMD, 900 iterations,
// 3 samples, seed 7, 3 workers, guided). The delta pipeline must
// reproduce it verbatim whichever transport carries the deltas: same
// epochs, same worker order within an epoch, same sync/finding
// interleaving, same merged counters.
std::vector<std::string> BarrierEraGolden() {
  return {
      "sync epoch=0 worker=0 published=23 imported=0",
      "sync epoch=0 worker=1 published=30 imported=0",
      "finding epoch=0 worker=1 id=kvm-nsvm-dummy-root",
      "sync epoch=0 worker=2 published=28 imported=0",
      "sample epoch=0 iter=300 covered=94",
      "sync epoch=1 worker=0 published=1 imported=58",
      "sync epoch=1 worker=1 published=1 imported=51",
      "sync epoch=1 worker=2 published=0 imported=53",
      "sample epoch=1 iter=600 covered=95",
      "sync epoch=2 worker=0 published=0 imported=1",
      "sync epoch=2 worker=1 published=0 imported=1",
      "sync epoch=2 worker=2 published=0 imported=2",
      "sample epoch=2 iter=900 covered=95",
      "shard worker=0 iters=300 covered=94 queue=83 findings=1 imports=59",
      "shard worker=1 iters=300 covered=95 queue=83 findings=1 imports=52",
      "shard worker=2 iters=300 covered=95 queue=83 findings=1 imports=55",
      "finish workers=3 epochs=3 iters=900 covered=95 total=118 findings=1 "
      "imports=166",
  };
}

CampaignOptions GoldenOptions() {
  CampaignOptions options;
  options.arch = Arch::kAmd;
  options.iterations = 900;
  options.samples = 3;
  options.seed = 7;
  options.workers = 3;
  options.fuzzer.coverage_guidance = true;
  return options;
}

TEST(MergePipelineGoldenTest, BarrierEraOrderingReproducedAtMergeBatch1) {
  GoldenObserver observer;
  CampaignEngine("kvm", GoldenOptions()).AddObserver(&observer).Run();
  EXPECT_EQ(observer.log, BarrierEraGolden());
}

TEST(ProcessShardGoldenTest, ProcessShardsReproduceTheBarrierEraGolden) {
  // The same golden, with every shard a fork'd child process and the
  // deltas travelling pipes instead of the in-proc queue. Identical
  // event sequence = the transport changed nothing observable.
  CampaignOptions options = GoldenOptions();
  options.shard_mode = ShardMode::kProcesses;
  GoldenObserver observer;
  CampaignEngine("kvm", options).AddObserver(&observer).Run();
  EXPECT_EQ(observer.log, BarrierEraGolden());
}

TEST(SocketShardGoldenTest, SocketShardsReproduceTheBarrierEraGolden) {
  // The same golden once more, with every shard dialing a loopback TCP
  // socket and the deltas travelling the connection. Identical event
  // sequence = the socket transport changed nothing observable either.
  CampaignOptions options = GoldenOptions();
  options.shard_mode = ShardMode::kSockets;
  GoldenObserver observer;
  CampaignEngine("kvm", options).AddObserver(&observer).Run();
  EXPECT_EQ(observer.log, BarrierEraGolden());
}

TEST(MergePipelineStatsTest, PipelineAndTransportCountersAreReported) {
  CampaignOptions options = SmallOptions(Arch::kIntel, 600, 2);
  const EngineResult result = CampaignEngine("kvm", options).Run();

  // One delta per worker per epoch, empty trailing epochs included.
  const size_t epochs = result.merged.series.size();
  EXPECT_EQ(result.transport.deltas, 2u * epochs);
  EXPECT_GT(result.transport.delta_bytes, 0u);
  EXPECT_GT(result.pipeline.flushes, 0u);
  EXPECT_LE(result.pipeline.flushes, result.transport.deltas);
  EXPECT_GE(result.transport.max_queue_depth, 1u);
  EXPECT_GE(result.transport.avg_queue_depth, 0.0);
  // Breadth-first mode has no corpus to exchange, so shards are fully
  // decoupled: the only frame sent toward a shard is its config, queued
  // before the shard starts, so none is waited for.
  EXPECT_EQ(result.transport.feedback_records, 2u);
  EXPECT_EQ(result.transport.feedback_wait_seconds, 0.0);
}

// --- Process shards vs thread shards -------------------------------------
//
// EngineResults compare on their outcome, crash reproduction inputs
// included: what ships home over any transport must be byte-identical to
// what a thread shard keeps in memory.

TEST(ProcessShardTest, FourProcessShardsReproduceFourThreadShardsExactly) {
  // The acceptance bar for the transport layer: shard_mode=processes at
  // N=4 (guided, corpus-syncing — every record type in play) produces a
  // bit-identical EngineResult and merge-ordered observer event sequence
  // to workers=4 threads.
  CampaignOptions options = SmallOptions(Arch::kAmd, 1600, 4);
  options.fuzzer.coverage_guidance = true;

  EventRecorder threads;
  const EngineResult thread_result =
      CampaignEngine("kvm", options).AddObserver(&threads).Run();

  options.shard_mode = ShardMode::kProcesses;
  EventRecorder processes;
  const EngineResult process_result =
      CampaignEngine("kvm", options).AddObserver(&processes).Run();

  ASSERT_FALSE(threads.events.empty());
  EXPECT_EQ(threads.events, processes.events);
  EXPECT_EQ(thread_result, process_result);
  // The deltas genuinely travelled pipes, and feedback flowed back.
  EXPECT_GT(process_result.transport.delta_bytes, 0u);
  EXPECT_GT(process_result.transport.feedback_records, 0u);
  // Thread shards exchange the very same frames over their in-proc queues,
  // start frames included, so the counts match exactly.
  EXPECT_EQ(thread_result.transport.delta_bytes,
            process_result.transport.delta_bytes);
  EXPECT_EQ(thread_result.transport.feedback_records,
            process_result.transport.feedback_records);
  EXPECT_EQ(thread_result.transport.feedback_bytes,
            process_result.transport.feedback_bytes);
}

TEST(ProcessShardTest, BreadthFirstProcessShardsMatchThreadShards) {
  // The paper's default mode: no corpus, shards fully decoupled, no
  // feedback frames beyond one config frame per shard — results must
  // still be identical.
  CampaignOptions options = SmallOptions(Arch::kIntel, 600, 2);

  EventRecorder threads;
  const EngineResult thread_result =
      CampaignEngine("kvm", options).AddObserver(&threads).Run();

  options.shard_mode = ShardMode::kProcesses;
  EventRecorder processes;
  const EngineResult process_result =
      CampaignEngine("kvm", options).AddObserver(&processes).Run();

  EXPECT_EQ(threads.events, processes.events);
  EXPECT_EQ(thread_result, process_result);
  EXPECT_EQ(process_result.transport.feedback_records, 2u);
}

TEST(ProcessShardTest, KilledChildShardIsARecordedErrorNotAHang) {
  // kill -9 one child mid-campaign: the drainer must fail fast with a
  // shard error naming the dead worker — never hang waiting for an epoch
  // that cannot complete — and the surviving children must be torn down.
  CampaignOptions options = SmallOptions(Arch::kAmd, 1200, 3);
  options.fuzzer.coverage_guidance = true;
  options.shard_mode = ShardMode::kProcesses;
  options.shard_fault_for_test = [](int worker, size_t epoch) {
    if (worker == 1 && epoch == 1) {
      ::raise(SIGKILL);
    }
  };

  try {
    CampaignEngine("kvm", options).Run();
    FAIL() << "expected a shard error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("shard 1"), std::string::npos) << message;
    EXPECT_NE(message.find("signal 9"), std::string::npos) << message;
  }
}

// --- Socket shards vs thread shards --------------------------------------

TEST(SocketShardTest, FourSocketShardsReproduceFourThreadShardsExactly) {
  // The acceptance bar for the socket transport: shard_mode=sockets at
  // N=4 over loopback (guided, corpus-syncing — every record type in
  // play, hello handshake included) produces a bit-identical
  // EngineResult and merge-ordered observer event sequence to workers=4
  // threads.
  CampaignOptions options = SmallOptions(Arch::kAmd, 1600, 4);
  options.fuzzer.coverage_guidance = true;

  EventRecorder threads;
  const EngineResult thread_result =
      CampaignEngine("kvm", options).AddObserver(&threads).Run();

  options.shard_mode = ShardMode::kSockets;
  EventRecorder sockets;
  const EngineResult socket_result =
      CampaignEngine("kvm", options).AddObserver(&sockets).Run();

  ASSERT_FALSE(threads.events.empty());
  EXPECT_EQ(threads.events, sockets.events);
  EXPECT_EQ(thread_result, socket_result);
  // The deltas genuinely travelled TCP, and feedback flowed back.
  EXPECT_GT(socket_result.transport.delta_bytes, 0u);
  EXPECT_GT(socket_result.transport.feedback_records, 0u);
  // Crash reproduction inputs came home over the wire: this workload
  // finds anomalies, so at least one worker shipped a non-empty input.
  size_t shipped = 0;
  for (const auto& worker_crashes : socket_result.crashes) {
    for (const auto& [id, input] : worker_crashes) {
      EXPECT_FALSE(id.empty());
      EXPECT_FALSE(input.empty());
      ++shipped;
    }
  }
  EXPECT_GT(shipped, 0u);
}

TEST(SocketShardTest, ExecSocketShardsMatchThreadShards) {
  // The remote-launcher shape end to end on one machine: children are
  // fresh exec'd processes of this binary that know nothing, dial the
  // loopback listener, and rebuild everything from their config frame.
  CampaignOptions options = SmallOptions(Arch::kIntel, 600, 2);

  EventRecorder threads;
  const EngineResult thread_result =
      CampaignEngine("kvm", options).AddObserver(&threads).Run();

  options.shard_mode = ShardMode::kSockets;
  options.shard_exec_path = "/proc/self/exe";
  EventRecorder sockets;
  const EngineResult socket_result =
      CampaignEngine("kvm", options).AddObserver(&sockets).Run();

  EXPECT_EQ(threads.events, sockets.events);
  EXPECT_EQ(thread_result, socket_result);
}

TEST(ExecShardTest, ExecShardsBuiltFromANonDefaultSpecMatchThreadShards) {
  // An exec'd child knows only the config record it decodes, so every
  // spec field must reach it: fuzzer and agent options away from their
  // defaults must give the same campaign in every launch shape. Every
  // shard starts the same way — its config frame through the transport —
  // so the transport counters agree as well.
  CampaignOptions options = SmallOptions(Arch::kAmd, 900, 3);
  options.samples = 5;
  options.seed = 11;
  options.fuzzer.coverage_guidance = true;
  options.fuzzer.havoc_stack = 4;
  options.fuzzer.splice_percent = 60;
  options.agent.use_harness = false;
  options.agent.use_configurator = false;
  options.agent.oracle_interval = 7;

  EventRecorder threads;
  const EngineResult thread_result =
      CampaignEngine("kvm", options).AddObserver(&threads).Run();
  ASSERT_FALSE(threads.events.empty());

  struct Shape {
    const char* name;
    ShardMode mode;
    const char* exec_path;
  };
  const Shape shapes[] = {
      {"fork'd process shards", ShardMode::kProcesses, ""},
      {"exec'd process shards", ShardMode::kProcesses, "/proc/self/exe"},
      {"fork'd socket shards", ShardMode::kSockets, ""},
      {"exec'd socket shards", ShardMode::kSockets, "/proc/self/exe"},
  };
  for (const Shape& shape : shapes) {
    SCOPED_TRACE(shape.name);
    options.shard_mode = shape.mode;
    options.shard_exec_path = shape.exec_path;
    EventRecorder shards;
    const EngineResult result =
        CampaignEngine("kvm", options).AddObserver(&shards).Run();
    EXPECT_EQ(threads.events, shards.events);
    EXPECT_EQ(thread_result, result);
    EXPECT_EQ(thread_result.transport.delta_bytes,
              result.transport.delta_bytes);
    EXPECT_EQ(thread_result.transport.feedback_records,
              result.transport.feedback_records);
    EXPECT_EQ(thread_result.transport.feedback_bytes,
              result.transport.feedback_bytes);
  }
}

TEST(SocketShardTest, KilledSocketShardIsARecordedErrorNotAHang) {
  // kill -9 one socket child mid-campaign: the connection is cut without
  // a clean EOF; the drainer must fail fast with a shard error naming the
  // dead worker and its fate — never hang waiting for the missing epoch.
  CampaignOptions options = SmallOptions(Arch::kAmd, 1200, 3);
  options.fuzzer.coverage_guidance = true;
  options.shard_mode = ShardMode::kSockets;
  options.shard_fault_for_test = [](int worker, size_t epoch) {
    if (worker == 1 && epoch == 1) {
      ::raise(SIGKILL);
    }
  };

  try {
    CampaignEngine("kvm", options).Run();
    FAIL() << "expected a shard error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("shard 1"), std::string::npos) << message;
    EXPECT_NE(message.find("signal 9"), std::string::npos) << message;
  }
}

TEST(SocketShardTest, RemoteLauncherFailureFailsTheCampaignImmediately) {
  // A launcher that cannot start its shard must fail the campaign right
  // away — not leave the listener waiting out the accept timeout.
  CampaignOptions options = SmallOptions(Arch::kIntel, 200, 2);
  options.shard_mode = ShardMode::kSockets;
  std::vector<ShardLaunch> launches;
  options.remote_launcher = [&](const ShardLaunch& launch) {
    launches.push_back(launch);
    return false;  // Nothing ever dials.
  };
  try {
    CampaignEngine("kvm", options).Run();
    FAIL() << "expected a launcher error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("launcher"), std::string::npos)
        << e.what();
  }
  // The launcher saw a fully resolved dial target for the first shard.
  ASSERT_EQ(launches.size(), 1u);
  EXPECT_EQ(launches[0].worker, 0);
  EXPECT_EQ(launches[0].address, "127.0.0.1");
  EXPECT_GT(launches[0].port, 0);
  EXPECT_EQ(launches[0].target, "kvm");
}

TEST(SocketShardTest, RemoteLauncherRequiresARegistryName) {
  // Remote children rebuild the target from the registry; a bare-factory
  // session cannot cross machines and must fail loudly.
  CampaignOptions options = SmallOptions(Arch::kIntel, 100, 2);
  options.shard_mode = ShardMode::kSockets;
  options.remote_launcher = [](const ShardLaunch&) { return true; };
  CampaignEngine engine(
      HypervisorFactory([] { return std::make_unique<SimKvm>(); }), options);
  EXPECT_THROW(engine.Run(), std::invalid_argument);
}

TEST(ProcessShardTest, ExecModeRequiresARegistryName) {
  // An exec'd child rebuilds its target from the registry; a session
  // built from a bare factory cannot cross exec and must fail loudly.
  CampaignOptions options = SmallOptions(Arch::kIntel, 100, 2);
  options.shard_mode = ShardMode::kProcesses;
  options.shard_exec_path = "/proc/self/exe";
  CampaignEngine engine(
      HypervisorFactory([] { return std::make_unique<SimKvm>(); }), options);
  EXPECT_THROW(engine.Run(), std::invalid_argument);
}

TEST(ShardChildTest, AChildThatCannotDialSaysWhy) {
  // A loopback port nobody listens on: bind an ephemeral one, then close
  // it. The exec'd child must fail its dial, say so on stderr naming its
  // worker, and exit 2 — a remote launch that cannot reach the parent
  // must not surface only as a timeout on the parent's side.
  const int probe = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  ASSERT_GE(probe, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ASSERT_EQ(::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  socklen_t addr_len = sizeof(addr);
  ASSERT_EQ(
      ::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &addr_len), 0);
  ::close(probe);
  const std::string connect =
      "--necofuzz-connect=127.0.0.1:" + std::to_string(ntohs(addr.sin_port));

  int err[2];
  ASSERT_EQ(::pipe2(err, O_CLOEXEC), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(err[1], STDERR_FILENO);
    ::execl("/proc/self/exe", "/proc/self/exe", "--necofuzz-shard-child",
            connect.c_str(), "--necofuzz-worker=3", nullptr);
    ::_exit(127);
  }
  ::close(err[1]);
  std::string output;
  char buffer[256];
  ssize_t n;
  while ((n = ::read(err[0], buffer, sizeof(buffer))) > 0) {
    output.append(buffer, static_cast<size_t>(n));
  }
  ::close(err[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 2);
  EXPECT_NE(output.find("connect failed"), std::string::npos) << output;
  EXPECT_NE(output.find("shard 3"), std::string::npos) << output;
}

TEST(ShardChildTest, AChildThatFailsSaysWhy) {
  // An exec'd process child handed a config whose target its binary does
  // not know: building the shard throws, and the child must say why on
  // stderr, naming its worker and the target, and exit 1 — otherwise the
  // parent sees only a stream that closed mid-campaign.
  int ends[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0, ends), 0);
  int err[2];
  ASSERT_EQ(::pipe2(err, O_CLOEXEC), 0);
  const std::string fd_arg = "--necofuzz-fd=" + std::to_string(ends[1]);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(err[1], STDERR_FILENO);
    ::fcntl(ends[1], F_SETFD, 0);  // The stream end survives the exec.
    ::execl("/proc/self/exe", "/proc/self/exe", "--necofuzz-shard-child",
            fd_arg.c_str(), "--necofuzz-worker=1", nullptr);
    ::_exit(127);
  }
  ::close(ends[1]);
  ::close(err[1]);

  ShardChildConfigRecord config;
  config.workers = 2;
  config.worker = 1;
  config.target = "no-such-target";
  const wire::Buffer frame = wire::Encode(config);
  // MSG_NOSIGNAL: a child that died early must fail the send, not the
  // test binary.
  EXPECT_EQ(::send(ends[0], frame.data(), frame.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(frame.size()));
  std::string output;
  char buffer[256];
  ssize_t n;
  while ((n = ::read(err[0], buffer, sizeof(buffer))) > 0) {
    output.append(buffer, static_cast<size_t>(n));
  }
  ::close(err[0]);
  ::close(ends[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 1);
  EXPECT_NE(output.find("shard 1"), std::string::npos) << output;
  EXPECT_NE(output.find("no-such-target"), std::string::npos) << output;
}

// --- Failing thread shards -----------------------------------------------

// A SimKvm whose StartVm throws once the campaign-wide boot count reaches
// kFailingBoot: exactly one call, in whichever instance gets there first
// (not chosen by construction order, which the engine does not promise).
class FailingKvm : public SimKvm {
 public:
  static constexpr int kFailingBoot = 150;

  explicit FailingKvm(std::atomic<int>* boots) : boots_(boots) {}

  void StartVm(const VcpuConfig& config) override {
    if (boots_->fetch_add(1) == kFailingBoot) {
      throw std::runtime_error("StartVm failed on purpose");
    }
    SimKvm::StartVm(config);
  }

 private:
  std::atomic<int>* boots_;
};

TEST(CampaignEngineTest, FailingThreadShardReleasesItsSiblings) {
  // Guided with two workers, so when one shard throws mid-campaign its
  // sibling is blocked on feedback or on the queue. Run() must unblock it,
  // join every thread, and rethrow the shard's exception.
  CampaignOptions options = SmallOptions(Arch::kIntel, 600, 2);
  options.fuzzer.coverage_guidance = true;
  std::atomic<int> boots{0};
  CampaignEngine engine(HypervisorFactory([&boots] {
                          return std::make_unique<FailingKvm>(&boots);
                        }),
                        options);
  try {
    engine.Run();
    FAIL() << "expected the shard's exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "StartVm failed on purpose");
  }
  EXPECT_GT(boots.load(), FailingKvm::kFailingBoot);
}

// --- Observer exception guard --------------------------------------------

TEST(CampaignObserverTest, ThrowingObserverIsRecordedAndRethrownAfterJoin) {
  // A throwing callback used to terminate the process via the std::thread
  // entry (documented hazard of the barrier engine). Now every dispatch
  // is guarded: the campaign runs to completion, later observers still
  // receive the full stream, and Run() rethrows the first exception after
  // all shards joined.
  CampaignOptions options = SmallOptions(Arch::kAmd, 1200, 3);
  options.fuzzer.coverage_guidance = true;

  EventRecorder reference;
  CampaignEngine("kvm", options).AddObserver(&reference).Run();
  ASSERT_FALSE(reference.events.empty());

  class ThrowingObserver : public CampaignObserver {
   public:
    void OnSample(const SampleEvent&) override {
      ++throws;
      throw std::runtime_error("observer failed on purpose");
    }
    int throws = 0;
  } thrower;

  EventRecorder bystander;
  CampaignEngine engine("kvm", options);
  engine.AddObserver(&thrower).AddObserver(&bystander);
  try {
    engine.Run();
    FAIL() << "expected the observer exception to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "observer failed on purpose");
  }
  // The campaign was not cut short: every sample fired (and threw), and
  // the well-behaved observer saw the same stream as a clean run.
  EXPECT_GT(thrower.throws, 1);
  EXPECT_EQ(bystander.events, reference.events);
}

}  // namespace
}  // namespace neco

int main(int argc, char** argv) {
  // Exec-mode campaigns in this suite re-exec this binary as shard
  // children (stream-fd and socket-dial flavors alike); the hidden
  // entrypoint must run before gtest does.
  if (const int code = neco::MaybeRunShardChild(argc, argv); code >= 0) {
    return code;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
