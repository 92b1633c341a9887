// Parallel campaign scaling: iterations/sec and merged coverage for the
// sharded engine at 1/2/4/8 workers against SimKvm, at a fixed total
// iteration budget (pFSCK-style worker scaling of the checking loop).
//
// `--transport={inproc,process,socket}` picks the shard transport: thread
// shards over the in-proc queue (default), fork/exec'd process shards
// over one socketpair each, or exec'd shard children dialing a loopback
// TCP listener — this binary registers the hidden --necofuzz-shard-child
// entrypoint, so process and socket modes spawn real exec'd children of
// this executable (socket children bootstrap purely from a hello and
// their start frames, the exact shape a remote launcher runs on another
// machine). Results are
// identical across transports by construction; the per-transport columns
// (wire bytes moved, queue depth, wait time) show what the medium costs.
//
// Two sections:
//  * NecoFuzz's default breadth-first mode (no corpus, so no cross-shard
//    syncing and no frames toward a shard beyond its config — shards
//    only meet in the pipeline),
//  * guided mode where shards exchange queue entries at every sample
//    boundary (the "imports" column).
// The idle_s column is worker idle time: publish backpressure plus
// feedback waits (thread shards only; a child process waits in its own
// process).
//
// `--smoke` shrinks the budget and sweep so CI can exercise the pipeline
// path under optimization in seconds. `--json=PATH` writes the
// schema_version-1 result file (same shape as bench/hot_path's).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/engine.h"

namespace neco {
namespace {

uint64_t g_budget = 20000;
ShardMode g_shard_mode = ShardMode::kThreads;
BenchJson* g_json = nullptr;

CampaignOptions BaseOptions(int workers, bool coverage_guidance) {
  CampaignOptions options;
  options.arch = Arch::kIntel;
  options.iterations = g_budget;
  options.samples = 8;
  options.seed = 1;
  options.workers = workers;
  options.fuzzer.coverage_guidance = coverage_guidance;
  options.shard_mode = g_shard_mode;
  if (g_shard_mode != ShardMode::kThreads) {
    // Exercise the full fork/exec path: children are fresh processes of
    // this binary entering through MaybeRunShardChild (dialing the
    // loopback listener in socket mode).
    options.shard_exec_path = "/proc/self/exe";
  }
  return options;
}

double TransportWaitSeconds(const EngineResult& result) {
  return result.transport.publish_wait_seconds +
         result.transport.feedback_wait_seconds;
}

uint64_t TransportWireBytes(const EngineResult& result) {
  return result.transport.delta_bytes + result.transport.feedback_bytes;
}

void RunAt(int workers, bool coverage_guidance) {
  const CampaignOptions options = BaseOptions(workers, coverage_guidance);

  const auto start = std::chrono::steady_clock::now();
  const EngineResult result = CampaignEngine("kvm", options).Run();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  std::printf(
      "  %7d %12.0f %9.2f%% %9zu %10llu %8llu %8.1f %7zu %8.3f\n", workers,
      secs > 0 ? static_cast<double>(g_budget) / secs : 0.0,
      result.merged.final_percent, result.merged.covered_points,
      static_cast<unsigned long long>(result.merged.findings.size()),
      static_cast<unsigned long long>(result.corpus_imports),
      static_cast<double>(TransportWireBytes(result)) / 1024.0,
      result.transport.max_queue_depth, TransportWaitSeconds(result));
  if (g_json != nullptr) {
    const std::string suffix =
        std::string(coverage_guidance ? "_guided_w" : "_bf_w") +
        std::to_string(workers);
    g_json->Metric("iters_per_sec" + suffix, "iters/s",
                   secs > 0 ? static_cast<double>(g_budget) / secs : 0.0);
    g_json->Metric("coverage" + suffix, "%", result.merged.final_percent);
    g_json->Metric("wire_kb" + suffix, "KiB",
                   static_cast<double>(TransportWireBytes(result)) / 1024.0);
  }
}

void RunSection(const char* title, bool coverage_guidance,
                const std::vector<int>& worker_counts) {
  std::printf("\n%s\n", title);
  std::printf("  %7s %12s %10s %9s %10s %8s %8s %7s %8s\n", "workers",
              "iters/sec", "coverage", "#lines", "findings", "imports",
              "wire_kb", "qmax", "idle_s");
  for (int workers : worker_counts) {
    RunAt(workers, coverage_guidance);
  }
}

}  // namespace
}  // namespace neco

int main(int argc, char** argv) {
  // Process-mode shards re-enter this binary with the hidden shard-child
  // arguments; nothing below runs in that case.
  if (const int code = neco::MaybeRunShardChild(argc, argv); code >= 0) {
    return code;
  }
  bool smoke = false;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else if (std::strcmp(argv[i], "--transport=process") == 0) {
      neco::g_shard_mode = neco::ShardMode::kProcesses;
    } else if (std::strcmp(argv[i], "--transport=socket") == 0) {
      neco::g_shard_mode = neco::ShardMode::kSockets;
    } else if (std::strcmp(argv[i], "--transport=inproc") == 0) {
      neco::g_shard_mode = neco::ShardMode::kThreads;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--smoke] [--json=PATH] "
                   "[--transport={inproc,process,socket}]\n",
                   argv[0]);
      return 2;
    }
  }
  neco::BenchJson json("parallel_scaling", smoke);
  if (!json_path.empty()) {
    neco::g_json = &json;
  }
  if (smoke) {
    neco::g_budget = 2000;
  }
  const char* medium =
      neco::g_shard_mode == neco::ShardMode::kProcesses
          ? "process shards over socketpairs (fork/exec)"
          : neco::g_shard_mode == neco::ShardMode::kSockets
                ? "socket shards over loopback TCP (exec + dial)"
                : "thread shards over the in-proc queue";
  char title[256];
  std::snprintf(title, sizeof(title),
                "Parallel campaign scaling — SimKvm, Intel, fixed "
                "%llu-iteration budget\nsplit across worker shards "
                "(seed + worker_id each), delta merge pipeline,\n"
                "transport: %s%s",
                static_cast<unsigned long long>(neco::g_budget), medium,
                smoke ? " [smoke]" : "");
  neco::PrintHeader(title);
  const std::vector<int> workers =
      smoke ? std::vector<int>{1, 2, 4} : std::vector<int>{1, 2, 4, 8};
  neco::RunSection("[breadth-first, the paper's default mode]", false,
                   workers);
  neco::RunSection("[coverage-guided, cross-shard corpus sync active]", true,
                   workers);
  if (!json_path.empty()) {
    if (!json.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  return 0;
}
