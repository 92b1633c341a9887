// Shared pieces of the campaign benchmark: the named workloads, the
// campaign options each one runs with, small statistics helpers, and the
// one-line JSON report the benchmark prints last.
#ifndef PERFBENCH_SRC_COMMON_H_
#define PERFBENCH_SRC_COMMON_H_

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/engine.h"

namespace perfbench {

// One named workload. Every workload targets the registry's "kvm" sim;
// the seed is the only input the benchmark varies between runs.
struct Workload {
  std::string_view name;
  neco::Arch arch = neco::Arch::kIntel;
  bool guided = false;  // Coverage guidance (corpus + havoc/splice).
  int workers = 1;
  neco::ShardMode mode = neco::ShardMode::kThreads;
  bool journal = false;  // Durable state dir with a snapshot cadence.
  uint64_t iterations = 0;
  int samples = 24;  // Epochs per shard schedule.
  size_t snapshot_every = 0;
};

// Null for an unknown name.
const Workload* FindWorkload(std::string_view name);
std::string WorkloadNames();

// The campaign options a workload runs with. `state_dir` is used only by
// journaling workloads and must name a directory that does not exist yet.
neco::CampaignOptions MakeOptions(const Workload& workload, uint64_t seed,
                                  const std::filesystem::path& state_dir);

// FNV-1a 64, for digests compared within one process.
class Fnv {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const uint8_t*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// FNV-1a over the deterministic part of an EngineResult: the merged
// covered set, the finding ids, every worker's crash ids, and the coverage
// series. Two runs of one workload and seed must agree on it.
uint64_t ResultDigest(const neco::EngineResult& result);

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline uint64_t NanosBetween(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

// Median of a non-empty sample (mean of the two middle values when even).
double Median(std::vector<double> values);
// Nearest-rank percentile, p in (0, 100].
double Percentile(std::vector<double> values, double p);

// The benchmark's result line.
struct Report {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;

  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Records a failed check: counted against `attempted` by the caller.
  void Fail(const std::string& what);
  // {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ToJson() const;
};

Report RunEndToEnd(const Workload& workload, uint64_t seed, double seconds,
                   const std::filesystem::path& work_dir);
Report RunTraced(const Workload& workload, uint64_t seed, double seconds,
                 const std::filesystem::path& work_dir);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_COMMON_H_
