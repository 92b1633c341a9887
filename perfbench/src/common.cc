#include "perfbench/src/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>

namespace perfbench {
namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {.name = "intel-bf",
     .arch = neco::Arch::kIntel,
     .guided = false,
     .workers = 1,
     .iterations = 40000},
    {.name = "intel-guided-2t",
     .arch = neco::Arch::kIntel,
     .guided = true,
     .workers = 2,
     .iterations = 160000},
    {.name = "amd-guided-journal-2p",
     .arch = neco::Arch::kAmd,
     .guided = true,
     .workers = 2,
     .mode = neco::ShardMode::kProcesses,
     .journal = true,
     .iterations = 60000,
     .samples = 200,
     .snapshot_every = 50},
};

void AppendNumber(std::string* out, double value) {
  char buf[64];
  if (!std::isfinite(value)) {
    value = 0.0;
  }
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out += buf;
}

}  // namespace

const Workload* FindWorkload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

std::string WorkloadNames() {
  std::string names;
  for (const Workload& w : kWorkloads) {
    names += (names.empty() ? "" : ", ") + std::string(w.name);
  }
  return names;
}

neco::CampaignOptions MakeOptions(const Workload& workload, uint64_t seed,
                                  const std::filesystem::path& state_dir) {
  neco::CampaignOptions options;
  options.arch = workload.arch;
  options.iterations = workload.iterations;
  options.samples = workload.samples;
  options.seed = seed;
  options.workers = workload.workers;
  options.corpus_sync = true;
  options.shard_mode = workload.mode;
  if (workload.mode != neco::ShardMode::kThreads) {
    // Exec'd children: main() hands --necofuzz-shard-child invocations to
    // MaybeRunShardChild.
    options.shard_exec_path = "/proc/self/exe";
  }
  options.fuzzer.seed = seed;
  options.fuzzer.coverage_guidance = workload.guided;
  if (workload.journal) {
    options.state_dir = state_dir.string();
    options.snapshot_every_epochs = workload.snapshot_every;
  }
  return options;
}

uint64_t ResultDigest(const neco::EngineResult& result) {
  Fnv h;
  h.U64(result.merged.covered_set.size());
  for (size_t point : result.merged.covered_set) {
    h.U64(point);
  }
  h.U64(result.merged.findings.size());
  for (const neco::AnomalyReport& report : result.merged.findings) {
    h.Str(report.bug_id);
  }
  h.U64(result.crashes.size());
  for (const auto& worker_crashes : result.crashes) {
    h.U64(worker_crashes.size());
    for (const auto& [id, input] : worker_crashes) {
      h.Str(id);
    }
  }
  h.U64(result.merged.series.size());
  for (const neco::CoverageSample& sample : result.merged.series) {
    uint64_t bits = 0;
    std::memcpy(&bits, &sample.percent, sizeof(bits));
    h.U64(sample.iteration);
    h.U64(bits);
  }
  return h.value();
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Report::Fail(const std::string& what) {
  correct = false;
  ++failed;
  std::cerr << "perfbench: check failed: " << what << "\n";
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": ";
    AppendNumber(&out, metric.value);
    out += ", \"unit\": \"" + metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
