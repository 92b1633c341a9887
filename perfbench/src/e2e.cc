// The untraced run: whole campaigns through CampaignEngine::Run(), timed
// from outside. Reports the end-to-end metrics.
#include <sys/resource.h>

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "perfbench/src/common.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;

// Minimal campaigns timed for setup_s. Their cost drifts on a scale of a
// second (thread wake-ups), so they run in blocks between the full
// campaigns, and the median spans the whole run.
constexpr size_t kSetupReps = 101;
constexpr size_t kSetupBlock = 25;
// Timed full campaigns per run, at least. Two keeps a guided run under a
// minute on a slow host; faster workloads fit many more in the budget.
constexpr size_t kMinCampaignReps = 2;

double PeakRssMib(const Workload& workload) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  double kib = static_cast<double>(self.ru_maxrss);
  if (workload.mode != neco::ShardMode::kThreads) {
    // ru_maxrss of the children is the largest single child; the shards
    // of one campaign run side by side.
    rusage children{};
    ::getrusage(RUSAGE_CHILDREN, &children);
    kib += static_cast<double>(children.ru_maxrss) * workload.workers;
  }
  return kib / 1024.0;
}

// Structural checks on one campaign's result that need no reference run.
bool Consistent(const neco::EngineResult& result, uint64_t iterations) {
  const neco::CampaignResult& merged = result.merged;
  if (merged.fuzzer_stats.iterations != iterations ||
      merged.covered_points != merged.covered_set.size() ||
      merged.covered_points > merged.total_points ||
      merged.total_points == 0) {
    return false;
  }
  const double percent = 100.0 * static_cast<double>(merged.covered_points) /
                         static_cast<double>(merged.total_points);
  return percent == merged.final_percent;
}

}  // namespace

Report RunEndToEnd(const Workload& workload, uint64_t seed, double seconds,
                   const fs::path& work_dir) {
  Report report;
  int dir_counter = 0;
  auto fresh_dir = [&] {
    return work_dir / ("state-" + std::to_string(dir_counter++));
  };

  // --- setup_s: one iteration per worker with the workload's options.
  std::vector<double> setup_seconds;
  size_t setup_runs = 0;
  auto setup_block = [&](size_t count) {
    for (size_t i = 0; i < count && setup_runs < kSetupReps; ++i) {
      ++setup_runs;
      const fs::path dir = fresh_dir();
      neco::CampaignOptions options = MakeOptions(workload, seed, dir);
      options.iterations = static_cast<uint64_t>(workload.workers);
      ++report.attempted;
      try {
        const Clock::time_point start = Clock::now();
        neco::CampaignEngine engine("kvm", options);
        const neco::EngineResult result = engine.Run();
        setup_seconds.push_back(SecondsSince(start));
        if (!Consistent(result, options.iterations)) {
          report.Fail("minimal campaign result is inconsistent");
        }
      } catch (const std::exception& e) {
        report.Fail(std::string("minimal campaign threw: ") + e.what());
      }
      fs::remove_all(dir);
    }
  };

  // --- Full campaigns until the budget is spent, each timed. The first is
  // the determinism reference the others must match. No campaign starts
  // that would end past the budget, once the minimum count is met.
  std::vector<double> execs_per_s;
  bool have_reference = false;
  uint64_t reference_digest = 0;
  double coverage_pct = 0.0;
  double findings = 0.0;
  const Clock::time_point budget_start = Clock::now();
  size_t reps = 0;
  double last_wall = 0.0;
  for (;;) {
    setup_block(kSetupBlock);
    const double elapsed = SecondsSince(budget_start);
    if ((reps >= kMinCampaignReps && elapsed + last_wall > seconds) ||
        elapsed >= 2 * seconds) {
      break;
    }
    const fs::path dir = fresh_dir();
    const neco::CampaignOptions options = MakeOptions(workload, seed, dir);
    ++report.attempted;
    try {
      const Clock::time_point start = Clock::now();
      neco::CampaignEngine engine("kvm", options);
      const neco::EngineResult result = engine.Run();
      const double wall = SecondsSince(start);
      last_wall = wall;
      const uint64_t digest = ResultDigest(result);
      if (!have_reference) {
        have_reference = true;
        reference_digest = digest;
        coverage_pct = result.merged.final_percent;
        findings = static_cast<double>(result.merged.findings.size());
      }
      if (!Consistent(result, options.iterations)) {
        report.Fail("campaign result is inconsistent");
      } else if (digest != reference_digest) {
        report.Fail("campaign digest differs from the first run");
      } else {
        ++reps;
        execs_per_s.push_back(
            static_cast<double>(result.merged.fuzzer_stats.iterations) / wall);
      }
    } catch (const std::exception& e) {
      report.Fail(std::string("campaign threw: ") + e.what());
    }
    fs::remove_all(dir);
  }
  setup_block(kSetupReps);

  report.Set("execs_per_s", Median(execs_per_s), "1/s");
  report.Set("coverage_pct", coverage_pct, "%");
  report.Set("findings", findings, "count");
  report.Set("setup_s", Median(setup_seconds), "s");
  report.Set("peak_rss_mib", PeakRssMib(workload), "MiB");
  std::cerr << "perfbench: " << workload.name << " seed " << seed << ": "
            << setup_seconds.size() << " setup campaigns at ms p10/p50/p90 "
            << Percentile(setup_seconds, 10) * 1e3 << "/"
            << Median(setup_seconds) * 1e3 << "/"
            << Percentile(setup_seconds, 90) * 1e3 << ", "
            << execs_per_s.size() << " timed campaigns at execs/s:";
  for (double rate : execs_per_s) {
    std::cerr << " " << static_cast<uint64_t>(rate);
  }
  std::cerr << "\n";
  return report;
}

}  // namespace perfbench
