// campaign_bench — whole-campaign benchmark of NecoFuzz.
//
//   campaign_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --work-dir <dir>
//
// --trace 0 runs whole campaigns through CampaignEngine::Run() and reports
// the end-to-end metrics; --trace 1 reports the per-layer metrics (see
// trace.cc). The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Temporary state lives under --work-dir, which is removed on exit.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "perfbench/src/common.h"

namespace {

int Usage(const std::string& error) {
  std::cerr << "campaign_bench: " << error << "\n"
            << "usage: campaign_bench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --work-dir <dir>\n"
            << "workloads: " << perfbench::WorkloadNames() << "\n";
  return 2;
}

bool ParseUnsigned(const std::string& text, uint64_t* out) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Exec'd process shards re-enter this binary.
  if (const int code = neco::MaybeRunShardChild(argc, argv); code >= 0) {
    return code;
  }
  std::string workload_name;
  std::string work_dir;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 2;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    bool ok = true;
    if (flag == "--workload") {
      workload_name = value;
    } else if (flag == "--work-dir") {
      work_dir = value;
    } else if (flag == "--seed") {
      ok = ParseUnsigned(value, &seed);
    } else if (flag == "--seconds") {
      ok = ParseUnsigned(value, &seconds);
    } else if (flag == "--trace") {
      ok = ParseUnsigned(value, &trace);
    } else {
      return Usage("unknown flag " + flag);
    }
    if (!ok) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  if (argc % 2 == 0) {
    return Usage("flags come in pairs");
  }
  const perfbench::Workload* workload = perfbench::FindWorkload(workload_name);
  if (workload == nullptr) {
    return Usage("unknown workload '" + workload_name + "'");
  }
  if (seconds == 0 || trace > 1 || work_dir.empty()) {
    return Usage("--seconds, --trace and --work-dir are required");
  }

  const std::filesystem::path dir(work_dir);
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  int code = 0;
  try {
    const perfbench::Report report =
        trace == 1 ? perfbench::RunTraced(*workload, seed,
                                          static_cast<double>(seconds), dir)
                   : perfbench::RunEndToEnd(*workload, seed,
                                            static_cast<double>(seconds), dir);
    std::cout << report.ToJson() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "campaign_bench: " << e.what() << "\n";
    code = 1;
  }
  std::filesystem::remove_all(dir);
  return code;
}
