// Tests for the reproduction toolkit: crash persistence (timestamped
// report files, Section 4.5) and crash-input minimization, including an
// end-to-end minimize-a-real-CVE-input scenario.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "src/core/agent.h"
#include "src/core/repro/crash_store.h"
#include "src/core/repro/minimizer.h"
#include "src/hv/sim_kvm/kvm.h"

namespace neco {
namespace {

TEST(CrashStoreTest, InMemoryDeduplication) {
  CrashStore store;
  CrashArtifactRecord record;
  record.report = {AnomalyKind::kUbsan, "bug-a", "message"};
  record.input = MakeZeroInput();
  EXPECT_TRUE(store.Save(record));
  EXPECT_FALSE(store.Save(record));  // Duplicate id.
  record.report.bug_id = "bug-b";
  EXPECT_TRUE(store.Save(record));
  EXPECT_EQ(store.records().size(), 2u);
  EXPECT_TRUE(store.Known("bug-a"));
  EXPECT_FALSE(store.Known("bug-c"));
}

TEST(CrashStoreTest, PersistsAndReloadsInputs) {
  const auto dir = std::filesystem::temp_directory_path() /
                   "necofuzz_crash_store_test";
  std::filesystem::remove_all(dir);
  CrashStore store(dir);

  Rng rng(5);
  CrashArtifactRecord record;
  record.report = {AnomalyKind::kAssertion, "kvm-test/bug", "detail line"};
  record.input = MakeRandomInput(rng);
  record.hypervisor = "kvm";
  record.arch = "intel";
  record.iteration = 1234;
  ASSERT_TRUE(store.Save(record));

  const auto loaded = store.LoadInput(0);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, record.input);

  // The report file carries the metadata (with the id sanitized for use
  // in a filename).
  bool found_report = false;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".report") {
      found_report = true;
      std::ifstream in(entry.path());
      std::string contents((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
      EXPECT_NE(contents.find("kvm-test/bug"), std::string::npos);
      EXPECT_NE(contents.find("Assertion"), std::string::npos);
      EXPECT_NE(contents.find("1234"), std::string::npos);
    }
  }
  EXPECT_TRUE(found_report);
  std::filesystem::remove_all(dir);
}

TEST(CrashStoreTest, LoadOutOfRangeIsEmpty) {
  CrashStore store;
  EXPECT_FALSE(store.LoadInput(0).has_value());
}

TEST(MinimizerTest, ShrinksToLoadBearingBytes) {
  // Synthetic bug: triggered iff byte 100 == 0x42 and byte 1700 == 0x17.
  const BugProbe probe = [](const FuzzInput& input) -> std::string {
    if (input.size() > 1700 && input[100] == 0x42 && input[1700] == 0x17) {
      return "synthetic-bug";
    }
    return "";
  };
  Rng rng(7);
  FuzzInput crashing = MakeRandomInput(rng);
  crashing[100] = 0x42;
  crashing[1700] = 0x17;

  InputMinimizer minimizer(probe);
  const MinimizeResult result = minimizer.Minimize(crashing, "synthetic-bug");
  EXPECT_EQ(probe(result.input), "synthetic-bug");
  EXPECT_EQ(result.nonzero_bytes_after, 2u);
  EXPECT_EQ(result.input[100], 0x42);
  EXPECT_EQ(result.input[1700], 0x17);
  EXPECT_LT(result.nonzero_bytes_after, result.nonzero_bytes_before);
}

TEST(MinimizerTest, RespectsProbeBudget) {
  uint64_t calls = 0;
  const BugProbe probe = [&calls](const FuzzInput& input) -> std::string {
    ++calls;
    return input[0] == 0xaa ? "b" : "";
  };
  FuzzInput crashing(kFuzzInputSize, 0xff);
  crashing[0] = 0xaa;
  InputMinimizer minimizer(probe);
  const MinimizeResult result = minimizer.Minimize(crashing, "b", 50);
  EXPECT_LE(result.probes, 50u);
  EXPECT_LE(calls, 50u);
  // Whatever came out still triggers.
  EXPECT_EQ(probe(result.input), "b");
}

TEST(MinimizerTest, MinimizesRealCveInput) {
  // End to end: find a CVE-2023-30456-triggering input by fuzzing, then
  // minimize it down while the agent still reports the same bug id.
  SimKvm kvm;
  AgentOptions options;
  options.arch = Arch::kIntel;
  options.oracle_interval = 0;
  Agent agent(kvm, options);

  Rng rng(2023);
  FuzzInput crashing;
  for (int i = 0; i < 30000 && crashing.empty(); ++i) {
    FuzzInput candidate = MakeRandomInput(rng);
    const ExecFeedback feedback = agent.ExecuteOne(candidate);
    if (feedback.anomaly && feedback.anomaly_id == "kvm-nvmx-cr4pae-oob") {
      crashing = candidate;
    }
  }
  ASSERT_FALSE(crashing.empty()) << "budget too small to find the CVE";

  const BugProbe probe = [&](const FuzzInput& input) -> std::string {
    const ExecFeedback feedback = agent.ExecuteOne(input);
    return feedback.anomaly ? feedback.anomaly_id : "";
  };
  InputMinimizer minimizer(probe);
  const MinimizeResult result =
      minimizer.Minimize(crashing, "kvm-nvmx-cr4pae-oob", 1500);
  EXPECT_EQ(probe(result.input), "kvm-nvmx-cr4pae-oob");
  EXPECT_LT(result.nonzero_bytes_after, result.nonzero_bytes_before);
}

TEST(MinimizerTest, CountNonZero) {
  FuzzInput input(16, 0);
  EXPECT_EQ(CountNonZero(input), 0u);
  input[3] = 1;
  input[15] = 0xff;
  EXPECT_EQ(CountNonZero(input), 2u);
}

}  // namespace
}  // namespace neco
