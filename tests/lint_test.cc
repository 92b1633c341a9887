// Proves necolint's rules actually fire — and that src/ is clean.
//
// A linter that silently stops matching is worse than no linter: CI
// stays green while the invariant rots. So every rule has a seeded
// violation under tools/necolint/testdata/, and this suite asserts the
// lint reports it (right rule, right file), asserts a clean fixture and
// the real repo produce no findings, and spot-checks the violation
// format tools will parse (path:line: [rule] message).
//
// Paths come in through compile definitions (see tests/CMakeLists.txt):
//   NECO_LINT_BINARY   — the built necolint executable
//   NECO_LINT_TESTDATA — tools/necolint/testdata in the source tree
//   NECO_SOURCE_ROOT   — the repo root the ctest also scans

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

#include "gtest/gtest.h"

namespace {

struct LintResult {
  int exit_code = -1;
  std::string output;
};

LintResult RunLint(const std::string& root) {
  const std::string command =
      std::string(NECO_LINT_BINARY) + " " + root + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  LintResult result;
  if (pipe == nullptr) {
    return result;
  }
  std::array<char, 4096> chunk;
  size_t n = 0;
  while ((n = fread(chunk.data(), 1, chunk.size(), pipe)) > 0) {
    result.output.append(chunk.data(), n);
  }
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string Fixture(const char* name) {
  return std::string(NECO_LINT_TESTDATA) + "/" + name;
}

// One seeded-violation fixture: the lint must exit 1 and name both the
// rule and the file carrying the violation.
void ExpectDetects(const char* fixture, const char* rule,
                   const char* file_fragment) {
  const LintResult result = RunLint(Fixture(fixture));
  EXPECT_EQ(result.exit_code, 1)
      << fixture << " should fail the lint; output:\n"
      << result.output;
  EXPECT_NE(result.output.find(std::string("[") + rule + "]"),
            std::string::npos)
      << fixture << " should report " << rule << "; output:\n"
      << result.output;
  EXPECT_NE(result.output.find(file_fragment), std::string::npos)
      << fixture << " should name " << file_fragment << "; output:\n"
      << result.output;
}

TEST(NecolintTest, DetectsRawStrerror) {
  ExpectDetects("raw_strerror", "raw-strerror", "src/errors.cc");
  // Exactly one: the strerror_r call and the comment mention are exempt.
  const LintResult result = RunLint(Fixture("raw_strerror"));
  EXPECT_NE(result.output.find("1 violation"), std::string::npos)
      << result.output;
}

TEST(NecolintTest, DetectsMissingCloexec) {
  ExpectDetects("missing_cloexec", "fd-cloexec", "src/fds.cc");
  // All five seeded shapes (::pipe, bare ::open, bare ::socket, bare
  // ::socketpair, ::dup) fire; the three compliant calls do not.
  const LintResult result = RunLint(Fixture("missing_cloexec"));
  EXPECT_NE(result.output.find("5 violations"), std::string::npos)
      << result.output;
}

TEST(NecolintTest, DetectsStrayFsync) {
  ExpectDetects("stray_fsync", "fsync-outside-commit", "src/durability.cc");
}

TEST(NecolintTest, DetectsStateWritesBypassingAtomicWriteFile) {
  ExpectDetects("state_unsafe_write", "state-atomic-write",
                "src/core/state/store.cc");
  // Exactly three: the ofstream, the writable ::open and the O_RDONLY
  // ::open — every state file is opened in commit.cc. The creating open
  // in the exempt commit.cc (the primitive's own implementation) must not
  // fire.
  const LintResult result = RunLint(Fixture("state_unsafe_write"));
  EXPECT_NE(result.output.find("3 violations"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("commit.cc"), std::string::npos)
      << result.output;
}

TEST(NecolintTest, DetectsBufferHygieneViolations) {
  ExpectDetects("buffer_hygiene", "wire-buffer-hygiene",
                "src/core/frames.cc");
  const LintResult result = RunLint(Fixture("buffer_hygiene"));
  EXPECT_NE(result.output.find("new[]"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("memcpy"), std::string::npos)
      << result.output;
}

TEST(NecolintTest, DetectsBenchWithoutSmoke) {
  ExpectDetects("bench_missing_smoke", "bench-smoke", "bench/no_smoke.cc");
  // Exactly one: the compliant bench (has_flag.cc) must not fire, and
  // the flag living in a string literal is precisely what satisfies the
  // raw-text rule.
  const LintResult result = RunLint(Fixture("bench_missing_smoke"));
  EXPECT_NE(result.output.find("1 violation"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("has_flag.cc"), std::string::npos)
      << result.output;
}

TEST(NecolintTest, CleanFixturePasses) {
  const LintResult result = RunLint(Fixture("clean"));
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_TRUE(result.output.empty()) << result.output;
}

TEST(NecolintTest, RepositorySourcesAreClean) {
  const LintResult result = RunLint(NECO_SOURCE_ROOT);
  EXPECT_EQ(result.exit_code, 0)
      << "src/ violates its own invariants:\n"
      << result.output;
}

TEST(NecolintTest, ViolationFormatIsParseable) {
  // path:line: [rule] message — one finding per line, so CI annotations
  // and editors can jump to it.
  const LintResult result = RunLint(Fixture("stray_fsync"));
  EXPECT_NE(result.output.find("src/durability.cc:6: [fsync-outside-commit]"),
            std::string::npos)
      << result.output;
}

TEST(NecolintTest, UsageErrorsDoNotLookLikeFindings) {
  // A bad invocation exits 2, distinct from "violations found" (1) and
  // "clean" (0), so CI cannot mistake a broken harness for a clean scan.
  const LintResult result = RunLint("/nonexistent-root");
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

}  // namespace
