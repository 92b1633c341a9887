// necolint — the repo's invariant checker.
//
// clang-tidy and -Wthread-safety see one translation unit at a time; the
// invariants below are *repo-wide* contracts that no general-purpose tool
// knows about, so they get their own scanner. It runs as a ctest and as a
// CI step over src/ (tests may deliberately violate rules to prove error
// paths; production code may not).
//
// Rules (each has a seeded-violation fixture in tools/necolint/testdata
// proving it fires — see tests/lint_test.cc):
//
//   raw-strerror         std::strerror writes a static buffer; two
//                        worker threads formatting errors concurrently
//                        race. Use neco::SafeStrerror
//                        (src/support/errno_util.h). gai_strerror (no
//                        errno, thread-safe on glibc) and the strerror_r
//                        inside the wrapper itself are exempt.
//   fd-cloexec           The engine fork/execs shard children; any
//                        descriptor created without close-on-exec leaks
//                        into them. ::pipe/::accept/::dup/::creat are
//                        banned outright (pipe2/accept4/fcntl-based
//                        alternatives exist); ::socket, ::socketpair and
//                        ::open calls must name SOCK_CLOEXEC / O_CLOEXEC
//                        in the same statement.
//   fsync-outside-commit fsync placement IS the crash-consistency
//                        argument (see src/core/state/commit.cc). A
//                        stray fsync elsewhere means durable-state logic
//                        leaked out of the commit primitive, where no
//                        torn-write analysis covers it.
//   state-atomic-write   Durable-state files are crash-consistent only
//                        because every write is AtomicWriteFile's
//                        temp+rename+fsync sequence, and every read is
//                        ReadFileBytes. Under src/core/state/ (commit.cc
//                        itself exempt), ofstream/ifstream/fopen and
//                        ::open are banned: commit.cc is the one file
//                        that opens a state file, so it is the one seam
//                        a crash-point checker has to wrap.
//   wire-buffer-hygiene  Raw new[] is banned in src/ (std::vector /
//                        unique_ptr exist), and memcpy in src/core/ is
//                        confined to wire.cc's codec helpers: hand-rolled
//                        byte copies around wire buffers are how frame
//                        corruption bugs start.
//   bench-smoke          Every bench binary under bench/ must support
//                        --smoke (a seconds-scale budget), so CI can
//                        exercise every bench's code path on each push
//                        instead of only the full multi-minute runs.
//
// The scanner is textual by design: it strips comments and string
// literals, then pattern-matches. That keeps it dependency-free (no
// libclang in the build image) and fast enough to run on every build.
// Cost: it cannot see through macros or match C++ semantically — rules
// are written so the textual form IS the contract (e.g. syscalls are
// matched in their ::-qualified spelling, the repo's idiom for them).

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Violation {
  std::string file;  // Relative to the scanned root.
  size_t line = 0;
  std::string rule;
  std::string message;
};

struct SourceFile {
  std::string rel_path;   // Forward-slash, relative to root.
  std::string code;       // Comments and string/char literals blanked.
  std::vector<size_t> line_starts;  // Offset of each line in `code`.
};

size_t LineOf(const SourceFile& file, size_t offset) {
  size_t line = 1;
  for (size_t start : file.line_starts) {
    if (start > offset) {
      break;
    }
    ++line;
  }
  return line - 1 == 0 ? 1 : line - 1;
}

// Blanks comments, string literals, and char literals with spaces so
// rule patterns never fire inside them; newlines are preserved so line
// numbers survive. Handles //, /* */, "..." with escapes, '...' with
// escapes, and R"delim(...)delim" raw strings.
std::string StripCommentsAndStrings(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  const size_t n = text.size();
  auto blank = [&](char c) { out.push_back(c == '\n' ? '\n' : ' '); };
  while (i < n) {
    const char c = text[i];
    if (c == '/' && i + 1 < n && text[i + 1] == '/') {
      while (i < n && text[i] != '\n') {
        blank(text[i++]);
      }
    } else if (c == '/' && i + 1 < n && text[i + 1] == '*') {
      blank(text[i++]);
      blank(text[i++]);
      while (i < n && !(text[i] == '*' && i + 1 < n && text[i + 1] == '/')) {
        blank(text[i++]);
      }
      if (i < n) {
        blank(text[i++]);
        blank(text[i++]);
      }
    } else if (c == 'R' && i + 1 < n && text[i + 1] == '"' &&
               (i == 0 || (!std::isalnum(static_cast<unsigned char>(
                               text[i - 1])) &&
                           text[i - 1] != '_'))) {
      // Raw string: R"delim( ... )delim"
      size_t j = i + 2;
      std::string delim;
      while (j < n && text[j] != '(') {
        delim.push_back(text[j++]);
      }
      const std::string closer = ")" + delim + "\"";
      const size_t end = text.find(closer, j);
      const size_t stop = end == std::string::npos ? n : end + closer.size();
      while (i < stop) {
        blank(text[i++]);
      }
    } else if (c == '"' || c == '\'') {
      const char quote = c;
      blank(text[i++]);
      while (i < n && text[i] != quote) {
        if (text[i] == '\\' && i + 1 < n) {
          blank(text[i++]);
        }
        blank(text[i++]);
      }
      if (i < n) {
        blank(text[i++]);
      }
    } else {
      out.push_back(c);
      ++i;
    }
  }
  return out;
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Finds `needle` at an identifier boundary on the left (so "strerror"
// does not match inside "SafeStrerror"), starting at `from`. A needle
// that starts with punctuation ("::open(") is its own boundary.
size_t FindWordStart(const std::string& haystack, const std::string& needle,
                     size_t from) {
  size_t pos = from;
  while ((pos = haystack.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || !IsIdentChar(needle[0]) ||
        !IsIdentChar(haystack[pos - 1])) {
      return pos;
    }
    pos += needle.size();
  }
  return std::string::npos;
}

bool HasSuffix(const std::string& value, const std::string& suffix) {
  return value.size() >= suffix.size() &&
         value.compare(value.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

std::vector<SourceFile> LoadSources(const fs::path& root) {
  std::vector<SourceFile> files;
  const fs::path src = root / "src";
  if (!fs::exists(src)) {
    return files;
  }
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (!entry.is_regular_file()) {
      continue;
    }
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    SourceFile file;
    file.rel_path = fs::relative(entry.path(), root).generic_string();
    file.code = StripCommentsAndStrings(text.str());
    file.line_starts.push_back(0);
    for (size_t i = 0; i < file.code.size(); ++i) {
      if (file.code[i] == '\n') {
        file.line_starts.push_back(i + 1);
      }
    }
    files.push_back(std::move(file));
  }
  // Deterministic report order regardless of directory iteration order.
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.rel_path < b.rel_path;
            });
  return files;
}

// --- Rule: raw-strerror --------------------------------------------------

void CheckRawStrerror(const std::vector<SourceFile>& files,
                      std::vector<Violation>* out) {
  for (const SourceFile& file : files) {
    if (HasSuffix(file.rel_path, "support/errno_util.h") ||
        HasSuffix(file.rel_path, "support/errno_util.cc")) {
      continue;  // The thread-safe wrapper itself.
    }
    size_t pos = 0;
    while ((pos = FindWordStart(file.code, "strerror", pos)) !=
           std::string::npos) {
      const size_t after = pos + std::string("strerror").size();
      // strerror_r / strerror_l are the thread-safe primitives;
      // gai_strerror has no shared buffer for errno-style use here.
      const bool is_variant = after < file.code.size() &&
                              IsIdentChar(file.code[after]);
      const bool is_gai = pos >= 4 &&
                          file.code.compare(pos - 4, 4, "gai_") == 0;
      if (!is_variant && !is_gai) {
        out->push_back({file.rel_path, LineOf(file, pos), "raw-strerror",
                        "std::strerror is not thread-safe; use "
                        "neco::SafeStrerror (src/support/errno_util.h)"});
      }
      pos = after;
    }
  }
}

// --- Rule: fd-cloexec ----------------------------------------------------

// The statement containing `offset`: from the previous ';', '{' or '}'
// to the next ';'.
std::string StatementAround(const std::string& code, size_t offset) {
  size_t begin = code.find_last_of(";{}", offset);
  begin = begin == std::string::npos ? 0 : begin + 1;
  size_t end = code.find(';', offset);
  end = end == std::string::npos ? code.size() : end;
  return code.substr(begin, end - begin);
}

void CheckCloexec(const std::vector<SourceFile>& files,
                  std::vector<Violation>* out) {
  struct BannedCall {
    const char* pattern;
    const char* message;
  };
  const BannedCall banned[] = {
      {"::pipe(", "::pipe leaks descriptors into exec'd shard children; "
                  "use ::pipe2(fds, O_CLOEXEC)"},
      {"::accept(", "::accept leaks the connection into exec'd shard "
                    "children; use ::accept4(..., SOCK_CLOEXEC)"},
      {"::dup(", "::dup clears FD_CLOEXEC; use ::fcntl(fd, F_DUPFD_CLOEXEC, "
                 "0) or ::dup3"},
      {"::creat(", "::creat cannot take O_CLOEXEC; use ::open(..., O_CREAT "
                   "| O_CLOEXEC, ...)"},
  };
  struct FlagCall {
    const char* pattern;
    const char* flag;
    const char* message;
  };
  const FlagCall flagged[] = {
      {"::socket(", "SOCK_CLOEXEC",
       "::socket without SOCK_CLOEXEC leaks into exec'd shard children"},
      {"::socketpair(", "SOCK_CLOEXEC",
       "::socketpair without SOCK_CLOEXEC leaks a shard's stream into "
       "exec'd sibling children"},
      {"::open(", "O_CLOEXEC",
       "::open without O_CLOEXEC leaks into exec'd shard children"},
  };
  for (const SourceFile& file : files) {
    for (const BannedCall& call : banned) {
      size_t pos = 0;
      while ((pos = file.code.find(call.pattern, pos)) != std::string::npos) {
        out->push_back(
            {file.rel_path, LineOf(file, pos), "fd-cloexec", call.message});
        pos += 1;
      }
    }
    for (const FlagCall& call : flagged) {
      size_t pos = 0;
      while ((pos = file.code.find(call.pattern, pos)) != std::string::npos) {
        if (StatementAround(file.code, pos).find(call.flag) ==
            std::string::npos) {
          out->push_back(
              {file.rel_path, LineOf(file, pos), "fd-cloexec", call.message});
        }
        pos += 1;
      }
    }
  }
}

// --- Rule: fsync-outside-commit -----------------------------------------

void CheckFsync(const std::vector<SourceFile>& files,
                std::vector<Violation>* out) {
  for (const SourceFile& file : files) {
    if (HasSuffix(file.rel_path, "core/state/commit.cc")) {
      continue;
    }
    for (const char* call : {"fsync", "fdatasync"}) {
      size_t pos = 0;
      while ((pos = FindWordStart(file.code, call, pos)) !=
             std::string::npos) {
        const size_t after = pos + std::string(call).size();
        if (after < file.code.size() && !IsIdentChar(file.code[after])) {
          out->push_back(
              {file.rel_path, LineOf(file, pos), "fsync-outside-commit",
               "durability lives in src/core/state/commit.cc "
               "(AtomicWriteFile/FsyncFd); a stray fsync has no "
               "crash-consistency analysis behind it"});
        }
        pos = after;
      }
    }
  }
}

// --- Rule: state-atomic-write --------------------------------------------

void CheckStateAtomicWrite(const std::vector<SourceFile>& files,
                           std::vector<Violation>* out) {
  for (const SourceFile& file : files) {
    if (file.rel_path.rfind("src/core/state/", 0) != 0 ||
        HasSuffix(file.rel_path, "core/state/commit.cc")) {
      continue;  // The atomic write primitive is the one legitimate home.
    }
    // Any file opened here, for writing or for reading, escapes the
    // commit primitive and the one seam that wraps it.
    for (const char* call : {"ofstream", "ifstream", "fopen", "::open("}) {
      size_t pos = 0;
      while ((pos = FindWordStart(file.code, call, pos)) !=
             std::string::npos) {
        out->push_back(
            {file.rel_path, LineOf(file, pos), "state-atomic-write",
             std::string(call) +
                 " under src/core/state/ bypasses the commit primitive; "
                 "state files are written with AtomicWriteFile and read "
                 "with ReadFileBytes (src/core/state/commit.h)"});
        pos += std::string(call).size();
      }
    }
  }
}

// --- Rule: wire-buffer-hygiene ------------------------------------------

void CheckBufferHygiene(const std::vector<SourceFile>& files,
                        std::vector<Violation>* out) {
  for (const SourceFile& file : files) {
    // Raw new[] anywhere in src/.
    size_t pos = 0;
    while ((pos = FindWordStart(file.code, "new", pos)) !=
           std::string::npos) {
      const size_t after = pos + 3;
      if (after < file.code.size() && !IsIdentChar(file.code[after])) {
        // `new Type[...]` — scan forward over the type name to a '['
        // before any '(', ';' or '{'.
        size_t scan = after;
        while (scan < file.code.size() &&
               (IsIdentChar(file.code[scan]) ||
                std::isspace(static_cast<unsigned char>(file.code[scan])) ||
                file.code[scan] == ':' || file.code[scan] == '<' ||
                file.code[scan] == '>')) {
          ++scan;
        }
        if (scan < file.code.size() && file.code[scan] == '[') {
          out->push_back({file.rel_path, LineOf(file, pos),
                          "wire-buffer-hygiene",
                          "raw new[] is banned in src/; use std::vector "
                          "or std::make_unique<T[]>"});
        }
      }
      pos = after;
    }

    // memcpy in src/core/ outside the wire codec.
    if (file.rel_path.rfind("src/core/", 0) == 0 &&
        !HasSuffix(file.rel_path, "core/wire.cc")) {
      size_t mpos = 0;
      while ((mpos = FindWordStart(file.code, "memcpy", mpos)) !=
             std::string::npos) {
        out->push_back({file.rel_path, LineOf(file, mpos),
                        "wire-buffer-hygiene",
                        "memcpy in src/core/ is confined to wire.cc's "
                        "codec helpers; use the wire append/read helpers "
                        "instead of hand-rolled byte copies"});
        mpos += 6;
      }
    }
  }
}

// --- Rule: bench-smoke ---------------------------------------------------

// Every bench binary must take --smoke. The flag's spelling lives inside
// string literals (argv comparisons, usage lines), which the shared
// scanner blanks — so this rule reads the RAW file text instead of the
// stripped SourceFile form.
void CheckBenchSmoke(const fs::path& root, std::vector<Violation>* out) {
  const fs::path bench = root / "bench";
  if (!fs::exists(bench)) {
    return;  // Fixture roots without benches skip the rule.
  }
  std::vector<std::string> missing;
  for (const auto& entry : fs::recursive_directory_iterator(bench)) {
    if (!entry.is_regular_file() ||
        entry.path().extension().string() != ".cc") {
      continue;
    }
    std::ifstream in(entry.path(), std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    if (text.str().find("--smoke") == std::string::npos) {
      missing.push_back(fs::relative(entry.path(), root).generic_string());
    }
  }
  std::sort(missing.begin(), missing.end());
  for (const std::string& rel : missing) {
    out->push_back({rel, 1, "bench-smoke",
                    "bench binaries must support a --smoke flag (shrunk "
                    "seconds-scale budget) so CI can exercise them on "
                    "every push"});
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: necolint <repo-root>\n"
                 "Scans <repo-root>/src against the repo invariants; see "
                 "the header comment for the rule list.\n";
    return 2;
  }
  const fs::path root = argv[1];
  if (!fs::exists(root / "src")) {
    std::cerr << "necolint: no src/ under " << root << "\n";
    return 2;
  }

  const std::vector<SourceFile> files = LoadSources(root);
  std::vector<Violation> violations;
  CheckRawStrerror(files, &violations);
  CheckCloexec(files, &violations);
  CheckFsync(files, &violations);
  CheckStateAtomicWrite(files, &violations);
  CheckBufferHygiene(files, &violations);
  CheckBenchSmoke(root, &violations);

  for (const Violation& v : violations) {
    std::cout << v.file << ":" << v.line << ": [" << v.rule << "] "
              << v.message << "\n";
  }
  if (!violations.empty()) {
    std::cout << violations.size() << " violation"
              << (violations.size() == 1 ? "" : "s") << "\n";
    return 1;
  }
  return 0;
}
