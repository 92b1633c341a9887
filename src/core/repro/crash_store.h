// Crash-report persistence (paper Section 4.5): "the agent saves the
// current fuzzing input to a timestamped file within a designated
// directory specified in its configuration", so findings survive the
// campaign for reproduction.
//
// Each saved crash is three files under the store directory, all written
// through the atomic commit primitive (src/core/state/commit.h):
//   <seq>-<bug_id>.input   — the raw 2 KiB fuzzing input
//   <seq>-<bug_id>.report  — human-readable metadata (kind, message,
//                            hypervisor, architecture, iteration)
//   <seq>-<bug_id>.record  — the authoritative wire-encoded
//                            CrashArtifactRecord, written LAST: it is the
//                            crash's commit marker. A crash interrupted
//                            mid-save leaves at most orphan .input/.report
//                            files, which reload ignores — no torn pair is
//                            ever observable through the API.
//
// A store pointed at an existing directory reloads every committed
// .record at construction, so deduplication and sequence numbering
// survive a restart. A campaign keeps one store, under its state dir
// (src/core/state/journal.h): the merge loop saves each new crash there,
// whichever shard found it.
#ifndef SRC_CORE_REPRO_CRASH_STORE_H_
#define SRC_CORE_REPRO_CRASH_STORE_H_

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "src/core/wire.h"

namespace neco {

class CrashStore {
 public:
  // In-memory only when `directory` is empty. A non-empty directory is
  // created if missing and scanned for previously committed records
  // (restart continues where the last run stopped: same dedup set, fresh
  // sequence numbers after the highest committed one). Unreadable or
  // torn files are skipped, never trusted.
  explicit CrashStore(std::filesystem::path directory = {});

  // Records a finding under the next sequence number (the record's own
  // `seq` is ignored); returns false if the bug id is already known
  // (deduplication), true if this is a new finding. Throws
  // std::runtime_error when persisting fails (ENOSPC, EACCES, a torn
  // write, ...): a crash artifact that cannot be made durable is an
  // error, not a silent success.
  bool Save(CrashArtifactRecord record);

  // Committed crashes in sequence order (reloaded ones first).
  const std::vector<CrashArtifactRecord>& records() const { return records_; }
  bool Known(const std::string& bug_id) const {
    return known_ids_.count(bug_id) != 0;
  }

  // Reload a persisted input by records() index (round-trip support).
  std::optional<FuzzInput> LoadInput(size_t index) const;

  const std::filesystem::path& directory() const { return directory_; }

 private:
  std::filesystem::path PathFor(const CrashArtifactRecord& record,
                                const char* extension) const;
  void Reload();

  // Single-threaded by contract (hence no mutex / NECO_GUARDED_BY): every
  // Save() happens on the merge loop's thread, and reads happen after
  // the campaign joined.
  std::filesystem::path directory_;
  std::vector<CrashArtifactRecord> records_;
  std::unordered_set<std::string> known_ids_;
  uint64_t next_seq_ = 0;
};

}  // namespace neco

#endif  // SRC_CORE_REPRO_CRASH_STORE_H_
