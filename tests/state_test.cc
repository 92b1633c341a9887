// Tests for the durable campaign state layer (src/core/state/): the
// atomic commit primitive, CampaignJournal's epoch-granular commit
// protocol and fingerprint checks, one corruption sweep over both kinds
// of sealed file, CrashStore persistence (reload, dedup, torn-pair
// invisibility, loud write failures), and the engine-level
// contract — a campaign killed with SIGKILL mid-run and restarted with
// the same state_dir resumes from the last committed epoch bit-identical
// to an uninterrupted run, in thread and process shard mode alike, with
// the observer event stream continuing exactly where the committed prefix
// stopped.
//
// Process-shard campaigns here use fork-mode children (no exec), so this
// suite links the stock gtest main.
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "src/core/engine.h"
#include "src/core/repro/crash_store.h"
#include "src/core/state/commit.h"
#include "src/core/state/journal.h"
#include "src/core/wire.h"
#include "tests/event_recorder.h"

namespace neco {
namespace {

namespace fs = std::filesystem;

// A per-test scratch directory, removed on destruction (kill-test child
// processes never destroy it — the parent owns cleanup).
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(fs::temp_directory_path() /
              ("necofuzz-state-" + tag + "-" + std::to_string(::getpid()))) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const fs::path& path() const { return path_; }

 private:
  fs::path path_;
};

std::vector<uint8_t> Bytes(const std::string& text) {
  return std::vector<uint8_t>(text.begin(), text.end());
}

void WriteRaw(const fs::path& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

// --- AtomicWriteFile -----------------------------------------------------

TEST(AtomicWriteFileTest, WritesReplacesAndLeavesNoTempBehind) {
  TempDir dir("atomic");
  const fs::path target = dir.path() / "file";
  CommitStats stats;
  std::string error;

  const std::vector<uint8_t> first = Bytes("first contents");
  ASSERT_TRUE(AtomicWriteFile(target, first.data(), first.size(), &error,
                              &stats))
      << error;
  std::vector<uint8_t> read;
  ASSERT_TRUE(ReadFileBytes(target, &read));
  EXPECT_EQ(read, first);

  const std::vector<uint8_t> second = Bytes("second, longer contents");
  ASSERT_TRUE(AtomicWriteFile(target, second.data(), second.size(), &error,
                              &stats))
      << error;
  ASSERT_TRUE(ReadFileBytes(target, &read));
  EXPECT_EQ(read, second);

  EXPECT_FALSE(fs::exists(target.string() + ".tmp"));
  EXPECT_EQ(stats.files, 2u);
  EXPECT_EQ(stats.bytes, first.size() + second.size());
  EXPECT_GE(stats.fsync_seconds, 0.0);
}

TEST(AtomicWriteFileTest, FailureReturnsFalseWithAnErrnoMessage) {
  TempDir dir("atomic-fail");
  // The "parent directory" is a regular file, so the temp open fails.
  const fs::path blocker = dir.path() / "blocker";
  WriteRaw(blocker, Bytes("x"));
  const fs::path target = blocker / "child";

  std::string error;
  const std::vector<uint8_t> payload = Bytes("data");
  EXPECT_FALSE(AtomicWriteFile(target, payload.data(), payload.size(),
                               &error));
  EXPECT_FALSE(error.empty());
  EXPECT_NE(error.find(target.string()), std::string::npos) << error;
}

TEST(ReadFileBytesTest, MissingFileReturnsFalse) {
  TempDir dir("readbytes");
  std::vector<uint8_t> out = Bytes("stale");
  EXPECT_FALSE(ReadFileBytes(dir.path() / "missing", &out));
  EXPECT_TRUE(out.empty());
}

// --- CampaignJournal unit tests ------------------------------------------

CampaignManifestRecord TestFingerprint() {
  CampaignManifestRecord m;
  m.epochs = 3;
  m.workers = 2;
  m.samples = 3;
  m.arch = 1;
  m.iterations = 600;
  m.seed = 7;
  m.corpus_sync = 1;
  m.coverage_guidance = 1;
  m.target = "kvm";
  return m;
}

wire::Buffer DeltaFrame(int worker, uint64_t epoch, uint8_t salt) {
  ShardDelta delta;
  delta.worker = worker;
  delta.epoch = epoch;
  delta.iterations = 100 + salt;
  delta.covered_points = {1u, 5u, 9u + salt};
  delta.crash_ids = {"bug-" + std::to_string(salt)};
  delta.crash_inputs = {FuzzInput(8, salt)};
  return wire::Encode(delta);
}

std::vector<wire::Buffer> EpochFrames(uint64_t epoch) {
  return {DeltaFrame(0, epoch, static_cast<uint8_t>(2 * epoch)),
          DeltaFrame(1, epoch, static_cast<uint8_t>(2 * epoch + 1))};
}

TEST(CampaignJournalTest, CommitReopenLoadRoundTrip) {
  TempDir dir("journal-roundtrip");
  const std::vector<wire::Buffer> epoch0 = EpochFrames(0);
  const std::vector<wire::Buffer> epoch1 = EpochFrames(1);
  {
    CampaignJournal journal(dir.path(), TestFingerprint());
    EXPECT_EQ(journal.committed_epochs(), 0u);
    journal.CommitEpoch(0, epoch0, EpochCommitRecord{});
    journal.CommitEpoch(1, epoch1, EpochCommitRecord{});
    const JournalStats stats = journal.stats();
    EXPECT_EQ(stats.commits, 2u);
    EXPECT_EQ(stats.replayed_epochs, 0u);
    EXPECT_EQ(stats.committed_epochs, 2u);
    EXPECT_GT(stats.bytes_written, 0u);
    // The next commit must be the commit point, nothing else.
    EXPECT_THROW(journal.CommitEpoch(0, epoch0, EpochCommitRecord{}),
                 std::logic_error);
    EXPECT_THROW(journal.CommitEpoch(3, epoch0, EpochCommitRecord{}),
                 std::logic_error);
  }
  // Reopen: the commit point and every committed epoch survive.
  CampaignJournal journal(dir.path(), TestFingerprint());
  EXPECT_EQ(journal.committed_epochs(), 2u);
  EXPECT_NO_THROW(journal.VerifyEpoch(0, epoch0));
  EXPECT_NO_THROW(journal.VerifyEpoch(1, epoch1));
  EXPECT_EQ(journal.stats().replayed_epochs, 2u);

  // Divergent replay (different campaign state reaching this dir) throws.
  std::vector<wire::Buffer> tampered = epoch0;
  tampered[1] = DeltaFrame(1, 0, 99);
  EXPECT_THROW(journal.VerifyEpoch(0, tampered), std::runtime_error);
  EXPECT_THROW(journal.VerifyEpoch(1, {epoch1[0]}), std::runtime_error);
}

TEST(CampaignJournalTest, FingerprintMismatchIsRejectedByName) {
  // Every CampaignSpec field is part of the fingerprint: a spec that
  // differs from the stamped one in that field alone is refused, and the
  // error names the field.
  struct Row {
    const char* field;
    void (*mutate)(CampaignSpec&);
  };
  const Row table[] = {
      {"epochs", [](CampaignSpec& s) { s.epochs += 1; }},
      {"workers", [](CampaignSpec& s) { s.workers += 1; }},
      {"samples", [](CampaignSpec& s) { s.samples += 1; }},
      {"arch", [](CampaignSpec& s) { s.arch = 0; }},
      {"iterations", [](CampaignSpec& s) { s.iterations += 1; }},
      {"seed", [](CampaignSpec& s) { s.seed = 8; }},
      {"corpus_sync", [](CampaignSpec& s) { s.corpus_sync = 0; }},
      {"coverage_guidance", [](CampaignSpec& s) { s.coverage_guidance = 0; }},
      {"havoc_stack", [](CampaignSpec& s) { s.havoc_stack += 1; }},
      {"splice_percent", [](CampaignSpec& s) { s.splice_percent += 1; }},
      {"use_harness", [](CampaignSpec& s) { s.use_harness = 0; }},
      {"use_validator", [](CampaignSpec& s) { s.use_validator = 0; }},
      {"use_configurator", [](CampaignSpec& s) { s.use_configurator = 0; }},
      {"oracle_interval", [](CampaignSpec& s) { s.oracle_interval += 1; }},
      {"target", [](CampaignSpec& s) { s.target = "xen"; }},
  };
  TempDir dir("journal-fingerprint");
  { CampaignJournal journal(dir.path(), TestFingerprint()); }
  for (const Row& row : table) {
    CampaignManifestRecord other = TestFingerprint();
    row.mutate(other);
    try {
      CampaignJournal journal(dir.path(), other);
      ADD_FAILURE() << "expected a fingerprint mismatch on " << row.field;
    } catch (const std::runtime_error& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("(" + std::string(row.field) + ")"),
                std::string::npos)
          << message;
      EXPECT_NE(message.find(dir.path().string()), std::string::npos)
          << message;
    }
  }
  // The original fingerprint still opens.
  CampaignJournal journal(dir.path(), TestFingerprint());
  EXPECT_EQ(journal.committed_epochs(), 0u);
}

TEST(CampaignJournalTest, CorruptManifestIsRejectedNotTrusted) {
  TempDir dir("journal-badmanifest");
  { CampaignJournal journal(dir.path(), TestFingerprint()); }
  WriteRaw(dir.path() / "MANIFEST", Bytes("not a wire record"));
  EXPECT_THROW(CampaignJournal(dir.path(), TestFingerprint()),
               std::runtime_error);
}

TEST(CampaignJournalTest, ManifestFromAnotherFormatVersionNamesBothVersions) {
  TempDir dir("journal-format");
  { CampaignJournal journal(dir.path(), TestFingerprint()); }
  // A state dir an older build wrote: the same MANIFEST frame, stamped
  // with the previous format version ([u8 type][u8 version]...).
  const fs::path manifest = dir.path() / "MANIFEST";
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(manifest, &bytes));
  ASSERT_GT(bytes.size(), 1u);
  ASSERT_EQ(bytes[1], wire::kVersion);
  bytes[1] = static_cast<uint8_t>(wire::kVersion - 1);
  WriteRaw(manifest, bytes);
  try {
    CampaignJournal journal(dir.path(), TestFingerprint());
    FAIL() << "expected a format-version error";
  } catch (const std::runtime_error& e) {
    // Not "corrupt": the operator needs to know which build wrote it.
    const std::string message = e.what();
    EXPECT_NE(message.find("v" + std::to_string(wire::kVersion - 1)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("v" + std::to_string(wire::kVersion)),
              std::string::npos)
        << message;
    EXPECT_NE(message.find(manifest.string()), std::string::npos) << message;
    EXPECT_EQ(message.find("corrupt"), std::string::npos) << message;
  }
}

TEST(CampaignJournalTest, UncommittedEpochFilesAreInvisibleAndRecommitted) {
  TempDir dir("journal-torn");
  const std::vector<wire::Buffer> epoch0 = EpochFrames(0);
  const std::vector<wire::Buffer> epoch1 = EpochFrames(1);
  {
    CampaignJournal journal(dir.path(), TestFingerprint());
    journal.CommitEpoch(0, epoch0, EpochCommitRecord{});
  }
  // Simulate a kill between step 2 (epoch file) and step 3 (manifest
  // advance): a complete-looking epoch-1 file the manifest does not name,
  // plus a torn temp from a kill mid-write.
  WriteRaw(dir.path() / CampaignJournal::EpochFileName(1),
           Bytes("torn garbage from a dead incarnation"));
  WriteRaw(dir.path() / (CampaignJournal::EpochFileName(1) + ".tmp"),
           Bytes("half a write"));

  CampaignJournal journal(dir.path(), TestFingerprint());
  EXPECT_EQ(journal.committed_epochs(), 1u);  // Epoch 1 never committed.
  EXPECT_THROW(journal.VerifyEpoch(1, epoch1), std::runtime_error);
  // Recommitting the epoch overwrites the stale file and temp alike.
  journal.CommitEpoch(1, epoch1, EpochCommitRecord{});
  EXPECT_NO_THROW(journal.VerifyEpoch(1, epoch1));
  EXPECT_FALSE(
      fs::exists(dir.path() / (CampaignJournal::EpochFileName(1) + ".tmp")));
}

TEST(CampaignJournalTest, DamagedCommittedEpochFailsLoudlyOnLoad) {
  TempDir dir("journal-damage");
  const std::vector<wire::Buffer> epoch0 = EpochFrames(0);
  CampaignJournal journal(dir.path(), TestFingerprint());
  journal.CommitEpoch(0, epoch0, EpochCommitRecord{});

  const fs::path path = dir.path() / CampaignJournal::EpochFileName(0);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(path, &bytes));

  // A flipped payload byte fails the checksum.
  std::vector<uint8_t> flipped = bytes;
  flipped[flipped.size() / 2] ^= 0x20;
  WriteRaw(path, flipped);
  EXPECT_THROW(journal.VerifyEpoch(0, epoch0), std::runtime_error);

  // A truncated file is torn, not silently short.
  std::vector<uint8_t> truncated(bytes.begin(),
                                 bytes.begin() + bytes.size() / 2);
  WriteRaw(path, truncated);
  EXPECT_THROW(journal.VerifyEpoch(0, epoch0), std::runtime_error);

  // A missing file is an I/O error, named by its path and errno.
  fs::remove(path);
  try {
    journal.VerifyEpoch(0, epoch0);
    ADD_FAILURE() << "expected an unreadable-file error";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find(path.string()), std::string::npos) << message;
    EXPECT_NE(message.find("No such file"), std::string::npos) << message;
  }

  // Restoring the original bytes restores the epoch.
  WriteRaw(path, bytes);
  EXPECT_NO_THROW(journal.VerifyEpoch(0, epoch0));
}

TEST(CampaignJournalTest, DeletedManifestStartsTheJournalFresh) {
  TempDir dir("journal-fresh");
  {
    CampaignJournal journal(dir.path(), TestFingerprint());
    journal.CommitEpoch(0, EpochFrames(0), EpochCommitRecord{});
    journal.CommitEpoch(1, EpochFrames(1), EpochCommitRecord{});
  }
  fs::remove(dir.path() / "MANIFEST");
  CampaignJournal journal(dir.path(), TestFingerprint());
  EXPECT_EQ(journal.committed_epochs(), 0u);
  // A fresh commit overwrites the stale epoch file from the orphaned run.
  const std::vector<wire::Buffer> replacement = {DeltaFrame(0, 0, 50),
                                                 DeltaFrame(1, 0, 51)};
  journal.CommitEpoch(0, replacement, EpochCommitRecord{});
  EXPECT_NO_THROW(journal.VerifyEpoch(0, replacement));
  EXPECT_THROW(journal.VerifyEpoch(0, EpochFrames(0)), std::runtime_error);
}

// --- Materialized snapshots (journal level) ------------------------------

// A hand-built but decode-valid snapshot: the file format pins worker ids
// to their frame position and every record's horizon to the trailer's.
CampaignSnapshot MakeSnapshot(size_t horizon, int workers) {
  CampaignSnapshot snapshot;
  snapshot.epochs_covered = horizon;
  snapshot.merged.epochs_covered = horizon;
  snapshot.merged.covered = {1u, 5u, 9u};
  snapshot.merged.total_iterations = 100 * horizon;
  for (int w = 0; w < workers; ++w) {
    WorkerStateRecord state;
    state.worker = w;
    state.epochs_covered = horizon;
    state.iterations = 50 * horizon + static_cast<uint64_t>(w);
    snapshot.workers.push_back(state);
  }
  return snapshot;
}

TEST(CampaignJournalTest, SnapshotCommitAdvancesHorizonAndCompacts) {
  TempDir dir("journal-snapshot");
  CampaignJournal journal(dir.path(), TestFingerprint());
  const CampaignSnapshot first = MakeSnapshot(1, 2);
  journal.CommitEpoch(0, EpochFrames(0), EpochCommitRecord{}, &first);
  EXPECT_EQ(journal.snapshot_epochs(), 1u);

  // A snapshot whose horizon disagrees with the commit point is a logic
  // error, not a silent mismatch on disk.
  const CampaignSnapshot wrong = MakeSnapshot(5, 2);
  EXPECT_THROW(
      journal.CommitEpoch(1, EpochFrames(1), EpochCommitRecord{}, &wrong),
      std::logic_error);

  const CampaignSnapshot second = MakeSnapshot(2, 2);
  journal.CommitEpoch(1, EpochFrames(1), EpochCommitRecord{}, &second);
  EXPECT_EQ(journal.snapshot_epochs(), 2u);
  EXPECT_EQ(journal.stats().snapshots, 2u);

  // The horizon-2 commit compacted everything below the *previous*
  // horizon (1): epoch-0 is gone, the fallback snapshot generation and
  // the tail epoch survive.
  EXPECT_FALSE(fs::exists(dir.path() / CampaignJournal::EpochFileName(0)));
  EXPECT_TRUE(fs::exists(dir.path() / CampaignJournal::EpochFileName(1)));
  EXPECT_TRUE(fs::exists(dir.path() / SnapshotFileName(1)));
  EXPECT_TRUE(fs::exists(dir.path() / SnapshotFileName(2)));
  EXPECT_EQ(journal.stats().compacted_files, 1u);

  // Reopen: the horizon survives and the newest snapshot loads intact.
  CampaignJournal reopened(dir.path(), TestFingerprint());
  EXPECT_EQ(reopened.committed_epochs(), 2u);
  EXPECT_EQ(reopened.snapshot_epochs(), 2u);
  CampaignSnapshot loaded;
  EXPECT_EQ(reopened.LoadLatestSnapshot(&loaded), 2u);
  EXPECT_EQ(loaded.epochs_covered, 2u);
  EXPECT_EQ(loaded.merged.total_iterations, 200u);
  ASSERT_EQ(loaded.workers.size(), 2u);
  EXPECT_EQ(loaded.workers[1].iterations, 101u);
}

TEST(CampaignJournalTest, TornSnapshotFallsBackOneGenerationThenToReplay) {
  TempDir dir("journal-snaptorn");
  CampaignJournal journal(dir.path(), TestFingerprint());
  const CampaignSnapshot first = MakeSnapshot(1, 2);
  const CampaignSnapshot second = MakeSnapshot(2, 2);
  journal.CommitEpoch(0, EpochFrames(0), EpochCommitRecord{}, &first);
  journal.CommitEpoch(1, EpochFrames(1), EpochCommitRecord{}, &second);

  // Truncate the newest snapshot: the loader skips it and degrades to
  // the previous generation instead of failing.
  const fs::path newest = dir.path() / SnapshotFileName(2);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(newest, &bytes));
  WriteRaw(newest, std::vector<uint8_t>(bytes.begin(),
                                        bytes.begin() + bytes.size() / 2));
  CampaignSnapshot out;
  EXPECT_EQ(journal.LoadLatestSnapshot(&out), 1u);
  EXPECT_EQ(out.epochs_covered, 1u);

  // Damage the fallback too: full replay (0), never an exception.
  const fs::path older = dir.path() / SnapshotFileName(1);
  ASSERT_TRUE(ReadFileBytes(older, &bytes));
  bytes[bytes.size() / 2] ^= 0x20;  // Fails the trailer checksum.
  WriteRaw(older, bytes);
  EXPECT_EQ(journal.LoadLatestSnapshot(&out), 0u);

  // A snapshot file past the manifest horizon — a kill between the
  // snapshot write and the manifest advance — is never trusted, even
  // when it decodes perfectly.
  const CampaignSnapshot orphan = MakeSnapshot(3, 2);
  WriteRaw(dir.path() / SnapshotFileName(3), EncodeSnapshotFile(orphan));
  EXPECT_EQ(journal.LoadLatestSnapshot(&out), 0u);
}

TEST(CampaignJournalTest, TornCompactionIsSweptByTheNextSnapshotCommit) {
  TempDir dir("journal-sweep");
  CampaignJournal journal(dir.path(), TestFingerprint());
  const CampaignSnapshot first = MakeSnapshot(1, 2);
  const CampaignSnapshot second = MakeSnapshot(2, 2);
  journal.CommitEpoch(0, EpochFrames(0), EpochCommitRecord{}, &first);
  journal.CommitEpoch(1, EpochFrames(1), EpochCommitRecord{}, &second);

  // A kill mid-compaction leaves already-superseded files behind. The
  // sweep is a bounded directory scan, so the next snapshot commit
  // removes them alongside its own newly superseded generation.
  WriteRaw(dir.path() / CampaignJournal::EpochFileName(0),
           Bytes("stale epoch a dead compaction missed"));
  const CampaignSnapshot third = MakeSnapshot(3, 2);
  journal.CommitEpoch(2, EpochFrames(2), EpochCommitRecord{}, &third);

  EXPECT_FALSE(fs::exists(dir.path() / CampaignJournal::EpochFileName(0)));
  EXPECT_FALSE(fs::exists(dir.path() / CampaignJournal::EpochFileName(1)));
  EXPECT_FALSE(fs::exists(dir.path() / SnapshotFileName(1)));
  EXPECT_TRUE(fs::exists(dir.path() / CampaignJournal::EpochFileName(2)));
  EXPECT_TRUE(fs::exists(dir.path() / SnapshotFileName(2)));
  EXPECT_TRUE(fs::exists(dir.path() / SnapshotFileName(3)));
}

TEST(CampaignJournalTest, EveryFlipAndTruncationOfASealedFileIsRejected) {
  // One sweep over both kinds of sealed file a commit writes: every
  // single-byte flip and every truncation of the epoch file must make
  // VerifyEpoch throw, and of the snapshot file must make
  // DecodeSnapshotFile fail.
  TempDir dir("journal-sealed-sweep");
  const std::vector<wire::Buffer> frames = EpochFrames(0);
  const CampaignSnapshot snapshot = MakeSnapshot(1, 2);
  CampaignJournal journal(dir.path(), TestFingerprint());
  journal.CommitEpoch(0, frames, EpochCommitRecord{}, &snapshot);

  const fs::path epoch_path = dir.path() / CampaignJournal::EpochFileName(0);
  std::vector<uint8_t> epoch_file;
  std::vector<uint8_t> snapshot_file;
  ASSERT_TRUE(ReadFileBytes(epoch_path, &epoch_file));
  ASSERT_TRUE(ReadFileBytes(dir.path() / SnapshotFileName(1), &snapshot_file));
  ASSERT_NO_THROW(journal.VerifyEpoch(0, frames));
  CampaignSnapshot decoded;
  ASSERT_TRUE(DecodeSnapshotFile(snapshot_file.data(), snapshot_file.size(),
                                 &decoded));

  // One copy per flipped byte, then one per length short of the whole.
  auto damaged_copies = [](const std::vector<uint8_t>& file) {
    std::vector<std::vector<uint8_t>> copies;
    for (size_t pos = 0; pos < file.size(); ++pos) {
      copies.push_back(file);
      copies.back()[pos] ^= 0xFF;
    }
    for (size_t size = 0; size < file.size(); ++size) {
      copies.emplace_back(file.begin(), file.begin() + size);
    }
    return copies;
  };
  std::vector<size_t> accepted;
  const std::vector<std::vector<uint8_t>> epoch_copies =
      damaged_copies(epoch_file);
  for (size_t i = 0; i < epoch_copies.size(); ++i) {
    WriteRaw(epoch_path, epoch_copies[i]);
    try {
      journal.VerifyEpoch(0, frames);
      accepted.push_back(i);
    } catch (const std::runtime_error&) {
    }
  }
  EXPECT_EQ(accepted, std::vector<size_t>{})
      << "damaged epoch-file copies accepted, of " << epoch_copies.size();

  accepted.clear();
  const std::vector<std::vector<uint8_t>> snapshot_copies =
      damaged_copies(snapshot_file);
  for (size_t i = 0; i < snapshot_copies.size(); ++i) {
    if (DecodeSnapshotFile(snapshot_copies[i].data(),
                           snapshot_copies[i].size(), &decoded)) {
      accepted.push_back(i);
    }
  }
  EXPECT_EQ(accepted, std::vector<size_t>{})
      << "damaged snapshot copies accepted, of " << snapshot_copies.size();
}

// --- CrashStore ----------------------------------------------------------

CrashArtifactRecord MakeCrash(const std::string& id, uint8_t fill) {
  CrashArtifactRecord record;
  record.report = {AnomalyKind::kAssertion, id,
                   "Assertion failure in " + id};
  record.input = FuzzInput(64, fill);
  record.hypervisor = "kvm";
  record.arch = "intel";
  record.iteration = 40 + fill;
  return record;
}

size_t CountFiles(const fs::path& dir, const std::string& extension) {
  size_t n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    n += entry.path().extension() == extension;
  }
  return n;
}

TEST(CrashStoreTest, ReloadRestoresDedupSequenceAndInputs) {
  TempDir dir("crash-reload");
  {
    CrashStore store(dir.path());
    EXPECT_TRUE(store.Save(MakeCrash("kvm-bug-a", 1)));
    EXPECT_FALSE(store.Save(MakeCrash("kvm-bug-a", 9)));  // Dedup.
    EXPECT_TRUE(store.Save(MakeCrash("kvm-bug-b", 2)));
    EXPECT_EQ(store.records().size(), 2u);
  }
  EXPECT_EQ(CountFiles(dir.path(), ".record"), 2u);
  EXPECT_EQ(CountFiles(dir.path(), ".input"), 2u);
  EXPECT_EQ(CountFiles(dir.path(), ".report"), 2u);

  // A restarted store continues where the last run stopped: same records
  // in sequence order, same dedup set, sequence numbers after the highest
  // committed one.
  CrashStore store(dir.path());
  ASSERT_EQ(store.records().size(), 2u);
  EXPECT_EQ(store.records()[0].report.bug_id, "kvm-bug-a");
  EXPECT_EQ(store.records()[1].report.bug_id, "kvm-bug-b");
  EXPECT_EQ(store.records()[0].input, FuzzInput(64, 1));
  EXPECT_EQ(store.records()[1].iteration, 42u);
  EXPECT_TRUE(store.Known("kvm-bug-a"));
  EXPECT_TRUE(store.Known("kvm-bug-b"));
  EXPECT_FALSE(store.Save(MakeCrash("kvm-bug-b", 5)));  // Dedup survives.

  const std::optional<FuzzInput> input = store.LoadInput(1);
  ASSERT_TRUE(input.has_value());
  EXPECT_EQ(*input, FuzzInput(64, 2));

  EXPECT_TRUE(store.Save(MakeCrash("kvm-bug-c", 3)));
  EXPECT_TRUE(fs::exists(dir.path() / "2-kvm-bug-c.record"));
}

TEST(CrashStoreTest, OrphanAndTornFilesAreInvisibleAfterReopen) {
  TempDir dir("crash-torn");
  {
    CrashStore store(dir.path());
    EXPECT_TRUE(store.Save(MakeCrash("kvm-bug-real", 1)));
  }
  // A save killed between writes leaves derived files with no .record
  // commit marker; a torn record itself fails the strict decode. Neither
  // may surface through the API.
  WriteRaw(dir.path() / "9-kvm-bug-orphan.input", Bytes("orphan input"));
  WriteRaw(dir.path() / "9-kvm-bug-orphan.report", Bytes("orphan report"));
  WriteRaw(dir.path() / "5-kvm-bug-torn.record", Bytes("torn record"));

  CrashStore store(dir.path());
  ASSERT_EQ(store.records().size(), 1u);
  EXPECT_EQ(store.records()[0].report.bug_id, "kvm-bug-real");
  EXPECT_FALSE(store.Known("kvm-bug-orphan"));
  EXPECT_FALSE(store.Known("kvm-bug-torn"));
}

TEST(CrashStoreTest, PersistFailureThrowsInsteadOfSilentlySucceeding) {
  TempDir dir("crash-fail");
  const fs::path store_dir = dir.path() / "store";
  CrashStore store(store_dir);
  // Yank the directory out from under the store: the next Save cannot
  // make its artifact durable and must say so.
  fs::remove_all(store_dir);
  WriteRaw(store_dir, Bytes("a file where the directory was"));
  EXPECT_THROW(store.Save(MakeCrash("kvm-bug-lost", 1)), std::runtime_error);
  // The failed save is not remembered as known.
  EXPECT_FALSE(store.Known("kvm-bug-lost"));
}

TEST(CrashStoreTest, MemoryOnlyStoreStillDedups) {
  CrashStore store;
  EXPECT_TRUE(store.Save(MakeCrash("kvm-bug-a", 1)));
  EXPECT_FALSE(store.Save(MakeCrash("kvm-bug-a", 2)));
  EXPECT_EQ(store.records().size(), 1u);
  EXPECT_EQ(store.LoadInput(0), std::nullopt);
}

// --- Engine-level crash consistency --------------------------------------

// (kvm, AMD, guided, 3 workers, 3 epochs): finds an anomaly in epoch 0,
// syncs corpus every epoch — every journal record type in play.
CampaignOptions StateOptions() {
  CampaignOptions options;
  options.arch = Arch::kAmd;
  options.iterations = 900;
  options.samples = 3;
  options.seed = 7;
  options.workers = 3;
  options.fuzzer.coverage_guidance = true;
  return options;
}

// The event stream a resumed campaign must produce: the uninterrupted
// stream minus every per-epoch event for epochs before the resume point
// (ShardDone and Finish carry no epoch and always fire at the end).
std::vector<CampaignEvent> ExpectedTail(
    const std::vector<CampaignEvent>& golden, size_t resume_epochs) {
  std::vector<CampaignEvent> tail;
  for (const CampaignEvent& event : golden) {
    const bool replayed = std::visit(
        [&](const auto& e) {
          if constexpr (requires { e.epoch; }) {
            return e.epoch < resume_epochs;
          } else {
            return false;
          }
        },
        event);
    if (!replayed) {
      tail.push_back(event);
    }
  }
  return tail;
}

TEST(DurableCampaignTest, JournalingChangesNothingAndCommitsEveryEpoch) {
  TempDir dir("engine-journal");
  CampaignOptions options = StateOptions();

  EventRecorder plain;
  const EngineResult golden =
      CampaignEngine("kvm", options).AddObserver(&plain).Run();
  ASSERT_FALSE(plain.events.empty());
  EXPECT_EQ(golden.journal.commits, 0u);  // No state_dir, no journal.

  options.state_dir = (dir.path() / "state").string();
  EventRecorder journaled;
  const EngineResult result =
      CampaignEngine("kvm", options).AddObserver(&journaled).Run();

  // Durability is invisible to the campaign itself.
  EXPECT_EQ(journaled.events, plain.events);
  EXPECT_EQ(golden, result);

  // Every epoch committed, none replayed, and the artifacts are on disk.
  const size_t epochs = result.merged.series.size();
  EXPECT_EQ(result.journal.commits, epochs);
  EXPECT_EQ(result.journal.replayed_epochs, 0u);
  EXPECT_EQ(result.journal.committed_epochs, epochs);
  EXPECT_GT(result.journal.bytes_written, 0u);
  EXPECT_GE(result.journal.crash_artifacts, 1u);
  const fs::path state = options.state_dir;
  EXPECT_TRUE(fs::exists(state / "MANIFEST"));
  for (size_t e = 0; e < epochs; ++e) {
    EXPECT_TRUE(fs::exists(state / CampaignJournal::EpochFileName(e)));
  }
  // The campaign's one crash store holds one record per merged finding,
  // whichever shard found it.
  const CrashStore store(state / "crashes");
  ASSERT_EQ(store.records().size(), result.merged.findings.size());
  for (const CrashArtifactRecord& record : store.records()) {
    EXPECT_EQ(record.hypervisor, "kvm");
    EXPECT_EQ(record.arch, "amd");
    EXPECT_EQ(record.input.size(), kFuzzInputSize);
    EXPECT_GT(record.iteration, 0u);
    const auto finding = std::find_if(
        result.merged.findings.begin(), result.merged.findings.end(),
        [&](const AnomalyReport& r) {
          return r.bug_id == record.report.bug_id;
        });
    ASSERT_NE(finding, result.merged.findings.end()) << record.report.bug_id;
    EXPECT_EQ(record.report, *finding);
  }
  EXPECT_EQ(CountFiles(state / "crashes", ".record"), store.records().size());

  // Re-running the completed campaign replays every epoch silently —
  // per-epoch events already fired in the first incarnation — and lands
  // on the identical result without recommitting anything.
  EventRecorder rerun;
  const EngineResult replayed =
      CampaignEngine("kvm", options).AddObserver(&rerun).Run();
  EXPECT_EQ(golden, replayed);
  EXPECT_EQ(rerun.events, ExpectedTail(plain.events, epochs));
  EXPECT_EQ(replayed.journal.commits, 0u);
  EXPECT_EQ(replayed.journal.replayed_epochs, epochs);
}

TEST(DurableCampaignTest, MismatchedOptionsAreRejectedBeforeAnythingRuns) {
  TempDir dir("engine-mismatch");
  CampaignOptions options = StateOptions();
  options.state_dir = (dir.path() / "state").string();
  CampaignEngine("kvm", options).Run();

  options.seed = 8;
  try {
    CampaignEngine("kvm", options).Run();
    FAIL() << "expected a fingerprint mismatch";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("seed"), std::string::npos)
        << e.what();
  }
}

// Truncates the journal's commit point to `epochs` without touching the
// epoch files — the on-disk shape of a campaign killed right after that
// commit (stale later-epoch files included, exactly like a kill between
// an epoch-file write and its manifest advance).
void TruncateCommitPoint(const fs::path& state, size_t epochs) {
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(state / "MANIFEST", &bytes));
  CampaignManifestRecord manifest;
  ASSERT_TRUE(wire::Decode(bytes.data(), bytes.size(), &manifest));
  manifest.committed_epochs = epochs;
  WriteRaw(state / "MANIFEST", wire::Encode(manifest));
}

TEST(DurableCampaignTest, TrimmedJournalResumesAcrossShardModes) {
  TempDir dir("engine-trim");
  CampaignOptions options = StateOptions();
  options.state_dir = (dir.path() / "state").string();

  EventRecorder full;
  const EngineResult golden =
      CampaignEngine("kvm", options).AddObserver(&full).Run();

  // Rewind the commit point to one epoch and resume under a different
  // transport: it is not part of the fingerprint, because results are
  // invariant to it.
  TruncateCommitPoint(options.state_dir, 1);
  options.shard_mode = ShardMode::kProcesses;
  EventRecorder resumed;
  const EngineResult result =
      CampaignEngine("kvm", options).AddObserver(&resumed).Run();

  EXPECT_EQ(golden, result);
  EXPECT_EQ(resumed.events, ExpectedTail(full.events, 1));
  EXPECT_EQ(result.journal.replayed_epochs, 1u);
  EXPECT_EQ(result.journal.commits, golden.merged.series.size() - 1);
}

// Runs one journaling campaign in a forked child that SIGKILLs itself
// from inside the sample callback at `kill_epoch` (events fire after the
// epoch's commit, so the journal holds exactly kill_epoch + 1 epochs),
// then asserts the parent-side resume reproduces the uninterrupted run
// bit for bit, events included.
void RunKillResumeTest(ShardMode mode, const std::string& tag) {
  TempDir dir("engine-kill-" + tag);
  CampaignOptions options = StateOptions();
  options.shard_mode = mode;

  EventRecorder plain;
  const EngineResult golden =
      CampaignEngine("kvm", options).AddObserver(&plain).Run();

  options.state_dir = (dir.path() / "state").string();
  constexpr size_t kKillEpoch = 1;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: die mid-campaign, after epoch kKillEpoch committed. No gtest
    // here — asserting happens in the parent; a child that survives to
    // _exit(1) fails the WIFSIGNALED check below.
    class KillerObserver : public CampaignObserver {
     public:
      void OnSample(const SampleEvent& event) override {
        if (event.epoch == kKillEpoch) {
          ::raise(SIGKILL);
        }
      }
    } killer;
    try {
      CampaignEngine("kvm", options).AddObserver(&killer).Run();
    } catch (...) {
    }
    ::_exit(1);
  }

  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with " << status;
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // Resume in this process: replay the committed prefix, run the rest.
  EventRecorder resumed;
  const EngineResult result =
      CampaignEngine("kvm", options).AddObserver(&resumed).Run();

  EXPECT_EQ(golden, result);
  // The event stream continues exactly where the dead incarnation's
  // commits stopped: interrupted prefix + this tail = the plain stream.
  EXPECT_EQ(resumed.events, ExpectedTail(plain.events, kKillEpoch + 1));
  EXPECT_EQ(result.journal.replayed_epochs, kKillEpoch + 1);
  EXPECT_EQ(result.journal.commits,
            golden.merged.series.size() - (kKillEpoch + 1));
  EXPECT_EQ(result.journal.committed_epochs, golden.merged.series.size());
}

TEST(DurableCampaignTest, Kill9ThenResumeIsBitExactWithThreadShards) {
  RunKillResumeTest(ShardMode::kThreads, "threads");
}

TEST(DurableCampaignTest, Kill9ThenResumeIsBitExactWithProcessShards) {
  RunKillResumeTest(ShardMode::kProcesses, "processes");
}

// --- Engine-level snapshot resume ----------------------------------------

// The snapshot variant of RunKillResumeTest: a campaign with a snapshot
// cadence is SIGKILLed after `kKillEpoch` commits, and the resumed
// incarnation must load the newest materialized snapshot and replay only
// the tail between the horizon and the commit point — while still
// producing the uninterrupted run's results and event stream bit for bit.
void RunSnapshotKillResumeTest(ShardMode mode, size_t cadence,
                               const std::string& tag) {
  TempDir dir("engine-snap-" + tag);
  CampaignOptions options = StateOptions();
  options.shard_mode = mode;

  EventRecorder plain;
  const EngineResult golden =
      CampaignEngine("kvm", options).AddObserver(&plain).Run();
  const size_t epochs = golden.merged.series.size();

  options.state_dir = (dir.path() / "state").string();
  options.snapshot_every_epochs = cadence;
  constexpr size_t kKillEpoch = 1;

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    class KillerObserver : public CampaignObserver {
     public:
      void OnSample(const SampleEvent& event) override {
        if (event.epoch == kKillEpoch) {
          ::raise(SIGKILL);
        }
      }
    } killer;
    try {
      CampaignEngine("kvm", options).AddObserver(&killer).Run();
    } catch (...) {
    }
    ::_exit(1);
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with " << status;
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The dead incarnation committed kKillEpoch + 1 epochs; its newest
  // snapshot horizon is the largest cadence multiple at or below that.
  const size_t committed = kKillEpoch + 1;
  const size_t horizon = cadence == 0 ? 0 : committed - committed % cadence;

  EventRecorder resumed;
  const EngineResult result =
      CampaignEngine("kvm", options).AddObserver(&resumed).Run();

  EXPECT_EQ(golden, result);
  EXPECT_EQ(resumed.events, ExpectedTail(plain.events, committed));
  EXPECT_EQ(result.journal.replayed_epochs, committed - horizon);
  EXPECT_EQ(result.journal.commits, epochs - committed);
  EXPECT_EQ(result.journal.committed_epochs, epochs);
  EXPECT_EQ(result.journal.snapshot_epochs,
            cadence == 0 ? 0 : epochs - epochs % cadence);
}

TEST(DurableCampaignTest, SnapshotResumeReplaysOnlyTheTailWithThreadShards) {
  RunSnapshotKillResumeTest(ShardMode::kThreads, 1, "threads");
}

TEST(DurableCampaignTest, SnapshotResumeReplaysOnlyTheTailWithProcessShards) {
  RunSnapshotKillResumeTest(ShardMode::kProcesses, 1, "processes");
}

TEST(DurableCampaignTest, SnapshotResumeReplaysOnlyTheTailWithSocketShards) {
  RunSnapshotKillResumeTest(ShardMode::kSockets, 1, "sockets");
}

TEST(DurableCampaignTest, OversizedCadenceFallsBackToFullReplay) {
  // A cadence longer than the committed prefix never materialized a
  // snapshot, so resume degrades to exactly the pre-snapshot behavior.
  RunSnapshotKillResumeTest(ShardMode::kThreads, 7, "cadence7");
}

TEST(DurableCampaignTest, CadenceMayChangeBetweenIncarnations) {
  TempDir dir("engine-cadence");
  CampaignOptions options = StateOptions();

  EventRecorder plain;
  const EngineResult golden =
      CampaignEngine("kvm", options).AddObserver(&plain).Run();
  const size_t epochs = golden.merged.series.size();

  options.state_dir = (dir.path() / "state").string();
  options.snapshot_every_epochs = 1;
  const EngineResult first = CampaignEngine("kvm", options).Run();
  EXPECT_EQ(golden, first);
  EXPECT_EQ(first.journal.snapshot_epochs, epochs);
  EXPECT_EQ(first.journal.snapshots, epochs);

  // The cadence, like shard_mode, is not part of the fingerprint: the
  // same state dir reopens under a different one. The whole campaign is
  // materialized, so the rerun deserializes the final snapshot and
  // replays nothing at all.
  options.snapshot_every_epochs = 0;
  EventRecorder rerun;
  const EngineResult resumed =
      CampaignEngine("kvm", options).AddObserver(&rerun).Run();
  EXPECT_EQ(golden, resumed);
  EXPECT_EQ(rerun.events, ExpectedTail(plain.events, epochs));
  EXPECT_EQ(resumed.journal.replayed_epochs, 0u);
  EXPECT_EQ(resumed.journal.commits, 0u);
}

uint64_t FileFnv1a(const fs::path& path) {
  std::vector<uint8_t> bytes;
  EXPECT_TRUE(ReadFileBytes(path, &bytes)) << path;
  uint64_t hash = 0xCBF29CE484222325ULL;
  for (uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

TEST(DurableCampaignTest, SnapshotFileBytesArePinned) {
  // Resume equality only shows a snapshot is self-consistent; this pins
  // its bytes — the merged pool slice and feedback novelty the fold keeps
  // for the last epoch included — in thread and process mode alike.
  const std::map<std::string, uint64_t> expected = {
      {SnapshotFileName(2), 0x019AF0C3CD643879ULL},
  };
  for (ShardMode mode : {ShardMode::kThreads, ShardMode::kProcesses}) {
    const std::string tag = mode == ShardMode::kThreads ? "threads" : "procs";
    TempDir dir("engine-snapbytes-" + tag);
    CampaignOptions options = StateOptions();
    options.shard_mode = mode;
    options.state_dir = (dir.path() / "state").string();
    options.snapshot_every_epochs = 2;
    CampaignEngine("kvm", options).Run();
    std::map<std::string, uint64_t> hashes;
    for (const fs::directory_entry& entry :
         fs::directory_iterator(options.state_dir)) {
      const std::string name = entry.path().filename().string();
      if (name.rfind("snapshot-", 0) == 0) {
        hashes[name] = FileFnv1a(entry.path());
      }
    }
    EXPECT_EQ(hashes, expected) << tag;
  }
}

TEST(DurableCampaignTest, CorruptNewestSnapshotFallsBackOneGeneration) {
  TempDir dir("engine-snapfall");
  CampaignOptions options = StateOptions();

  EventRecorder plain;
  const EngineResult golden =
      CampaignEngine("kvm", options).AddObserver(&plain).Run();
  const size_t epochs = golden.merged.series.size();

  options.state_dir = (dir.path() / "state").string();
  options.snapshot_every_epochs = 1;
  CampaignEngine("kvm", options).Run();

  // Retention after the final commit: one fallback generation (the
  // previous snapshot plus the epochs from it forward), nothing older.
  const fs::path state = options.state_dir;
  EXPECT_FALSE(fs::exists(state / CampaignJournal::EpochFileName(0)));
  EXPECT_FALSE(fs::exists(state / SnapshotFileName(1)));
  EXPECT_TRUE(fs::exists(state / SnapshotFileName(epochs - 1)));
  EXPECT_TRUE(fs::exists(state / SnapshotFileName(epochs)));
  EXPECT_TRUE(fs::exists(state / CampaignJournal::EpochFileName(epochs - 1)));

  // Flip a byte in the newest snapshot: resume costs one generation —
  // the previous snapshot plus a one-epoch replay — not a failure and
  // not a divergence.
  const fs::path newest = state / SnapshotFileName(epochs);
  std::vector<uint8_t> bytes;
  ASSERT_TRUE(ReadFileBytes(newest, &bytes));
  bytes[bytes.size() / 2] ^= 0x20;
  WriteRaw(newest, bytes);

  EventRecorder rerun;
  const EngineResult resumed =
      CampaignEngine("kvm", options).AddObserver(&rerun).Run();
  EXPECT_EQ(golden, resumed);
  EXPECT_EQ(rerun.events, ExpectedTail(plain.events, epochs));
  EXPECT_EQ(resumed.journal.replayed_epochs, 1u);
  EXPECT_EQ(resumed.journal.commits, 0u);
}

}  // namespace
}  // namespace neco
