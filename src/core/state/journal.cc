#include "src/core/state/journal.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>

#include "src/support/errno_util.h"

namespace neco {
namespace {

// Parses "<prefix><decimal><suffix>" (an epoch or snapshot file name)
// into its number; false for anything else, including a bare or
// non-numeric middle, so stray files in the state dir are never touched.
bool ParseIndexedName(const std::string& name, const std::string& prefix,
                      const std::string& suffix, size_t* out) {
  if (name.size() <= prefix.size() + suffix.size() ||
      name.compare(0, prefix.size(), prefix) != 0 ||
      name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return false;
  }
  size_t value = 0;
  for (size_t i = prefix.size(); i < name.size() - suffix.size(); ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<size_t>(c - '0');
  }
  *out = value;
  return true;
}

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// The fingerprint is the whole CampaignSpec: every field must match. The
// manifest's commit fields are not part of it.
std::string FingerprintMismatch(const CampaignSpec& disk,
                                const CampaignSpec& run) {
  const std::pair<const char*, bool> fields[] = {
      {"epochs", disk.epochs != run.epochs},
      {"workers", disk.workers != run.workers},
      {"samples", disk.samples != run.samples},
      {"arch", disk.arch != run.arch},
      {"iterations", disk.iterations != run.iterations},
      {"seed", disk.seed != run.seed},
      {"corpus_sync", disk.corpus_sync != run.corpus_sync},
      {"coverage_guidance", disk.coverage_guidance != run.coverage_guidance},
      {"havoc_stack", disk.havoc_stack != run.havoc_stack},
      {"splice_percent", disk.splice_percent != run.splice_percent},
      {"use_harness", disk.use_harness != run.use_harness},
      {"use_validator", disk.use_validator != run.use_validator},
      {"use_configurator", disk.use_configurator != run.use_configurator},
      {"oracle_interval", disk.oracle_interval != run.oracle_interval},
      {"target", disk.target != run.target},
  };
  for (const auto& [name, differs] : fields) {
    if (differs) {
      return "fingerprint mismatch (" + std::string(name) + ")";
    }
  }
  // A field the list above does not name still refuses the directory.
  return disk == run ? std::string() : "fingerprint mismatch";
}

// Reads and strictly decodes dir/MANIFEST: nullopt for a fresh
// directory; throws on a corrupt file or another format version.
std::optional<CampaignManifestRecord> ReadManifestFile(
    const std::filesystem::path& dir) {
  const std::filesystem::path path = dir / "MANIFEST";
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) {
    return std::nullopt;
  }
  std::vector<uint8_t> bytes;
  CampaignManifestRecord disk;
  const bool read = ReadFileBytes(path, &bytes);
  // A manifest frame ([u8 type][u8 version]...) from another format
  // version is not damage: name the version, so the operator knows the
  // state dir needs the build that wrote it.
  wire::RecordType type;
  if (read && wire::PeekType(bytes.data(), bytes.size(), &type) &&
      type == wire::RecordType::kManifest && bytes[1] != wire::kVersion) {
    throw std::runtime_error(
        "CampaignJournal: " + path.string() + " was written in wire format v" +
        std::to_string(bytes[1]) + ", but this build reads v" +
        std::to_string(wire::kVersion) +
        "; resume it with a build of that version, or use a fresh "
        "state_dir");
  }
  if (!read || !wire::Decode(bytes.data(), bytes.size(), &disk)) {
    throw std::runtime_error("CampaignJournal: corrupt manifest at " +
                             path.string());
  }
  return disk;
}

}  // namespace

CampaignJournal::CampaignJournal(std::filesystem::path dir,
                                 const CampaignSpec& spec)
    : dir_(std::move(dir)), manifest_{spec} {
  const std::optional<CampaignManifestRecord> disk = ReadManifestFile(dir_);
  if (disk.has_value()) {
    const std::string mismatch = FingerprintMismatch(*disk, spec);
    if (!mismatch.empty()) {
      throw std::runtime_error(
          "CampaignJournal: " + dir_.string() +
          " belongs to a different campaign: " + mismatch +
          "; use a fresh state_dir (or the original options) to resume");
    }
    committed_epochs_ = static_cast<size_t>(disk->committed_epochs);
    snapshot_epochs_ = static_cast<size_t>(disk->snapshot_epochs);
  }
  // Creating crashes/ creates the state dir itself on the way.
  const auto start = std::chrono::steady_clock::now();
  crash_store_ = CrashStore(dir_ / "crashes");
  stats_.reload_ns += ElapsedNs(start);
  if (!disk.has_value()) {
    // Stamp the fingerprint immediately: a directory is claimed by its
    // campaign at open, so even a run that dies before its first commit
    // rejects a mismatched resume.
    WriteManifest();
  }
}

void CampaignJournal::WriteManifest() {
  manifest_.committed_epochs = committed_epochs_;
  manifest_.snapshot_epochs = snapshot_epochs_;
  const wire::Buffer frame = wire::Encode(manifest_);
  std::string error;
  if (!AtomicWriteFile(ManifestPath(), frame.data(), frame.size(), &error,
                       &commit_stats_)) {
    throw std::runtime_error("CampaignJournal: " + error);
  }
}

void CampaignJournal::CommitEpoch(size_t epoch,
                                  const std::vector<wire::Buffer>& frames,
                                  EpochCommitRecord /*trailer*/,
                                  const CampaignSnapshot* snapshot) {
  if (epoch != committed_epochs_) {
    throw std::logic_error("CampaignJournal: commit for epoch " +
                           std::to_string(epoch) + " but commit point is " +
                           std::to_string(committed_epochs_));
  }
  if (snapshot != nullptr && snapshot->epochs_covered != epoch + 1) {
    throw std::logic_error(
        "CampaignJournal: snapshot covers " +
        std::to_string(snapshot->epochs_covered) +
        " epochs but the commit advances the point to " +
        std::to_string(epoch + 1));
  }
  const wire::Buffer file = SealFrames(epoch, frames);
  std::string error;
  if (!AtomicWriteFile(dir_ / EpochFileName(epoch), file.data(), file.size(),
                       &error, &commit_stats_)) {
    throw std::runtime_error("CampaignJournal: " + error);
  }
  if (snapshot != nullptr) {
    // The snapshot file is durable before the manifest names it; a kill
    // in between leaves an invisible file the next snapshot overwrites.
    const wire::Buffer image = EncodeSnapshotFile(*snapshot);
    if (!AtomicWriteFile(dir_ / SnapshotFileName(epoch + 1), image.data(),
                         image.size(), &error, &commit_stats_)) {
      throw std::runtime_error("CampaignJournal: " + error);
    }
  }
  // Only now — with the epoch (and snapshot) file durable — does the
  // commit point move; both cursors advance in one atomic manifest write.
  const size_t previous_horizon = snapshot_epochs_;
  ++committed_epochs_;
  if (snapshot != nullptr) {
    snapshot_epochs_ = epoch + 1;
  }
  WriteManifest();
  ++stats_.commits;
  if (snapshot != nullptr) {
    ++stats_.snapshots;
    // Retention: everything the *previous* horizon still needed is now
    // superseded twice over — delete it. Keeping one fallback generation
    // (snapshot-<previous>.state plus the epochs from it forward) means a
    // corrupt newest snapshot costs a shorter tail, not a full replay.
    CompactBelow(previous_horizon);
  }
}

void CampaignJournal::CompactBelow(size_t horizon) {
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir_, ec), end;
       !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    size_t index = 0;
    const bool epoch_file =
        ParseIndexedName(name, "epoch-", ".journal", &index) &&
        index < horizon;
    const bool snapshot_file =
        ParseIndexedName(name, "snapshot-", ".state", &index) &&
        index < horizon;
    if (!epoch_file && !snapshot_file) {
      continue;
    }
    std::error_code remove_ec;
    if (std::filesystem::remove(it->path(), remove_ec) && !remove_ec) {
      ++stats_.compacted_files;
    }
  }
}

size_t CampaignJournal::LoadLatestSnapshot(CampaignSnapshot* out) {
  const auto start = std::chrono::steady_clock::now();
  // Candidates: committed snapshot files at or below the manifest
  // horizon. Files above it exist only after a kill between the snapshot
  // write and the manifest advance — they were never the commit point, so
  // they are not trusted (the interrupted epoch recommits them).
  std::vector<size_t> horizons;
  std::error_code ec;
  for (std::filesystem::directory_iterator it(dir_, ec), end;
       !ec && it != end; it.increment(ec)) {
    size_t horizon = 0;
    if (ParseIndexedName(it->path().filename().string(), "snapshot-",
                         ".state", &horizon) &&
        horizon != 0 && horizon <= snapshot_epochs_) {
      horizons.push_back(horizon);
    }
  }
  std::sort(horizons.begin(), horizons.end(),
            [](size_t a, size_t b) { return a > b; });
  for (size_t horizon : horizons) {
    std::vector<uint8_t> bytes;
    CampaignSnapshot snapshot;
    if (!ReadFileBytes(dir_ / SnapshotFileName(horizon), &bytes) ||
        !DecodeSnapshotFile(bytes.data(), bytes.size(), &snapshot) ||
        snapshot.epochs_covered != horizon) {
      continue;  // Torn or damaged: fall back to the older generation.
    }
    *out = std::move(snapshot);
    stats_.reload_ns += ElapsedNs(start);
    return horizon;
  }
  stats_.reload_ns += ElapsedNs(start);
  return 0;
}

void CampaignJournal::VerifyEpoch(size_t epoch,
                                  const std::vector<wire::Buffer>& frames) {
  const std::filesystem::path path = dir_ / EpochFileName(epoch);
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(path, &bytes)) {
    // An I/O problem, not a divergence: surface the errno so the operator
    // can tell the two apart.
    throw std::runtime_error("CampaignJournal: cannot read " + path.string() +
                             ": " + SafeStrerror(errno));
  }
  SealedFile file;
  if (!OpenSealedFile(bytes.data(), bytes.size(), &file) ||
      file.epoch != epoch) {
    throw std::runtime_error("CampaignJournal: torn or corrupt epoch file " +
                             path.string());
  }
  if (file.frames.size() != frames.size()) {
    throw std::runtime_error(
        "CampaignJournal: epoch " + std::to_string(epoch) + " replayed " +
        std::to_string(frames.size()) + " deltas but the journal committed " +
        std::to_string(file.frames.size()));
  }
  for (size_t shard = 0; shard < frames.size(); ++shard) {
    if (!std::equal(file.frames[shard].begin(), file.frames[shard].end(),
                    frames[shard].begin(), frames[shard].end())) {
      throw std::runtime_error(
          "CampaignJournal: resume divergence at epoch " +
          std::to_string(epoch) + ", shard " + std::to_string(shard) +
          " — the state dir was produced by a different campaign or binary");
    }
  }
  ++stats_.replayed_epochs;
}

bool CampaignJournal::SaveCrashArtifact(CrashArtifactRecord record) {
  const bool fresh = crash_store_.Save(std::move(record));
  if (fresh) {
    ++stats_.crash_artifacts;
  }
  return fresh;
}

JournalStats CampaignJournal::stats() const {
  JournalStats out = stats_;
  out.bytes_written = commit_stats_.bytes;
  out.fsync_seconds = commit_stats_.fsync_seconds;
  out.committed_epochs = committed_epochs_;
  out.snapshot_epochs = snapshot_epochs_;
  return out;
}

}  // namespace neco
