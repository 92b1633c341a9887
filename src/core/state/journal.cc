#include "src/core/state/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <stdexcept>
#include <utility>

#include "src/support/errno_util.h"

namespace neco {
namespace {

// FNV-1a 64: cheap, endian-free, and deterministic across hosts — all an
// integrity check over already-strictly-decoded frames needs.
uint64_t Fnv1a(uint64_t hash, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

uint64_t ChecksumFrames(const std::vector<wire::Buffer>& frames) {
  uint64_t hash = kFnvOffset;
  for (const wire::Buffer& frame : frames) {
    hash = Fnv1a(hash, frame.data(), frame.size());
  }
  return hash;
}

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

}  // namespace

std::optional<CampaignManifestRecord> CampaignJournal::ReadManifestFile(
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

CampaignJournal::CampaignJournal(std::filesystem::path dir,
                                 const CampaignSpec& spec)
    : dir_(std::move(dir)),
      manifest_{spec},
      // The manifest is read before the crash store constructs so the
      // store can take the committed artifact count as its reload hint
      // (0 skips the directory scan outright).
      disk_manifest_(ReadManifestFile(dir_)),
      // Creating crashes/ creates the state dir itself on the way.
      crash_store_(dir_ / "crashes",
                   disk_manifest_.has_value()
                       ? std::optional<uint64_t>(disk_manifest_->crash_artifacts)
                       : std::nullopt) {
  stats_.reload_ns += crash_store_.reload_ns();
  if (disk_manifest_.has_value()) {
    const std::string mismatch = FingerprintMismatch(*disk_manifest_, spec);
    if (!mismatch.empty()) {
      throw std::runtime_error(
          "CampaignJournal: " + dir_.string() +
          " belongs to a different campaign: " + mismatch +
          "; use a fresh state_dir (or the original options) to resume");
    }
    committed_epochs_ = static_cast<size_t>(disk_manifest_->committed_epochs);
    snapshot_epochs_ = static_cast<size_t>(disk_manifest_->snapshot_epochs);
    manifest_.committed_epochs = disk_manifest_->committed_epochs;
    manifest_.snapshot_epochs = disk_manifest_->snapshot_epochs;
    manifest_.crash_artifacts = disk_manifest_->crash_artifacts;
    disk_manifest_.reset();
  } else {
    // Stamp the fingerprint immediately: a directory is claimed by its
    // campaign at open, so even a run that dies before its first commit
    // rejects a mismatched resume.
    WriteManifest();
  }
}

void CampaignJournal::WriteManifest() {
  manifest_.committed_epochs = committed_epochs_;
  manifest_.snapshot_epochs = snapshot_epochs_;
  manifest_.crash_artifacts = crash_store_.records().size();
  const wire::Buffer frame = wire::Encode(manifest_);
  std::string error;
  if (!AtomicWriteFile(ManifestPath(), frame.data(), frame.size(), &error,
                       &commit_stats_)) {
    throw std::runtime_error("CampaignJournal: " + error);
  }
}

void CampaignJournal::CommitEpoch(size_t epoch,
                                  const std::vector<wire::Buffer>& frames,
                                  EpochCommitRecord summary,
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
  summary.epoch = epoch;
  summary.workers = static_cast<int>(frames.size());
  summary.checksum = ChecksumFrames(frames);
  wire::Buffer file;
  for (const wire::Buffer& frame : frames) {
    file.insert(file.end(), frame.begin(), frame.end());
  }
  const wire::Buffer trailer = wire::Encode(summary);
  file.insert(file.end(), trailer.begin(), trailer.end());
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
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw std::runtime_error("CampaignJournal: cannot open " + path.string() +
                             ": " + SafeStrerror(errno));
  }
  // Stream the committed file in fixed chunks: each chunk is compared in
  // place against the re-published frames and folded into a running
  // FNV-1a, so the file is never buffered whole — only the trailer (and,
  // on a frame-count mismatch, the excess tail) accumulates.
  auto divergence = [&](size_t shard) {
    ::close(fd);
    return std::runtime_error(
        "CampaignJournal: resume divergence at epoch " +
        std::to_string(epoch) + ", shard " + std::to_string(shard) +
        " — the state dir was produced by a different campaign or binary");
  };
  uint64_t checksum = kFnvOffset;
  size_t frame_index = 0;
  size_t frame_offset = 0;
  std::vector<uint8_t> chunk(64 * 1024);
  std::vector<uint8_t> tail;  // Bytes past the last re-published frame.
  while (true) {
    const ssize_t n = ::read(fd, chunk.data(), chunk.size());
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      // A failing read mid-verify is an I/O problem, not a divergence:
      // surface the errno so the operator can tell the two apart.
      const std::string detail = SafeStrerror(errno);
      ::close(fd);
      throw std::runtime_error("CampaignJournal: short read on " +
                               path.string() + ": " + detail);
    }
    if (n == 0) {
      break;
    }
    size_t pos = 0;
    const size_t got = static_cast<size_t>(n);
    while (pos < got && frame_index < frames.size()) {
      const wire::Buffer& frame = frames[frame_index];
      const size_t take = std::min(got - pos, frame.size() - frame_offset);
      if (!std::equal(chunk.begin() + static_cast<ptrdiff_t>(pos),
                      chunk.begin() + static_cast<ptrdiff_t>(pos + take),
                      frame.begin() + static_cast<ptrdiff_t>(frame_offset))) {
        throw divergence(frame_index);
      }
      checksum = Fnv1a(checksum, chunk.data() + pos, take);
      pos += take;
      frame_offset += take;
      if (frame_offset == frame.size()) {
        ++frame_index;
        frame_offset = 0;
      }
    }
    tail.insert(tail.end(), chunk.begin() + static_cast<ptrdiff_t>(pos),
                chunk.begin() + static_cast<ptrdiff_t>(got));
  }
  ::close(fd);
  if (frame_index < frames.size()) {
    // The file ended inside the re-published frames: fewer committed
    // deltas than replayed ones (or a torn file — either way, not ours).
    throw std::runtime_error(
        "CampaignJournal: epoch " + std::to_string(epoch) + " replayed " +
        std::to_string(frames.size()) +
        " deltas but the journal committed fewer: torn or foreign file " +
        path.string());
  }
  // The tail must be frames too: zero or more excess committed deltas
  // (a worker-count mismatch) and then exactly the commit record.
  size_t committed = frames.size();
  size_t pos = 0;
  size_t trailer_pos = 0;
  while (pos < tail.size()) {
    size_t frame_size = 0;
    if (!wire::FrameSize(tail.data() + pos, tail.size() - pos, &frame_size) ||
        frame_size > tail.size() - pos) {
      throw std::runtime_error("CampaignJournal: torn epoch file " +
                               path.string());
    }
    trailer_pos = pos;
    pos += frame_size;
    ++committed;
  }
  EpochCommitRecord summary;
  if (committed == frames.size() ||
      !wire::Decode(tail.data() + trailer_pos, tail.size() - trailer_pos,
                    &summary)) {
    throw std::runtime_error(
        "CampaignJournal: epoch file missing its commit record: " +
        path.string());
  }
  --committed;  // The trailer is not a delta.
  if (committed != frames.size()) {
    throw std::runtime_error(
        "CampaignJournal: epoch " + std::to_string(epoch) + " replayed " +
        std::to_string(frames.size()) + " deltas but the journal committed " +
        std::to_string(committed));
  }
  if (summary.epoch != epoch ||
      summary.workers != static_cast<int>(frames.size()) ||
      summary.checksum != checksum) {
    throw std::runtime_error("CampaignJournal: corrupt epoch file " +
                             path.string());
  }
  ++stats_.replayed_epochs;
}

bool CampaignJournal::SaveCrashArtifact(const CrashRecord& record) {
  const bool fresh = crash_store_.Save(record);
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
