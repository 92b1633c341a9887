#include "src/core/state/commit.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <utility>

#include "src/support/errno_util.h"

namespace neco {
namespace {

using Clock = std::chrono::steady_clock;

std::string ErrnoText(const std::string& what,
                      const std::filesystem::path& path, int err) {
  return what + " " + path.string() + ": " + SafeStrerror(err);
}

// FNV-1a 64: cheap, endian-free and deterministic across hosts, which is
// all a seal over strictly decoded frames needs.
constexpr uint64_t kFnvOffset = 14695981039346656037ULL;

uint64_t Fnv1a(uint64_t hash, const uint8_t* data, size_t size) {
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

// Fsync under timing; EINTR-retried like the write loop below.
bool FsyncFd(int fd, CommitStats* stats) {
  const auto start = Clock::now();
  int rc;
  do {
    rc = ::fsync(fd);
  } while (rc != 0 && errno == EINTR);
  if (stats != nullptr) {
    stats->fsync_seconds +=
        std::chrono::duration<double>(Clock::now() - start).count();
  }
  return rc == 0;
}

}  // namespace

bool AtomicWriteFile(const std::filesystem::path& path, const uint8_t* data,
                     size_t size, std::string* error, CommitStats* stats) {
  const std::filesystem::path tmp = path.string() + ".tmp";
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                        0644);
  if (fd < 0) {
    if (error != nullptr) *error = ErrnoText("open", tmp, errno);
    return false;
  }
  size_t written = 0;
  while (written < size) {
    const ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      if (error != nullptr) *error = ErrnoText("write", tmp, err);
      return false;
    }
    written += static_cast<size_t>(n);
  }
  if (!FsyncFd(fd, stats)) {
    const int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    if (error != nullptr) *error = ErrnoText("fsync", tmp, err);
    return false;
  }
  if (::close(fd) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    if (error != nullptr) *error = ErrnoText("close", tmp, err);
    return false;
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    if (error != nullptr) *error = ErrnoText("rename", tmp, err);
    return false;
  }
  // The rename is only durable once the directory entry is; without this
  // fsync a crash can resurrect the old file (or neither).
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path()
                             : std::filesystem::path(".");
  const int dir_fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (dir_fd < 0) {
    if (error != nullptr) *error = ErrnoText("open dir", dir, errno);
    return false;
  }
  if (!FsyncFd(dir_fd, stats)) {
    const int err = errno;
    ::close(dir_fd);
    if (error != nullptr) *error = ErrnoText("fsync dir", dir, err);
    return false;
  }
  ::close(dir_fd);
  if (stats != nullptr) {
    ++stats->files;
    stats->bytes += size;
  }
  return true;
}

bool ReadFileBytes(const std::filesystem::path& path,
                   std::vector<uint8_t>* out) {
  out->clear();
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return false;
  }
  uint8_t chunk[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      const int err = errno;
      ::close(fd);
      out->clear();
      errno = err;
      return false;
    }
    if (n == 0) {
      break;
    }
    out->insert(out->end(), chunk, chunk + n);
  }
  ::close(fd);
  return true;
}

wire::Buffer SealFrames(uint64_t epoch,
                        const std::vector<wire::Buffer>& frames) {
  EpochCommitRecord trailer;
  trailer.epoch = epoch;
  trailer.frames = static_cast<uint32_t>(frames.size());
  trailer.checksum = kFnvOffset;
  size_t total = 0;
  for (const wire::Buffer& frame : frames) {
    trailer.checksum = Fnv1a(trailer.checksum, frame.data(), frame.size());
    total += frame.size();
  }
  const wire::Buffer seal = wire::Encode(trailer);
  wire::Buffer file;
  file.reserve(total + seal.size());
  for (const wire::Buffer& frame : frames) {
    file.insert(file.end(), frame.begin(), frame.end());
  }
  file.insert(file.end(), seal.begin(), seal.end());
  return file;
}

bool OpenSealedFile(const uint8_t* data, size_t size, SealedFile* out) {
  // Cut frames by their headers alone: a header that does not fit, a
  // length past the end of the file, or trailing garbage rejects it.
  std::vector<std::span<const uint8_t>> frames;
  size_t pos = 0;
  while (pos < size) {
    size_t frame_size = 0;
    if (!wire::FrameSize(data + pos, size - pos, &frame_size) ||
        frame_size > size - pos) {
      return false;
    }
    frames.emplace_back(data + pos, frame_size);
    pos += frame_size;
  }
  EpochCommitRecord trailer;
  if (frames.empty() ||
      !wire::Decode(frames.back().data(), frames.back().size(), &trailer)) {
    return false;
  }
  frames.pop_back();
  // The seal must account for exactly the frames present, and their bytes
  // must hash to it: a truncated-then-repadded or spliced file fails here
  // even when each surviving frame decodes cleanly.
  uint64_t checksum = kFnvOffset;
  for (const std::span<const uint8_t> frame : frames) {
    checksum = Fnv1a(checksum, frame.data(), frame.size());
  }
  if (trailer.frames != frames.size() || trailer.checksum != checksum) {
    return false;
  }
  out->epoch = trailer.epoch;
  out->frames = std::move(frames);
  return true;
}

}  // namespace neco
