// The durable-write primitive under NecoFuzz's crash-consistent state
// (TxFS-style transactional journaling): write to a temp file, fsync the
// file, atomically rename it into place, then fsync the parent directory
// so the rename itself is durable. A state transition built out of this
// primitive either happened atomically and durably, or it didn't happen
// at all — a reader after power loss or kill -9 sees the old contents or
// the new contents, never a torn mix, and never a renamed file whose
// bytes were lost.
//
// CampaignJournal (journal.h) and CrashStore (src/core/repro) build every
// on-disk mutation out of AtomicWriteFile and read every file through
// ReadFileBytes; this is the one file of the state layer that opens one.
//
// The journal's epoch files and snapshot files share one format, the
// sealed frame list:
//
//   frame 0 .. N-1   wire frames (src/core/wire.h)
//   trailer          EpochCommitRecord: the last epoch the file covers,
//                    N, and an FNV-1a 64 checksum over frames 0 .. N-1
//
// SealFrames writes it and OpenSealedFile reads it, for both kinds.
#ifndef SRC_CORE_STATE_COMMIT_H_
#define SRC_CORE_STATE_COMMIT_H_

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

#include "src/core/wire.h"

namespace neco {

// Durability accounting for the commit primitive; EngineResult surfaces
// the journal's accumulated totals.
struct CommitStats {
  uint64_t files = 0;          // Atomic writes completed.
  uint64_t bytes = 0;          // Payload bytes durably written.
  double fsync_seconds = 0.0;  // Wall time spent in fsync (file + dir).
};

// Atomically and durably replaces `path` with `size` bytes of `data`
// (temp file `<path>.tmp` → fsync → rename → fsync parent directory).
// Returns false and fills `*error` (errno text, path) on any failure; the
// temp file is removed on the failure paths that created it. `stats` (may
// be null) accumulates the write.
bool AtomicWriteFile(const std::filesystem::path& path, const uint8_t* data,
                     size_t size, std::string* error,
                     CommitStats* stats = nullptr);

// Reads a whole file; returns false (and clears `*out`, with errno set)
// when the file cannot be opened or read.
bool ReadFileBytes(const std::filesystem::path& path,
                   std::vector<uint8_t>* out);

// The file image of `frames` sealed by their trailer (see above).
wire::Buffer SealFrames(uint64_t epoch,
                        const std::vector<wire::Buffer>& frames);

// A sealed file opened in place: its trailer's epoch, and each frame
// before the trailer as a view into the bytes it was opened from.
struct SealedFile {
  uint64_t epoch = 0;
  std::vector<std::span<const uint8_t>> frames;
};

// Cuts the frames, decodes the trailer, and checks the frame count and
// the checksum. Returns false on any tear or damage; the frames
// themselves are left for the caller to decode.
bool OpenSealedFile(const uint8_t* data, size_t size, SealedFile* out);

}  // namespace neco

#endif  // SRC_CORE_STATE_COMMIT_H_
