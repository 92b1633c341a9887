// Materialized campaign snapshots — the O(tail) side of resume.
//
// A snapshot file (snapshot-<horizon>.state under the state dir) holds
// the complete merged campaign state at an epoch boundary, so a resumed
// campaign deserializes it and replays only the epochs past the horizon
// instead of re-executing the whole history. It is a sealed frame list
// (src/core/state/commit.h), the format of an epoch file too:
//
//   frame 0      SnapshotMergedStateRecord — the merge pipeline's global
//                state (virgin map, covered set, findings, corpus pool
//                slice, series, feedback bookkeeping)
//   frame 1..W   one WorkerStateRecord per shard, worker-id order
//   trailer      EpochCommitRecord — epoch horizon-1 (the last one the
//                file covers), W + 1 frames, and their FNV-1a checksum
//
// DecodeSnapshotFile() opens it with the sealed-file reader, so a torn,
// truncated, or damaged file is rejected outright, and the journal falls
// back — older snapshot generation first, full replay last. A snapshot
// is committed through AtomicWriteFile and only becomes load-bearing when
// the MANIFEST's snapshot_epochs advances past it, so a kill
// mid-snapshot leaves the previous commit point fully intact.
#ifndef SRC_CORE_STATE_SNAPSHOT_H_
#define SRC_CORE_STATE_SNAPSHOT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/wire.h"

namespace neco {

// The in-memory form of one snapshot file: everything a campaign needs to
// continue bit-exactly from `epochs_covered` committed epochs.
struct CampaignSnapshot {
  uint64_t epochs_covered = 0;  // The horizon: epochs [0, epochs_covered)
                                // are materialized here.
  SnapshotMergedStateRecord merged;
  std::vector<WorkerStateRecord> workers;  // Worker-id order.
};

// "snapshot-<horizon>.state".
std::string SnapshotFileName(size_t horizon);

// Serializes the snapshot into one sealed file image. The caller makes it
// durable through AtomicWriteFile.
wire::Buffer EncodeSnapshotFile(const CampaignSnapshot& snapshot);

// Strict inverse: opens the sealed file, decodes every record, checks
// each record's horizon and worker id against the seal and the frame
// position, and fills `*out`. Returns false — never throws — on any tear
// or corruption: an unreadable snapshot is a recoverable condition
// (resume falls back), not an error.
bool DecodeSnapshotFile(const uint8_t* data, size_t size,
                        CampaignSnapshot* out);

}  // namespace neco

#endif  // SRC_CORE_STATE_SNAPSHOT_H_
