#include "src/core/state/snapshot.h"

#include <utility>

#include "src/core/state/commit.h"

namespace neco {

std::string SnapshotFileName(size_t horizon) {
  return "snapshot-" + std::to_string(horizon) + ".state";
}

wire::Buffer EncodeSnapshotFile(const CampaignSnapshot& snapshot) {
  std::vector<wire::Buffer> frames;
  frames.reserve(1 + snapshot.workers.size());
  frames.push_back(wire::Encode(snapshot.merged));
  for (const WorkerStateRecord& worker : snapshot.workers) {
    frames.push_back(wire::Encode(worker));
  }
  // Sealed with the last epoch it covers, as the epoch file beside it is.
  return SealFrames(snapshot.epochs_covered - 1, frames);
}

bool DecodeSnapshotFile(const uint8_t* data, size_t size,
                        CampaignSnapshot* out) {
  SealedFile file;
  if (!OpenSealedFile(data, size, &file) || file.frames.empty()) {
    return false;  // At least the merged record.
  }
  CampaignSnapshot snapshot;
  snapshot.epochs_covered = file.epoch + 1;
  if (!wire::Decode(file.frames[0].data(), file.frames[0].size(),
                    &snapshot.merged) ||
      snapshot.merged.epochs_covered != snapshot.epochs_covered) {
    return false;
  }
  snapshot.workers.resize(file.frames.size() - 1);
  for (size_t w = 0; w < snapshot.workers.size(); ++w) {
    WorkerStateRecord& worker = snapshot.workers[w];
    if (!wire::Decode(file.frames[w + 1].data(), file.frames[w + 1].size(),
                      &worker) ||
        worker.worker != static_cast<int>(w) ||
        worker.epochs_covered != snapshot.epochs_covered) {
      return false;
    }
  }
  *out = std::move(snapshot);
  return true;
}

}  // namespace neco
