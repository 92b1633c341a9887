// Durable-state resume bench: wall-time and bytes replayed for resuming
// an interrupted campaign, snapshot-anchored (snapshot_every_epochs=10)
// against replay-only (the pre-snapshot protocol), on the same campaign.
//
// Procedure (fixed seed, bit-reproducible):
//  1. run the uninterrupted golden campaign (no state_dir),
//  2. run it journaled twice — once with a snapshot cadence, once
//     replay-only — then rewind each MANIFEST's commit point to 5 epochs
//     before the end: the exact on-disk shape of a campaign SIGKILLed
//     right after that commit (stale later-epoch files included),
//  3. time the resume of each directory. The snapshot resume replays
//     only the tail between the horizon and the commit point; the
//     replay-only resume re-executes the whole committed prefix, so the
//     gap grows linearly with campaign length.
//
// The determinism contract is measured, not assumed: the snapshot resume
// is repeated under thread, process, and socket shards (from copies of
// the same state dir) and each EngineResult is compared against the
// golden run — the bit_identical_shard_modes metric is the count that
// matched (0 when the replay-only resume diverged), and the bench exits
// 1 unless all three modes and the replay-only resume matched.
//
// `--smoke` shrinks the campaign for CI; `--json=PATH` writes the
// schema_version-1 result file diffed against the checked-in
// BENCH_state.json.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/engine.h"
#include "src/core/state/commit.h"
#include "src/core/state/journal.h"
#include "src/core/state/snapshot.h"
#include "src/core/wire.h"

namespace neco {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// The benched campaign: `epochs` epochs of 40 iterations per worker,
// corpus-synced and coverage-guided so the snapshot carries every state
// section (corpus, virgin maps, quirk tables, crash artifacts).
CampaignOptions BenchOptions(size_t epochs) {
  CampaignOptions options;
  options.arch = Arch::kAmd;
  options.workers = 2;
  options.samples = static_cast<int>(epochs);
  options.iterations = 2 * 40 * epochs;
  options.seed = 11;
  options.fuzzer.coverage_guidance = true;
  return options;
}

// Rewinds the journal's commit point to `committed` and its snapshot
// horizon to the newest snapshot file at or below it — the on-disk shape
// of a campaign killed right after that epoch's commit.
void RewindCommitPoint(const fs::path& state, size_t committed) {
  std::vector<uint8_t> bytes;
  if (!ReadFileBytes(state / "MANIFEST", &bytes)) {
    std::fprintf(stderr, "cannot read %s\n", (state / "MANIFEST").c_str());
    std::exit(1);
  }
  CampaignManifestRecord manifest;
  if (!wire::Decode(bytes.data(), bytes.size(), &manifest)) {
    std::fprintf(stderr, "corrupt MANIFEST in %s\n", state.c_str());
    std::exit(1);
  }
  manifest.committed_epochs = committed;
  size_t horizon = 0;
  for (size_t h = 1; h <= committed; ++h) {
    if (fs::exists(state / SnapshotFileName(h))) {
      horizon = h;
    }
  }
  manifest.snapshot_epochs = horizon;
  const wire::Buffer frame = wire::Encode(manifest);
  std::ofstream out(state / "MANIFEST", std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(frame.data()),
            static_cast<std::streamsize>(frame.size()));
}

// Total size of the epoch files a resume of this directory will verify:
// the committed prefix minus the materialized horizon.
uint64_t ReplayedBytes(const fs::path& state, size_t horizon,
                       size_t committed) {
  uint64_t bytes = 0;
  for (size_t e = horizon; e < committed; ++e) {
    std::error_code ec;
    const auto size = fs::file_size(state / CampaignJournal::EpochFileName(e),
                                    ec);
    if (!ec) {
      bytes += size;
    }
  }
  return bytes;
}

uint64_t DirectoryBytes(const fs::path& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      bytes += it->file_size(ec);
    }
  }
  return bytes;
}

int RunBench(bool smoke, const std::string& json_path) {
  const size_t epochs = smoke ? 20 : 200;
  const size_t cadence = 10;
  const size_t committed = epochs - 5;  // Kill point: 5 epochs short.
  const size_t horizon = committed - committed % cadence;

  const fs::path root =
      fs::temp_directory_path() /
      ("necofuzz-bench-state-" + std::to_string(::getpid()));
  fs::remove_all(root);
  fs::create_directories(root);

  PrintHeader(std::string("Durable-state resume: snapshot-anchored vs "
                          "replay-only, ") +
              std::to_string(epochs) + "-epoch campaign" +
              (smoke ? " [smoke]" : ""));

  CampaignOptions options = BenchOptions(epochs);
  EngineResult golden;
  const double golden_s =
      TimeSeconds([&] { golden = CampaignEngine("kvm", options).Run(); });
  std::printf("  golden run           %8.3f s  (%zu epochs, %llu iters)\n",
              golden_s, golden.merged.series.size(),
              (unsigned long long)golden.merged.fuzzer_stats.iterations);

  // Prepare the two interrupted state dirs from completed journaled runs.
  const fs::path snap_dir = root / "snapshot";
  const fs::path replay_dir = root / "replay";
  options.state_dir = snap_dir.string();
  options.snapshot_every_epochs = cadence;
  CampaignEngine("kvm", options).Run();
  options.state_dir = replay_dir.string();
  options.snapshot_every_epochs = 0;
  CampaignEngine("kvm", options).Run();

  // Copies for the cross-shard-mode identity runs, made before the
  // timed resumes consume the originals.
  const fs::path snap_proc = root / "snapshot-processes";
  const fs::path snap_sock = root / "snapshot-sockets";
  fs::copy(snap_dir, snap_proc, fs::copy_options::recursive);
  fs::copy(snap_dir, snap_sock, fs::copy_options::recursive);
  for (const fs::path& dir :
       {snap_dir, replay_dir, snap_proc, snap_sock}) {
    RewindCommitPoint(dir, committed);
  }

  const uint64_t snap_bytes = ReplayedBytes(snap_dir, horizon, committed);
  const uint64_t replay_bytes = ReplayedBytes(replay_dir, 0, committed);
  const uint64_t snap_dir_bytes = DirectoryBytes(snap_dir);
  const uint64_t replay_dir_bytes = DirectoryBytes(replay_dir);

  // The timed resumes (thread shards, the default transport).
  options.snapshot_every_epochs = cadence;
  options.state_dir = snap_dir.string();
  EngineResult snap_result;
  const double snap_s = TimeSeconds(
      [&] { snap_result = CampaignEngine("kvm", options).Run(); });
  options.snapshot_every_epochs = 0;
  options.state_dir = replay_dir.string();
  EngineResult replay_result;
  const double replay_s = TimeSeconds(
      [&] { replay_result = CampaignEngine("kvm", options).Run(); });
  const double speedup = snap_s > 0 ? replay_s / snap_s : 0.0;

  std::printf("  snapshot resume      %8.3f s  (replayed %llu epochs, "
              "%llu bytes)\n",
              snap_s, (unsigned long long)snap_result.journal.replayed_epochs,
              (unsigned long long)snap_bytes);
  std::printf("  replay-only resume   %8.3f s  (replayed %llu epochs, "
              "%llu bytes)\n",
              replay_s,
              (unsigned long long)replay_result.journal.replayed_epochs,
              (unsigned long long)replay_bytes);
  std::printf("  resume speedup       %7.1fx\n", speedup);
  std::printf("  state dir bytes      snapshot %llu   replay-only %llu\n",
              (unsigned long long)snap_dir_bytes,
              (unsigned long long)replay_dir_bytes);

  // Identity: the snapshot resume must land on the golden outcome in
  // every shard mode (== leaves out the run-local journal and pipeline
  // counters, which differ by design).
  int identical = golden == snap_result ? 1 : 0;
  options.snapshot_every_epochs = cadence;
  options.shard_mode = ShardMode::kProcesses;
  options.state_dir = snap_proc.string();
  identical += golden == CampaignEngine("kvm", options).Run();
  options.shard_mode = ShardMode::kSockets;
  options.state_dir = snap_sock.string();
  identical += golden == CampaignEngine("kvm", options).Run();
  const bool replay_matched = golden == replay_result;
  std::printf("  bit-identical modes  %d/3%s\n", identical,
              replay_matched ? "" : "  (replay-only DIVERGED)");

  BenchJson json("state_resume", smoke);
  json.Metric("campaign_epochs", "epochs", static_cast<double>(epochs));
  json.Metric("golden_run_s", "s", golden_s);
  json.Metric("snapshot_resume_s", "s", snap_s);
  json.Metric("replay_resume_s", "s", replay_s);
  json.Metric("resume_speedup", "x", speedup);
  json.Metric("snapshot_replayed_epochs", "epochs",
              static_cast<double>(snap_result.journal.replayed_epochs));
  json.Metric("replay_replayed_epochs", "epochs",
              static_cast<double>(replay_result.journal.replayed_epochs));
  json.Metric("snapshot_replayed_bytes", "bytes",
              static_cast<double>(snap_bytes));
  json.Metric("replay_replayed_bytes", "bytes",
              static_cast<double>(replay_bytes));
  json.Metric("snapshot_state_dir_bytes", "bytes",
              static_cast<double>(snap_dir_bytes));
  json.Metric("replay_state_dir_bytes", "bytes",
              static_cast<double>(replay_dir_bytes));
  // 3 when thread, process, and socket resumes all matched the golden
  // run; anything less fails the exit status below.
  json.Metric("bit_identical_shard_modes", "ok",
              static_cast<double>(identical) * (replay_matched ? 1.0 : 0.0));

  fs::remove_all(root);

  if (!json_path.empty()) {
    if (!json.WriteTo(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("\nwrote %s\n", json_path.c_str());
  }
  if (identical != 3 || !replay_matched) {
    std::fprintf(stderr, "a resumed campaign diverged from the golden run\n");
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace neco

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") != 0 &&
        std::strncmp(argv[i], "--json=", 7) != 0) {
      std::fprintf(stderr, "usage: %s [--smoke] [--json=PATH]\n", argv[0]);
      return 2;
    }
  }
  return neco::RunBench(neco::ParseSmokeFlag(argc, argv),
                        neco::ParseJsonPathFlag(argc, argv));
}
