// A fuzzing campaign: the full NecoFuzz stack (fuzzer + agent + VM
// generator) run against one target hypervisor for a fixed iteration
// budget, with periodic coverage sampling for the time-series figures.
#ifndef SRC_CORE_CAMPAIGN_H_
#define SRC_CORE_CAMPAIGN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/agent.h"
#include "src/core/wire.h"
#include "src/fuzz/fuzzer.h"
#include "src/hv/hypervisor.h"

namespace neco {

// How CampaignEngine runs its worker shards (src/core/transport/):
//  * kThreads — worker threads in this process, the same frames over
//    in-memory queues (InProcTransport);
//  * kProcesses — fork/exec'd child processes, each exchanging the same
//    frames over one socketpair (FrameStreamTransport + ShardSupervisor);
//  * kSockets — shard children dial a TCP listener and speak the same
//    wire frames over the connection (SocketTransport). The launcher is
//    pluggable (CampaignOptions::remote_launcher), so the children can
//    live on other machines; the default launcher spawns local
//    subprocesses, which makes the single-machine case and the tests
//    need no ssh.
// Same merge math in every mode, same deterministic results and observer
// event sequences; the medium is the only difference.
enum class ShardMode {
  kThreads,
  kProcesses,
  kSockets,
};

// What a remote launcher must do for one shard of a shard_mode = sockets
// campaign: start a process (ssh, container, job scheduler, ...) that runs
// a binary calling MaybeRunShardChild (src/core/engine.h) with
//   --necofuzz-shard-child --necofuzz-connect=<address:port>
//   --necofuzz-worker=<worker>
// The child dials the address, sends a ShardHelloRecord, receives its
// start frames once every shard has checked in, and runs the shard over
// the socket.
struct ShardLaunch {
  int worker = 0;
  std::string address;  // The listen address the child must dial.
  uint16_t port = 0;    // The resolved listen port (after an ephemeral bind).
  std::string target;   // Registry name the child rebuilds its target from.
};

// Returns false when the shard could not be launched; the campaign fails
// with a launcher error instead of waiting out the accept timeout.
using RemoteLauncher = std::function<bool(const ShardLaunch&)>;

struct CampaignOptions {
  Arch arch = Arch::kIntel;
  uint64_t iterations = 20000;
  // Number of evenly spaced coverage samples (Figure 3 / Figure 4 series).
  int samples = 24;
  uint64_t seed = 1;
  // Worker shards for CampaignEngine (a borrowed-target session ignores
  // this and always runs one thread shard). Each worker derives its
  // fuzzer seed as seed + worker_id, so worker 0 reproduces the serial
  // campaign exactly.
  int workers = 1;
  // Cross-shard corpus syncing: at every sample boundary each worker
  // publishes its new queue entries and adopts the other shards'. Only
  // effective in guided mode — breadth-first campaigns have no corpus,
  // so their shards run fully decoupled regardless of this flag.
  bool corpus_sync = true;
  // Thread shards, fork/exec'd process shards, or socket-dialing shard
  // children. Every mode produces bit-identical merged results and
  // observer event sequences for the same (options, target) — pinned in
  // tests/engine_test.cc. A borrowed-target session ignores this (single
  // thread shard, like `workers`).
  ShardMode shard_mode = ShardMode::kThreads;
  // With shard_mode = sockets: the address/port the parent listens on and
  // shard children dial. Port 0 binds an ephemeral port (the resolved
  // value is handed to the launcher). For multi-machine campaigns bind a
  // reachable interface (e.g. "0.0.0.0") and make sure remote_launcher
  // passes an address the remote host can route.
  std::string listen_address = "127.0.0.1";
  uint16_t listen_port = 0;
  // How long the parent waits for every shard to dial in and complete the
  // handshake before failing the campaign. Connections that handshake
  // badly (stray dialers, garbage, duplicate workers) are dropped and the
  // listener keeps accepting until this deadline — a launcher may retry a
  // failed dial — after which the campaign fails with an error naming the
  // missing shards (reconnect-or-fail).
  double socket_accept_timeout = 30.0;
  // With shard_mode = sockets: launches shard `worker` somewhere it can
  // dial the listener (ssh, container, ...). Null uses the built-in local
  // launcher: children are subprocesses of this process — fork'd shard
  // bodies, or exec'd via shard_exec_path when that is set — so tests and
  // single-machine campaigns need no infrastructure. A non-null launcher
  // requires a by-name session (remote children rebuild the target from
  // the registry).
  RemoteLauncher remote_launcher;
  // With shard_mode = processes: when non-empty, children are spawned by
  // fork + exec of this binary (e.g. "/proc/self/exe") with the hidden
  // --necofuzz-shard-child arguments — its main() must call
  // MaybeRunShardChild first (src/core/engine.h). Exec'd children rebuild
  // the target from the registry, so the session must be constructed by
  // name. Empty spawns plain fork children (works from any binary,
  // including the test suites) — but fork-without-exec assumes the
  // calling process is effectively single-threaded at Run() time: a
  // child forked while some unrelated embedder thread holds e.g. an
  // allocator lock can deadlock. Multithreaded embedders should set an
  // exec path.
  std::string shard_exec_path;
  // Durable campaign state (src/core/state/journal.h). Empty (the
  // default) keeps the campaign memory-resident. When set, CampaignEngine
  // opens or creates a CampaignJournal at this directory and commits the
  // campaign at epoch granularity — merged deltas, new crash artifacts,
  // and a versioned manifest, each write-to-temp + fsync + atomic rename
  // + directory fsync. A campaign killed at any point (kill -9 included)
  // and restarted with the same state_dir and options resumes from the
  // last committed epoch, bit-identical to an uninterrupted run: same
  // EngineResult, and the observer event stream continues exactly where
  // the committed prefix stopped. Works across all shard modes (the
  // journal lives in the parent; shard_mode may even change between
  // incarnations). A state_dir written by different options, target, or
  // binary is rejected at Run() with an error.
  std::string state_dir;
  // Materialized-snapshot cadence (src/core/state/snapshot.h): with a
  // state_dir, commit a full merged-state snapshot every N epochs, so a
  // resume replays at most N-1 epochs of tail instead of the whole
  // campaign, and journal files behind the previous snapshot horizon are
  // compacted away. 0 (the default) disables snapshots: resume replays
  // every committed epoch, exactly the pre-snapshot behavior. Results are
  // invariant to this knob — like shard_mode it is excluded from the
  // journal fingerprint, so the cadence may change between incarnations
  // of the same campaign.
  size_t snapshot_every_epochs = 0;
  // Test-only fault injection: when set, every fork'd shard child, process
  // or socket, calls this at the start of each epoch (in the child
  // process). Lets tests kill a child mid-campaign and assert the parent
  // surfaces a shard error instead of hanging.
  std::function<void(int worker, size_t epoch)> shard_fault_for_test;
  AgentOptions agent;
  // NecoFuzz's default mode is the breadth-first boundary explorer: the
  // paper found coverage guidance counter-productive here, because the
  // validator's rounding collapses guided micro-variations into equivalent
  // post-rounding states (Section 5.6 / Table 5). Benches flip this on to
  // reproduce the "with coverage guidance" row.
  FuzzerOptions fuzzer{.seed = 1, .coverage_guidance = false};
};

// The campaign's sampling cadence: `budget` iterations split into
// chunk-sized steps (one coverage sample after each), chunk =
// budget/samples with a minimum of 1 plus a remainder step. CampaignEngine
// applies it per shard, so a one-worker campaign replays the historical
// serial schedule exactly.
std::vector<uint64_t> ChunkSchedule(uint64_t budget, int samples);

}  // namespace neco

#endif  // SRC_CORE_CAMPAIGN_H_
