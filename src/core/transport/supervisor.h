// ShardSupervisor — spawns, monitors, and reaps process-level shard
// children (the process half of PipeTransport).
//
// Two spawn modes, one per process-sharding flavor:
//
//  * SpawnFork: fork() a child that runs a callback in a copy of the
//    parent's address space and _exit()s with its return value. This is
//    the default — it needs no binary support, so gtest suites can spawn
//    real process shards — and it is how CampaignEngine runs
//    shard_mode = processes when no exec path is configured.
//  * SpawnExec: fork() + execv() a binary with the hidden
//    --necofuzz-shard-child arguments (see MaybeRunShardChild in
//    src/core/engine.h). The child is a fresh process that reads its
//    ShardChildConfigRecord off an inherited pipe; this is the shape that
//    generalizes to remote machines.
//
// The supervisor's job is to make a crashed shard a *recorded error*, not
// a hang: WaitAll() reaps every child and reports how each one ended
// (exit code or terminating signal), KillAll() tears down a failed
// campaign, and the destructor guarantees nothing is leaked as a zombie
// even on an exception path.
//
// Spawning must happen before the parent starts its worker/merge threads
// (fork from a multithreaded process only copies the calling thread, which
// would strand locks in the child). CampaignEngine respects this: children
// are spawned first, and in process mode the merge loop runs inline.
#ifndef SRC_CORE_TRANSPORT_SUPERVISOR_H_
#define SRC_CORE_TRANSPORT_SUPERVISOR_H_

#include <signal.h>
#include <sys/types.h>

#include <functional>
#include <string>
#include <vector>

namespace neco {

// How one shard child ended.
struct ShardExit {
  int worker = -1;
  pid_t pid = -1;
  bool reaped = false;
  int exit_code = -1;    // Valid when the child exited normally.
  int term_signal = 0;   // Nonzero when a signal terminated it (e.g. 9).

  bool clean() const { return reaped && term_signal == 0 && exit_code == 0; }
  // "exited with status 1" / "killed by signal 9" — for error messages.
  std::string Describe() const;
};

class ShardSupervisor {
 public:
  ShardSupervisor();
  // Kills (SIGKILL) and reaps any children still running, so an exception
  // path through the engine can never leak zombies or orphan fuzzers.
  ~ShardSupervisor();

  ShardSupervisor(const ShardSupervisor&) = delete;
  ShardSupervisor& operator=(const ShardSupervisor&) = delete;

  // Forks a child that runs `body` and _exit()s with its return value (the
  // body never returns into the parent's stack). Returns the child pid, or
  // -1 when fork failed. `body` is responsible for closing the parent-side
  // pipe ends it inherited.
  pid_t SpawnFork(int worker, const std::function<int()>& body);

  // Forks and execs `exec_path` with `argv` (argv[0] is supplied by the
  // supervisor). `keep_fds` are inherited descriptors the child must keep
  // (its pipe ends) — they get FD_CLOEXEC cleared, since the engine now
  // creates every campaign descriptor close-on-exec; every other
  // descriptor above stderr is closed before exec (close_range over the
  // gaps between keep_fds) as a second line of defense against
  // non-CLOEXEC descriptors the embedding process holds.
  // Returns the child pid, or -1 when fork failed; exec failure surfaces
  // as exit code 127 at WaitAll().
  pid_t SpawnExec(int worker, const std::string& exec_path,
                  const std::vector<std::string>& argv,
                  const std::vector<int>& keep_fds);

  size_t spawned() const { return children_.size(); }

  // Blocks until every child exited; returns their fates in spawn order.
  // Safe to call repeatedly (already-reaped children keep their record).
  std::vector<ShardExit> WaitAll();

  // Non-blocking reap pass (WNOHANG): harvests children that already
  // died — on an error path this identifies the culprit before KillAll()
  // turns every survivor into "killed by signal 9".
  std::vector<ShardExit> ReapExited();

  // Reaps `worker`'s child, polling briefly (a known-dead child's pipe
  // EOF can be observable microseconds before the zombie is waitable —
  // process teardown closes descriptors first). Gives up after ~1s so a
  // misjudged caller degrades to the ReapExited answer instead of
  // hanging; returns the child's record either way.
  ShardExit WaitWorker(int worker);

  // Signals every not-yet-reaped child. With SIGKILL this guarantees a
  // subsequent WaitAll() returns promptly.
  void KillAll(int sig);

 private:
  // Single-threaded by contract (hence no mutex / NECO_GUARDED_BY): the
  // supervisor is owned by the engine's campaign thread, which spawns
  // before any worker or merge thread exists (see the fork constraint
  // above) and reaps after they joined. fork/waitpid from two threads
  // would be a design error, not a data race to annotate around.
  std::vector<ShardExit> children_;
  // The embedder's full SIGPIPE disposition (sigaction, not just a
  // handler pointer — a host's SA_SIGINFO action must survive the round
  // trip), restored by the destructor. See the SIGPIPE constraint note in
  // transport.h.
  struct sigaction previous_sigpipe_ {};
};

}  // namespace neco

#endif  // SRC_CORE_TRANSPORT_SUPERVISOR_H_
