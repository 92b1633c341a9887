#include "src/core/transport/supervisor.h"

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>

namespace neco {

std::string ShardExit::Describe() const {
  if (!reaped) {
    return "still running";
  }
  if (term_signal != 0) {
    return "killed by signal " + std::to_string(term_signal);
  }
  return "exited with status " + std::to_string(exit_code);
}

ShardSupervisor::ShardSupervisor() {
  // A shard child can die at any moment, turning the parent's next
  // feedback write over its stream into an EPIPE. The default SIGPIPE
  // disposition would kill the whole campaign process instead; ignoring
  // it keeps the failure a recoverable error code (the transport turns it
  // into a recorded shard error). The disposition is scoped, not
  // clobbered: sigaction saves the embedding application's full previous
  // action — including an SA_SIGINFO handler, which the old
  // signal()-based save could not represent — and the destructor (which
  // outlives every feedback write of its campaign) restores it.
  struct sigaction ignore_action {};
  ignore_action.sa_handler = SIG_IGN;
  ::sigemptyset(&ignore_action.sa_mask);
  ::sigaction(SIGPIPE, &ignore_action, &previous_sigpipe_);
}

ShardSupervisor::~ShardSupervisor() {
  KillAll(SIGKILL);
  WaitAll();
  ::sigaction(SIGPIPE, &previous_sigpipe_, nullptr);
}

pid_t ShardSupervisor::SpawnFork(int worker,
                                 const std::function<int()>& body) {
  const pid_t pid = ::fork();
  if (pid < 0) {
    return -1;
  }
  if (pid == 0) {
    // Child: run the shard body and leave without unwinding the parent's
    // stack or running its atexit handlers (they belong to the parent).
    int code = 1;
    try {
      code = body();
    } catch (...) {
      code = 1;
    }
    ::_exit(code);
  }
  children_.push_back(ShardExit{worker, pid, false, -1, 0});
  return pid;
}

namespace {

// Closes every descriptor above stderr except `keep` (-1 for none), with
// at most two close_range calls and no allocation, since it runs in a
// forked child. close_range also reaches descriptors at or above the soft
// RLIMIT_NOFILE, which the per-descriptor loop (kept only for kernels
// without close_range, before 5.9) never does.
void CloseAllExcept(int keep) {
  bool swept = true;
  if (keep > 3) {
    swept = ::close_range(3, static_cast<unsigned>(keep - 1), 0) == 0;
  }
  const unsigned above = static_cast<unsigned>(std::max(keep + 1, 3));
  if (swept && ::close_range(above, ~0U, 0) == 0) {
    return;
  }
  const long max_fd = ::sysconf(_SC_OPEN_MAX);
  for (int fd = 3; fd < (max_fd > 0 ? max_fd : 1024); ++fd) {
    if (fd != keep) {
      ::close(fd);
    }
  }
}

}  // namespace

pid_t ShardSupervisor::SpawnExec(int worker, const std::string& exec_path,
                                 const std::vector<std::string>& argv,
                                 int keep_fd) {
  // Everything the child needs is built here, before fork: allocating in
  // the child of a multithreaded parent can deadlock on a malloc lock.
  std::vector<char*> args;
  args.push_back(const_cast<char*>(exec_path.c_str()));
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);

  const pid_t pid = ::fork();
  if (pid < 0) {
    return -1;
  }
  if (pid == 0) {
    // The engine creates every campaign descriptor O_CLOEXEC, so the exec
    // below sheds them automatically; the child's own stream end is the
    // exception and gets the flag cleared here. The close sweep stays as
    // a second line of defense so a non-CLOEXEC descriptor leaked by the
    // embedding process cannot reach the child either — between the two,
    // an exec'd shard starts with stdio plus exactly its keep_fd
    // (asserted via /proc/self/fd in tests/transport_test.cc).
    if (keep_fd >= 0) {
      ::fcntl(keep_fd, F_SETFD, 0);
    }
    CloseAllExcept(keep_fd);
    ::execv(exec_path.c_str(), args.data());
    ::_exit(127);  // Exec failed; surfaces at WaitAll().
  }
  children_.push_back(ShardExit{worker, pid, false, -1, 0});
  return pid;
}

namespace {

void Reap(ShardExit& child, int flags) {
  int status = 0;
  pid_t r;
  do {
    r = ::waitpid(child.pid, &status, flags);
  } while (r < 0 && errno == EINTR);
  if (r <= 0) {
    return;  // Still running (WNOHANG) or already reaped elsewhere.
  }
  child.reaped = true;
  if (WIFEXITED(status)) {
    child.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    child.term_signal = WTERMSIG(status);
  }
}

}  // namespace

std::vector<ShardExit> ShardSupervisor::WaitAll() {
  for (ShardExit& child : children_) {
    if (!child.reaped) {
      Reap(child, 0);
    }
  }
  return children_;
}

std::vector<ShardExit> ShardSupervisor::ReapExited() {
  for (ShardExit& child : children_) {
    if (!child.reaped) {
      Reap(child, WNOHANG);
    }
  }
  return children_;
}

ShardExit ShardSupervisor::WaitWorker(int worker) {
  for (ShardExit& child : children_) {
    if (child.worker != worker) {
      continue;
    }
    for (int attempt = 0; attempt < 500 && !child.reaped; ++attempt) {
      Reap(child, WNOHANG);
      if (!child.reaped) {
        ::usleep(2000);
      }
    }
    return child;
  }
  return ShardExit{};
}

void ShardSupervisor::KillAll(int sig) {
  for (const ShardExit& child : children_) {
    if (!child.reaped && child.pid > 0) {
      ::kill(child.pid, sig);
    }
  }
}

}  // namespace neco
