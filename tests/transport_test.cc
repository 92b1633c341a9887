// Tests for the ShardTransport layer (src/core/transport/): pipe frame
// I/O round-trips, slow-reader (EAGAIN) writes that must not be mistaken
// for a dead peer, PipeTransport drain/demux driven by real fork'd
// children, construction failing loudly on a bad descriptor, feedback
// frames flowing parent -> child, the dead-shard failure model (premature
// EOF, kill -9) failing the drain loop fast instead of hanging it, and
// ShardSupervisor spawn/reap/kill semantics including the CLOEXEC
// descriptor discipline (an exec'd child inherits stdio plus exactly its
// own channel fds, even past the soft fd limit, asserted via
// /proc/self/fd — this suite has its own main() so the re-exec'd binary
// can run the audit probe before gtest starts). (InProcTransport's queue
// semantics live in merge_pipeline_test.cc, next to the drain loop they
// serve; the socket backend's tests live in socket_transport_test.cc.)
#include <dirent.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/core/engine.h"
#include "src/core/merge_pipeline.h"
#include "src/core/transport/pipe.h"
#include "src/core/transport/supervisor.h"
#include "src/core/wire.h"
#include "src/fuzz/mutator.h"

namespace neco {
namespace {

ShardDelta MakeDelta(int worker, uint64_t epoch, uint64_t iterations) {
  ShardDelta delta;
  delta.worker = worker;
  delta.epoch = epoch;
  delta.iterations = iterations;
  return delta;
}

ShardResultRecord MakeResult(int worker) {
  ShardResultRecord record;
  record.worker = worker;
  record.iterations = 10;
  return record;
}

// One shard's pipe pair, parent perspective.
struct Pipes {
  int delta_rd = -1;
  int delta_wr = -1;
  int feedback_rd = -1;
  int feedback_wr = -1;
};

Pipes MakePipes() {
  int delta[2];
  int feedback[2];
  EXPECT_EQ(::pipe(delta), 0);
  EXPECT_EQ(::pipe(feedback), 0);
  return {delta[0], delta[1], feedback[0], feedback[1]};
}

TEST(PipeFrameTest, FramesRoundTripThroughARealPipe) {
  int fds[2];
  ASSERT_EQ(::pipe(fds), 0);
  ShardDelta delta = MakeDelta(1, 3, 250);
  delta.virgin.Append(7, 0x81);
  delta.covered_points = {4, 9};
  ASSERT_TRUE(WritePipeFrame(fds[1], wire::Encode(delta)));

  wire::Buffer frame;
  ASSERT_TRUE(ReadPipeFrame(fds[0], &frame));
  ShardDelta decoded;
  ASSERT_TRUE(wire::Decode(frame, &decoded));
  EXPECT_EQ(decoded.worker, 1);
  EXPECT_EQ(decoded.epoch, 3u);
  EXPECT_EQ(decoded.covered_points, delta.covered_points);

  // EOF comes back as a clean false, not a garbage frame.
  ::close(fds[1]);
  EXPECT_FALSE(ReadPipeFrame(fds[0], &frame));
  ::close(fds[0]);
}

TEST(PipeFrameTest, SlowReaderIsBackpressureNotADeadPeer) {
  // A non-blocking descriptor whose buffer fills (EAGAIN) is exactly what
  // a feedback write to a slow-but-alive shard looks like — and what
  // every socket-transport write looks like. WritePipeFrame must park on
  // poll(POLLOUT) and finish the frame, not report a dead shard.
  ShardSupervisor sigpipe_scope;  // Scopes SIGPIPE for the dead-peer half.
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const int tiny = 1;  // The kernel clamps this up to its minimum.
  ASSERT_EQ(::setsockopt(fds[1], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny)),
            0);
  const int flags = ::fcntl(fds[1], F_GETFL, 0);
  ASSERT_EQ(::fcntl(fds[1], F_SETFL, flags | O_NONBLOCK), 0);

  // Far bigger than any SO_SNDBUF minimum, so the write MUST hit EAGAIN.
  ShardDelta big = MakeDelta(0, 0, 1);
  big.queue_entries.assign(64, FuzzInput(kFuzzInputSize, 0xAB));
  const wire::Buffer frame = wire::Encode(big);
  ASSERT_GT(frame.size(), 100000u);

  std::thread reader([&] {
    // Give the writer time to genuinely fill the buffer and block.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    wire::Buffer got;
    EXPECT_TRUE(ReadPipeFrame(fds[0], &got));
    EXPECT_EQ(got, frame);
  });
  EXPECT_TRUE(WritePipeFrame(fds[1], frame));
  reader.join();

  // A genuinely dead peer still fails — with errno saying why.
  ::close(fds[0]);
  EXPECT_FALSE(WritePipeFrame(fds[1], frame));
  EXPECT_TRUE(errno == EPIPE || errno == ECONNRESET) << std::strerror(errno);
  ::close(fds[1]);
}

TEST(PipeTransportTest, BadDescriptorFailsConstructionLoudly) {
  // A channel built on a dead descriptor (fcntl(F_GETFL) fails) must fail
  // construction like the abort-pipe path does — never hand F_SETFL
  // garbage and limp into the drain loop. The bogus number is far above
  // anything allocated (a freshly *closed* fd would just be recycled by
  // the transport's own abort pipe), so fcntl reliably sees EBADF.
  Pipes pipes = MakePipes();
  const int bogus = 1 << 19;
  try {
    PipeTransport transport({{0, bogus, pipes.feedback_wr}});
    FAIL() << "expected construction to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("fcntl"), std::string::npos)
        << e.what();
  }
  // The failed constructor owned and closed feedback_wr; the rest is ours.
  ::close(pipes.delta_rd);
  ::close(pipes.delta_wr);
  ::close(pipes.feedback_rd);
}

TEST(PipeTransportTest, ForkChildrenDriveTheMergePipeline) {
  // Two real child processes publish two epochs each over pipes; the
  // parent's pipeline folds them exactly as if they were thread shards.
  Pipes p0 = MakePipes();
  Pipes p1 = MakePipes();

  ShardSupervisor supervisor;
  for (int w = 0; w < 2; ++w) {
    const Pipes& own = w == 0 ? p0 : p1;
    const Pipes& other = w == 0 ? p1 : p0;
    supervisor.SpawnFork(w, [&, w] {
      ::close(other.delta_rd);
      ::close(other.delta_wr);
      ::close(other.feedback_rd);
      ::close(other.feedback_wr);
      ::close(own.delta_rd);
      ::close(own.feedback_wr);
      for (uint64_t epoch = 0; epoch < 2; ++epoch) {
        ShardDelta delta = MakeDelta(w, epoch, 10);
        delta.covered_points = {static_cast<uint32_t>(w)};
        if (!WritePipeFrame(own.delta_wr, wire::Encode(delta))) {
          return 2;
        }
      }
      if (!WritePipeFrame(own.delta_wr, wire::Encode(MakeResult(w)))) {
        return 2;
      }
      return 0;
    });
  }
  ::close(p0.delta_wr);
  ::close(p0.feedback_rd);
  ::close(p1.delta_wr);
  ::close(p1.feedback_rd);

  PipeTransport transport(
      {{0, p0.delta_rd, p0.feedback_wr}, {1, p1.delta_rd, p1.feedback_wr}});
  MergePipelineOptions options;
  options.workers = 2;
  options.epochs = 2;
  options.total_points = 4;
  MergePipeline pipeline(options, &transport, {});
  pipeline.RunMergeLoop();

  EXPECT_EQ(pipeline.finalized_epochs(), 2u);
  EXPECT_EQ(pipeline.covered_points(), 2u);
  EXPECT_EQ(pipeline.series().back().iteration, 40u);

  ASSERT_TRUE(transport.CollectResults());
  ASSERT_NE(transport.shard_result(0), nullptr);
  ASSERT_NE(transport.shard_result(1), nullptr);
  EXPECT_EQ(transport.shard_result(1)->iterations, 10u);

  for (const ShardExit& shard_exit : supervisor.WaitAll()) {
    EXPECT_TRUE(shard_exit.clean()) << shard_exit.Describe();
  }
  const TransportStats stats = transport.stats();
  EXPECT_EQ(stats.deltas, 4u);
  EXPECT_GT(stats.delta_bytes, 0u);
}

TEST(PipeTransportTest, FeedbackFramesReachTheChild) {
  // The child blocks on a FeedbackRecord and echoes its pool payload back
  // inside its delta — proving the parent -> child direction end to end.
  Pipes pipes = MakePipes();
  ShardSupervisor supervisor;
  supervisor.SpawnFork(0, [&] {
    ::close(pipes.delta_rd);
    ::close(pipes.feedback_wr);
    wire::Buffer frame;
    FeedbackRecord feedback;
    if (!ReadPipeFrame(pipes.feedback_rd, &frame) ||
        !wire::Decode(frame, &feedback) || feedback.pool_entries.size() != 1) {
      return 3;
    }
    ShardDelta delta = MakeDelta(0, 0, feedback.epoch + 41);
    delta.queue_entries = feedback.pool_entries;
    if (!WritePipeFrame(pipes.delta_wr, wire::Encode(delta)) ||
        !WritePipeFrame(pipes.delta_wr, wire::Encode(MakeResult(0)))) {
      return 2;
    }
    return 0;
  });
  ::close(pipes.delta_wr);
  ::close(pipes.feedback_rd);

  PipeTransport transport({{0, pipes.delta_rd, pipes.feedback_wr}});
  FeedbackRecord feedback;
  feedback.epoch = 1;
  feedback.worker = 0;
  feedback.pool_entries = {FuzzInput(kFuzzInputSize, 0x5A)};
  ASSERT_TRUE(transport.SendFeedback(0, wire::Encode(feedback)));

  std::vector<wire::Buffer> batch;
  ASSERT_TRUE(transport.Drain(4, &batch));
  ASSERT_EQ(batch.size(), 1u);
  ShardDelta delta;
  ASSERT_TRUE(wire::Decode(batch[0], &delta));
  EXPECT_EQ(delta.iterations, 42u);
  ASSERT_EQ(delta.queue_entries.size(), 1u);
  EXPECT_EQ(delta.queue_entries[0][5], 0x5A);

  ASSERT_TRUE(transport.CollectResults());
  for (const ShardExit& shard_exit : supervisor.WaitAll()) {
    EXPECT_TRUE(shard_exit.clean()) << shard_exit.Describe();
  }
  EXPECT_EQ(transport.stats().feedback_records, 1u);
  EXPECT_GT(transport.stats().feedback_bytes, 0u);
}

TEST(PipeTransportTest, PrematureEofIsARecordedErrorNotAHang) {
  // A child that exits without its result record (simulating a crash)
  // must fail the drain loop with an error naming the shard.
  Pipes pipes = MakePipes();
  ShardSupervisor supervisor;
  supervisor.SpawnFork(0, [&] {
    ::close(pipes.delta_rd);
    ::close(pipes.feedback_wr);
    ::close(pipes.feedback_rd);
    WritePipeFrame(pipes.delta_wr, wire::Encode(MakeDelta(0, 0, 5)));
    ::close(pipes.delta_wr);
    return 0;  // "Clean" exit, but the stream is short: still an error.
  });
  ::close(pipes.delta_wr);
  ::close(pipes.feedback_rd);

  PipeTransport transport({{0, pipes.delta_rd, pipes.feedback_wr}});
  MergePipelineOptions options;
  options.workers = 1;
  options.epochs = 2;  // Expects two deltas; only one will come.
  MergePipeline pipeline(options, &transport, {});
  try {
    pipeline.RunMergeLoop();
    FAIL() << "expected the short stream to throw";
  } catch (const std::runtime_error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("shard 0"), std::string::npos) << message;
  }
  supervisor.WaitAll();
}

TEST(PipeTransportTest, KillNineChildFailsTheDrainFast) {
  Pipes pipes = MakePipes();
  ShardSupervisor supervisor;
  supervisor.SpawnFork(0, [&] {
    ::close(pipes.delta_rd);
    ::close(pipes.feedback_wr);
    ::close(pipes.feedback_rd);
    WritePipeFrame(pipes.delta_wr, wire::Encode(MakeDelta(0, 0, 5)));
    ::raise(SIGKILL);  // Dies with epoch 1 still owed.
    return 0;
  });
  ::close(pipes.delta_wr);
  ::close(pipes.feedback_rd);

  PipeTransport transport({{0, pipes.delta_rd, pipes.feedback_wr}});
  MergePipelineOptions options;
  options.workers = 1;
  options.epochs = 2;
  MergePipeline pipeline(options, &transport, {});
  EXPECT_THROW(pipeline.RunMergeLoop(), std::runtime_error);
  EXPECT_FALSE(transport.error().empty());

  const std::vector<ShardExit> exits = supervisor.WaitAll();
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_TRUE(exits[0].reaped);
  EXPECT_EQ(exits[0].term_signal, SIGKILL);
  EXPECT_EQ(exits[0].Describe(), "killed by signal 9");
}

TEST(PipeTransportTest, AbortUnblocksTheDrain) {
  Pipes pipes = MakePipes();
  ::close(pipes.delta_wr);     // No writer yet — Drain would block...
  ::close(pipes.feedback_rd);  // (EOF arrives immediately: error path)

  // Use a pair with a held-open writer so the drain genuinely blocks.
  int held[2];
  ASSERT_EQ(::pipe(held), 0);
  PipeTransport transport({{0, held[0], pipes.feedback_wr}});
  ::close(pipes.delta_rd);

  std::vector<wire::Buffer> batch;
  transport.Abort();
  EXPECT_FALSE(transport.Drain(1, &batch));
  EXPECT_FALSE(transport.SendFeedback(0, wire::Encode(FeedbackRecord{})));
  ::close(held[1]);
}

TEST(ShardSupervisorTest, ReapsExitCodesAndSignals) {
  ShardSupervisor supervisor;
  supervisor.SpawnFork(0, [] { return 0; });
  supervisor.SpawnFork(1, [] { return 7; });
  supervisor.SpawnFork(2, [] {
    ::pause();  // Never exits on its own.
    return 0;
  });
  EXPECT_EQ(supervisor.spawned(), 3u);
  supervisor.KillAll(SIGKILL);  // Only shard 2 should still be alive...
  const std::vector<ShardExit> exits = supervisor.WaitAll();
  ASSERT_EQ(exits.size(), 3u);
  // ...but kill/exit races mean shards 0 and 1 may be reaped either way;
  // their *worker* identity is what must be stable.
  EXPECT_EQ(exits[0].worker, 0);
  EXPECT_EQ(exits[1].worker, 1);
  EXPECT_EQ(exits[2].worker, 2);
  EXPECT_TRUE(exits[2].reaped);
  EXPECT_EQ(exits[2].term_signal, SIGKILL);
  EXPECT_FALSE(exits[2].clean());
}

TEST(ShardSupervisorTest, ExecFailureSurfacesAsExitCode127) {
  ShardSupervisor supervisor;
  supervisor.SpawnExec(0, "/nonexistent/necofuzz-shard", {"--whatever"}, {});
  const std::vector<ShardExit> exits = supervisor.WaitAll();
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_TRUE(exits[0].reaped);
  EXPECT_EQ(exits[0].exit_code, 127);
  EXPECT_EQ(exits[0].Describe(), "exited with status 127");
}

// What an exec'd fd-audit child reported: its open descriptors, against
// the stdio-plus-keep_fds set it should have inherited.
struct FdAudit {
  std::set<int> child_fds;
  std::set<int> expected;
  std::string listing;
  ShardExit exit;
};

// Spawns this binary re-exec'd in fd-audit mode (see main() below) with
// two channel descriptors as its keep_fds: it lists /proc/self/fd and
// ships the listing back over its audit channel.
FdAudit RunFdAuditChild() {
  FdAudit result;
  int audit[2];  // The child's "delta" end: carries the fd listing back.
  int keep[2];   // The child's "feedback" end: kept but unused.
  if (::pipe2(audit, O_CLOEXEC) != 0 || ::pipe2(keep, O_CLOEXEC) != 0) {
    ADD_FAILURE() << "pipe2 failed";
    return result;
  }
  ShardSupervisor supervisor;
  const pid_t pid = supervisor.SpawnExec(
      0, "/proc/self/exe",
      {"--necofuzz-fd-audit", "--necofuzz-audit-out=" + std::to_string(audit[1]),
       "--necofuzz-audit-keep=" + std::to_string(keep[0])},
      {audit[1], keep[0]});
  EXPECT_GT(pid, 0);
  ::close(audit[1]);
  ::close(keep[0]);

  char buffer[256];
  ssize_t n;
  while ((n = ::read(audit[0], buffer, sizeof(buffer))) > 0) {
    result.listing.append(buffer, static_cast<size_t>(n));
  }
  ::close(audit[0]);
  ::close(keep[1]);

  std::istringstream stream(result.listing);
  int fd;
  while (stream >> fd) {
    result.child_fds.insert(fd);
  }
  result.expected = {0, 1, 2, audit[1], keep[0]};
  const std::vector<ShardExit> exits = supervisor.WaitAll();
  EXPECT_EQ(exits.size(), 1u);
  if (!exits.empty()) {
    result.exit = exits[0];
  }
  return result;
}

TEST(ShardSupervisorTest, ExecChildInheritsOnlyItsOwnChannelFds) {
  // The engine creates every campaign descriptor O_CLOEXEC and SpawnExec
  // clears the flag only on the child's own keep_fds — so an exec'd shard
  // must start with stdio plus exactly its two channel descriptors, even
  // while the parent is holding other shards' channels.
  int sibling[2];  // A sibling channel that must NOT leak into the child.
  ASSERT_EQ(::pipe2(sibling, O_CLOEXEC), 0);
  const FdAudit audit = RunFdAuditChild();
  ::close(sibling[0]);
  ::close(sibling[1]);

  EXPECT_EQ(audit.child_fds, audit.expected)
      << "child fd listing: " << audit.listing;
  EXPECT_TRUE(audit.exit.clean()) << audit.exit.Describe();
}

TEST(ShardSupervisorTest, ExecChildShedsFdsAboveTheSoftLimit) {
  // A descriptor leaked without FD_CLOEXEC and numbered above the soft
  // RLIMIT_NOFILE: a close loop bounded by sysconf(_SC_OPEN_MAX) never
  // reaches it, so only a close_range sweep keeps it out of the child.
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  if (saved.rlim_cur <= 900) {
    GTEST_SKIP() << "needs a soft RLIMIT_NOFILE above 900";
  }
  int leak[2];
  ASSERT_EQ(::pipe2(leak, O_CLOEXEC), 0);
  ASSERT_EQ(::dup2(leak[0], 900), 900);  // dup2 leaves FD_CLOEXEC clear.
  rlimit lowered = saved;
  lowered.rlim_cur = 512;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  const FdAudit audit = RunFdAuditChild();
  EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &saved), 0);
  ::close(900);
  ::close(leak[0]);
  ::close(leak[1]);

  EXPECT_EQ(audit.child_fds, audit.expected)
      << "child fd listing: " << audit.listing;
  EXPECT_TRUE(audit.exit.clean()) << audit.exit.Describe();
}

}  // namespace
}  // namespace neco

namespace {

// Hidden probe mode for ExecChildInheritsOnlyItsOwnChannelFds: list every
// open descriptor (via /proc/self/fd, excluding the directory fd doing
// the listing), write the listing to the audit descriptor, exit 0.
// Returns -1 for a normal test run.
int MaybeRunFdAudit(int argc, char** argv) {
  bool audit = false;
  int out_fd = -1;
  const std::string out_prefix = "--necofuzz-audit-out=";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--necofuzz-fd-audit") {
      audit = true;
    } else if (arg.rfind(out_prefix, 0) == 0) {
      out_fd = std::atoi(arg.c_str() + out_prefix.size());
    }
  }
  if (!audit) {
    return -1;
  }
  if (out_fd < 0) {
    return 2;
  }
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) {
    return 2;
  }
  std::string listing;
  while (dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] == '.') {
      continue;
    }
    const int fd = std::atoi(entry->d_name);
    if (fd == ::dirfd(dir)) {
      continue;  // Our own directory handle, not an inherited fd.
    }
    listing += std::to_string(fd) + " ";
  }
  ::closedir(dir);
  size_t offset = 0;
  while (offset < listing.size()) {
    const ssize_t n =
        ::write(out_fd, listing.data() + offset, listing.size() - offset);
    if (n <= 0) {
      return 2;
    }
    offset += static_cast<size_t>(n);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (const int code = MaybeRunFdAudit(argc, argv); code >= 0) {
    return code;
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
