// Tests for SocketTransport (src/core/transport/socket.h): the
// listener/dialer handshake (hello only, the start frames following once
// every shard checked in) driven by real fork'd children, the
// reconnect-or-fail accept policy (garbage dialers and out-of-range
// hellos are dropped while real shards still check in; a missing shard
// runs out the deadline with a counted error), delta/feedback streaming
// over loopback through the shared merge pipeline, and the fail-fast
// dead-shard model when a connection is cut abruptly (child SIGKILL
// before EOF).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "src/core/merge_pipeline.h"
#include "src/core/transport/socket.h"
#include "src/core/transport/supervisor.h"
#include "src/core/wire.h"
#include "src/fuzz/mutator.h"

namespace neco {
namespace {

constexpr char kLoopback[] = "127.0.0.1";

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
  record.result.fuzzer_stats.iterations = 10;
  record.crash_ids = {"sock-crash"};
  record.crash_inputs = {FuzzInput(kFuzzInputSize, 0x77)};
  return record;
}

// Completes the handshake the way the engine does: accept every hello,
// then send each shard its config as its first frame.
bool AcceptAndStart(SocketTransport& transport, int workers) {
  if (!transport.AcceptShards()) {
    return false;
  }
  for (int w = 0; w < workers; ++w) {
    ShardChildConfigRecord config;
    config.target = "sock-test";
    config.worker = w;
    config.workers = workers;
    if (!transport.SendFeedback(w, wire::Encode(config))) {
      return false;
    }
  }
  return true;
}

// A full shard-child protocol round over one dialed connection: hello is
// sent by DialShardSocket, then the child validates its config, streams
// `epochs` deltas, and finishes with a result record.
int RunProtocolChild(const std::string& address, uint16_t port, int worker,
                     uint64_t epochs) {
  std::string error;
  const int sock = DialShardSocket(address, port, worker, &error);
  if (sock < 0) {
    return 3;
  }
  wire::Buffer frame;
  ShardChildConfigRecord config;
  if (!ReadPipeFrame(sock, &frame) || !wire::Decode(frame, &config) ||
      config.target != "sock-test" || config.worker != worker) {
    return 4;
  }
  for (uint64_t epoch = 0; epoch < epochs; ++epoch) {
    ShardDelta delta = MakeDelta(worker, epoch, 10);
    delta.covered_points = {static_cast<uint32_t>(worker)};
    if (!WritePipeFrame(sock, wire::Encode(delta))) {
      return 2;
    }
  }
  if (!WritePipeFrame(sock, wire::Encode(MakeResult(worker)))) {
    return 2;
  }
  ::close(sock);
  return 0;
}

SocketTransportOptions LoopbackOptions(int workers, double timeout = 20.0) {
  SocketTransportOptions options;
  options.workers = workers;
  options.address = kLoopback;
  options.port = 0;
  options.accept_timeout_seconds = timeout;
  return options;
}

TEST(SocketTransportTest, HandshakeAndDrainOverLoopback) {
  // Two real child processes dial in, handshake, and publish two epochs
  // each; the parent's pipeline folds them exactly as thread shards.
  SocketTransport transport(LoopbackOptions(2));
  ASSERT_GT(transport.port(), 0);

  ShardSupervisor supervisor;
  for (int w = 0; w < 2; ++w) {
    const uint16_t port = transport.port();
    supervisor.SpawnFork(w, [port, w] {
      return RunProtocolChild(kLoopback, port, w, 2);
    });
  }
  ASSERT_TRUE(AcceptAndStart(transport, 2)) << transport.error();

  MergePipelineOptions options;
  options.workers = 2;
  options.epochs = 2;
  options.total_points = 4;
  MergePipeline pipeline(options, &transport, {});
  pipeline.RunMergeLoop();

  EXPECT_EQ(pipeline.finalized_epochs(), 2u);
  EXPECT_EQ(pipeline.covered_points(), 2u);
  EXPECT_EQ(pipeline.series().back().iteration, 40u);

  ASSERT_TRUE(transport.CollectResults()) << transport.error();
  ASSERT_NE(transport.shard_result(0), nullptr);
  ASSERT_NE(transport.shard_result(1), nullptr);
  // The crash reproduction inputs travelled home in the result record.
  ASSERT_EQ(transport.shard_result(1)->crash_inputs.size(), 1u);
  EXPECT_EQ(transport.shard_result(1)->crash_inputs[0],
            FuzzInput(kFuzzInputSize, 0x77));

  for (const ShardExit& shard_exit : supervisor.WaitAll()) {
    EXPECT_TRUE(shard_exit.clean()) << shard_exit.Describe();
  }
  const TransportStats stats = transport.stats();
  EXPECT_EQ(stats.deltas, 4u);
  EXPECT_GT(stats.delta_bytes, 0u);
}

TEST(SocketTransportTest, StrayAndInvalidDialersAreRejectedNotFatal) {
  // Reconnect-or-fail: three bad connections land before the real shard —
  // raw garbage, a premature disconnect, and a valid hello for an
  // out-of-range worker. All are dropped; the campaign still forms.
  SocketTransport transport(LoopbackOptions(1));
  const uint16_t port = transport.port();

  auto dial_raw = [&] {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    return fd;
  };

  // Garbage that is not even a frame header.
  const int garbage = dial_raw();
  const char junk[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::write(garbage, junk, sizeof(junk)), 0);
  // A dialer that vanishes before completing a hello.
  const int ghost = dial_raw();
  ::close(ghost);
  // A syntactically valid hello claiming a worker that does not exist.
  const int impostor = dial_raw();
  ShardHelloRecord bad_hello;
  bad_hello.worker = 7;  // workers == 1, so only worker 0 is valid.
  ASSERT_TRUE(WritePipeFrame(impostor, wire::Encode(bad_hello)));

  ShardSupervisor supervisor;
  supervisor.SpawnFork(0, [port] {
    return RunProtocolChild(kLoopback, port, 0, 1);
  });

  ASSERT_TRUE(AcceptAndStart(transport, 1)) << transport.error();
  ::close(garbage);
  ::close(impostor);

  MergePipelineOptions options;
  options.workers = 1;
  options.epochs = 1;
  MergePipeline pipeline(options, &transport, {});
  pipeline.RunMergeLoop();
  EXPECT_EQ(pipeline.finalized_epochs(), 1u);
  ASSERT_TRUE(transport.CollectResults());
  for (const ShardExit& shard_exit : supervisor.WaitAll()) {
    EXPECT_TRUE(shard_exit.clean()) << shard_exit.Describe();
  }
}

TEST(SocketTransportTest, MissingShardRunsOutTheDeadlineWithACountedError) {
  // workers=2 but only one ever dials: the handshake must fail at the
  // deadline — not hang — and say how many made it.
  SocketTransport transport(LoopbackOptions(2, /*timeout=*/0.3));
  const uint16_t port = transport.port();
  ShardSupervisor supervisor;
  supervisor.SpawnFork(0, [port] {
    return RunProtocolChild(kLoopback, port, 0, 1);
  });

  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(transport.AcceptShards());
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  EXPECT_LT(secs, 5.0);
  const std::string error = transport.error();
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;
  EXPECT_NE(error.find("1 of 2"), std::string::npos) << error;
  transport.Abort();  // Unblocks nothing here, but mirrors engine teardown.
  supervisor.KillAll(SIGKILL);
  supervisor.WaitAll();
}

TEST(SocketTransportTest, AbortUnblocksTheHandshake) {
  SocketTransport transport(LoopbackOptions(1, /*timeout=*/30.0));
  std::thread aborter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    transport.Abort();
  });
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(transport.AcceptShards());
  const double secs = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count();
  aborter.join();
  EXPECT_LT(secs, 5.0);
}

TEST(SocketTransportTest, AbruptlyClosedSocketFailsTheDrainFast) {
  // The child handshakes, delivers epoch 0, then dies by SIGKILL with
  // epoch 1 still owed. The kernel closes the socket; the drainer must
  // attribute the dead worker and fail — never wait for an epoch that
  // cannot complete.
  SocketTransport transport(LoopbackOptions(1));
  const uint16_t port = transport.port();
  ShardSupervisor supervisor;
  supervisor.SpawnFork(0, [port] {
    std::string error;
    const int sock = DialShardSocket(kLoopback, port, 0, &error);
    if (sock < 0) {
      return 3;
    }
    wire::Buffer frame;
    if (!ReadPipeFrame(sock, &frame)) {
      return 4;
    }
    WritePipeFrame(sock, wire::Encode(MakeDelta(0, 0, 5)));
    ::raise(SIGKILL);
    return 0;
  });
  ASSERT_TRUE(AcceptAndStart(transport, 1)) << transport.error();

  MergePipelineOptions options;
  options.workers = 1;
  options.epochs = 2;
  MergePipeline pipeline(options, &transport, {});
  EXPECT_THROW(pipeline.RunMergeLoop(), std::runtime_error);
  EXPECT_FALSE(transport.error().empty());
  EXPECT_EQ(transport.dead_worker(), 0);

  const std::vector<ShardExit> exits = supervisor.WaitAll();
  ASSERT_EQ(exits.size(), 1u);
  EXPECT_EQ(exits[0].term_signal, SIGKILL);
}

}  // namespace
}  // namespace neco
