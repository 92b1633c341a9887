// FrameStreamTransport — the ShardTransport over byte streams, one
// full-duplex descriptor per shard: a socketpair end for a local process
// shard (CampaignEngine creates one per child) or an accepted TCP
// connection for a socket shard (SocketTransport, src/core/transport/
// socket.h). Frames are direction-tagged by type, so one stream carries
// both directions. The transport implements:
//
//  * poll(2)-driven reassembly of wire frames from N shard streams,
//  * ShardDelta / ShardResultRecord demultiplexing,
//  * start and FeedbackRecord frame writes back toward shards
//    (slow-peer aware: a full buffer polls for writability and retries;
//    only a real error is a failure),
//  * the fail-fast dead-shard model, and
//  * the self-pipe that lets Abort() wake a drainer blocked in poll().
//
// A shard child reads its start frames first (its config, then on a
// resume its WorkerStateRecord), then writes length-prefixed frames
// (src/core/wire.h) in a fixed sequence — one ShardDelta per epoch, then
// one ShardResultRecord — and, when corpus syncing is on, blocks reading
// one FeedbackRecord frame before every epoch after the first.
//
// Failure model: a shard that dies (crash, kill -9, clean-but-early exit)
// closes its stream; EOF or a connection reset before the shard's
// ShardResultRecord arrived is recorded as a transport error naming the
// worker in dead_worker(), and Drain() fails fast — the drainer never
// hangs waiting for an epoch that cannot complete. Writing feedback to a
// dead shard surfaces the same way (EPIPE; SIGPIPE is scoped by
// ShardSupervisor, see transport.h). The engine turns transport errors
// plus the supervisor's exit reports into one thrown shard error.
//
// Deadlock freedom with syncing on: feedback for epoch E is only sent
// after every shard's epoch-E delta was *decoded*, at which point each
// shard's next blocking operation is reading that feedback — so the
// parent's feedback write always has a reader, no matter how small the
// stream buffer is.
//
// Every descriptor the transport creates for itself carries O_CLOEXEC, so
// exec'd shard children cannot inherit it.
#ifndef SRC_CORE_TRANSPORT_STREAM_H_
#define SRC_CORE_TRANSPORT_STREAM_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/core/transport/transport.h"
#include "src/support/mutex.h"
#include "src/support/thread_annotations.h"

namespace neco {

// --- Child-side frame I/O (also used by the shard-child loop) ------------

// Writes one complete frame, looping over partial writes. A non-blocking
// descriptor whose buffer is full (EAGAIN/EWOULDBLOCK) is a *slow* peer,
// not a dead one: the write polls for writability and retries, so only a
// real error (EPIPE after the peer died, a reset connection, ...) returns
// false — with errno preserved for the caller to attribute.
bool WritePipeFrame(int fd, const wire::Buffer& frame);

// Blocks until one complete frame was read into `*out`. Returns false on
// EOF, a read error, or an invalid frame header. Works on any byte-stream
// descriptor: pipes and sockets alike.
bool ReadPipeFrame(int fd, wire::Buffer* out);

// --- Parent side ---------------------------------------------------------

class FrameStreamTransport : public ShardTransport {
 public:
  // Creates the abort self-pipe (O_CLOEXEC). Throws std::runtime_error
  // when it cannot: without it a cross-thread Abort() could not wake a
  // drainer blocked in poll().
  FrameStreamTransport();
  ~FrameStreamTransport() override;

  FrameStreamTransport(const FrameStreamTransport&) = delete;
  FrameStreamTransport& operator=(const FrameStreamTransport&) = delete;

  // Registers worker `worker`'s stream `fd`, which the transport owns and
  // closes from here on, and sets it non-blocking. On failure (a bad
  // descriptor fails fcntl) closes `fd`, records the error, and returns
  // false. Must not race Drain()/CollectResults().
  bool AdoptChannel(int worker, int fd);

  // ShardTransport:
  bool Drain(std::vector<wire::Buffer>* out) override;
  bool SendFeedback(int worker, const wire::Buffer& frame) override
      NECO_EXCLUDES(mu_);
  bool CollectResults() override;
  const ShardResultRecord* shard_result(int worker) const override;
  void Abort() override;
  std::string error() const override NECO_EXCLUDES(mu_);
  TransportStats stats() const override NECO_EXCLUDES(mu_);

  // The first worker observed dead (mid-campaign EOF / connection reset
  // on its stream, or EPIPE writing toward it), or -1. "Dead" is a
  // kernel-level fact — those conditions only arise once the child's
  // descriptor closed — so the engine can reap this specific child for
  // its exit status when composing the shard error. (A corrupt frame
  // does NOT set this: the sender of garbage may well still be running.)
  int dead_worker() const { return dead_worker_; }

 protected:
  void SetError(const std::string& message) NECO_EXCLUDES(mu_);
  bool aborted() const { return aborted_; }
  int abort_rd() const { return abort_rd_; }

 private:
  struct Channel {
    int worker = 0;
    int fd = -1;
    bool open = true;
    std::vector<uint8_t> buffer;  // Partial-frame bytes read so far.
    std::unique_ptr<ShardResultRecord> result;
  };

  // Sets `fd` non-blocking; false (with errno set) when fcntl fails.
  static bool SetNonBlocking(int fd);

  // Blocks in poll() until a shard stream made progress, then reads and
  // demultiplexes. Returns false on abort or transport error.
  bool PumpOnce();
  // Drains `channel`'s readable bytes and cuts complete frames.
  void ReadChannel(Channel& channel);
  void ExtractFrames(Channel& channel) NECO_EXCLUDES(mu_);
  void MarkDead(int worker);

  // Drainer-thread-only state: channels, reassembly buffers, and the
  // decoded-order frame queue are touched exclusively by Drain()/
  // CollectResults()/SendFeedback() callers on the merge thread (the
  // engine adopts every channel before the first Drain), hence
  // unguarded. Cross-thread communication happens via aborted_ /
  // dead_worker_ (atomics) and the mu_-guarded error/stats below.
  std::vector<Channel> channels_;
  std::deque<wire::Buffer> pending_;  // Decoded-order ShardDelta frames.
  int abort_rd_ = -1;  // Self-pipe: Abort() wakes the poll loop.
  int abort_wr_ = -1;
  std::atomic<bool> aborted_{false};
  std::atomic<int> dead_worker_{-1};

  mutable Mutex mu_;
  std::string error_ NECO_GUARDED_BY(mu_);
  TransportStats stats_ NECO_GUARDED_BY(mu_);
  double queue_depth_sum_ NECO_GUARDED_BY(mu_) = 0.0;
};

}  // namespace neco

#endif  // SRC_CORE_TRANSPORT_STREAM_H_
