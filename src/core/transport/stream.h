// FrameStreamTransport — the shared poll/demux engine behind every
// byte-stream ShardTransport backend.
//
// PR 4's PipeTransport already treated its descriptors as plain byte
// streams carrying length-prefixed wire frames; this base class is that
// engine hoisted out of pipe.cc so a TCP socket (src/core/transport/
// socket.h) and a pipe pair (src/core/transport/pipe.h) share one
// implementation of:
//
//  * poll(2)-driven reassembly of wire frames from N shard streams,
//  * ShardDelta / ShardResultRecord demultiplexing,
//  * FeedbackRecord writes back toward shards (slow-peer aware: a full
//    buffer polls for writability and retries; only a real error is a
//    failure),
//  * the fail-fast dead-shard model (EOF or connection reset before the
//    shard's result record arrived fails Drain() and names the worker in
//    dead_worker(), so the engine can attribute an exit status), and
//  * the self-pipe that lets Abort() wake a drainer blocked in poll().
//
// A channel is a (read fd, write fd) pair; the two may be the same
// descriptor (a socket) — the transport closes it exactly once. Every
// descriptor the transport creates for itself carries O_CLOEXEC, so
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

// The parent-side descriptors of one shard's byte stream. The transport
// takes ownership; read_fd and write_fd may be the same descriptor.
struct StreamShardChannel {
  int worker = 0;
  int read_fd = -1;   // ShardDelta / ShardResultRecord frames arrive here.
  int write_fd = -1;  // Config + FeedbackRecord frames leave here.
};

class FrameStreamTransport : public ShardTransport {
 public:
  ~FrameStreamTransport() override;

  FrameStreamTransport(const FrameStreamTransport&) = delete;
  FrameStreamTransport& operator=(const FrameStreamTransport&) = delete;

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
  // on its delta stream, or EPIPE writing its feedback), or -1. "Dead" is
  // a kernel-level fact — those conditions only arise once the child's
  // descriptors closed — so the engine can reap this specific child for
  // its exit status when composing the shard error. (A corrupt frame
  // does NOT set this: the sender of garbage may well still be running.)
  int dead_worker() const { return dead_worker_; }

 protected:
  // Creates the abort self-pipe (O_CLOEXEC) and adopts `channels`,
  // setting every read descriptor non-blocking. Throws std::runtime_error
  // — closing everything it was handed — when the self-pipe cannot be
  // created or an fcntl fails (a channel built on a bad descriptor must
  // fail construction, not silently hand F_SETFL garbage).
  explicit FrameStreamTransport(std::vector<StreamShardChannel> channels);

  // Registers one more channel after construction (the socket transport
  // adopts connections as their handshakes complete). Sets the read
  // descriptor non-blocking; on failure closes the descriptor, records
  // the error, and returns false. Must not race Drain()/CollectResults().
  bool AdoptChannel(const StreamShardChannel& channel);

  void SetError(const std::string& message) NECO_EXCLUDES(mu_);
  bool aborted() const { return aborted_; }
  int abort_rd() const { return abort_rd_; }

 private:
  struct Channel {
    int worker = 0;
    int read_fd = -1;
    int write_fd = -1;
    bool open = true;
    std::vector<uint8_t> buffer;  // Partial-frame bytes read so far.
    std::unique_ptr<ShardResultRecord> result;
  };

  // Sets `fd` non-blocking; false (with errno set) when fcntl fails.
  static bool SetNonBlocking(int fd);
  static void CloseChannelFds(Channel& channel);

  // Blocks in poll() until a delta stream made progress, then reads and
  // demultiplexes. Returns false on abort or transport error.
  bool PumpOnce();
  // Drains `channel`'s readable bytes and cuts complete frames.
  void ReadChannel(Channel& channel);
  void ExtractFrames(Channel& channel) NECO_EXCLUDES(mu_);
  void MarkDead(int worker);

  // Drainer-thread-only state: channels, reassembly buffers, and the
  // decoded-order frame queue are touched exclusively by Drain()/
  // CollectResults()/SendFeedback() callers on the merge thread (the
  // engine sequences AcceptShards/AdoptChannel before the first Drain),
  // hence unguarded. Cross-thread communication happens via aborted_ /
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
