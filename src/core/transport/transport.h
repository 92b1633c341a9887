// ShardTransport — how encoded campaign records move between worker
// shards and the merge pipeline's drain loop.
//
// PR 3 made shards communicate exclusively through serialized ShardDelta
// records (src/core/wire.h); this layer makes the medium those records
// travel over pluggable. The merge pipeline (src/core/merge_pipeline.h)
// drains *a transport* — it no longer owns a queue — so the same drain /
// stage / fold loop serves:
//
//  * InProcTransport (src/core/transport/inproc.h): a bounded in-memory
//    MPSC deque toward the drainer plus per-worker feedback queues and
//    result slots, for thread shards inside one process, and
//  * FrameStreamTransport (src/core/transport/stream.h): length-prefixed
//    frames over one full-duplex byte stream per shard — a socketpair to
//    each fork/exec'd child process for campaigns that scale past one
//    process, or, as SocketTransport (src/core/transport/socket.h), a TCP
//    connection each shard child dials in on, for campaigns that scale
//    past one machine.
//
// Every backend carries the same frames: toward each shard its start
// frames (its ShardChildConfigRecord, then on a resume its
// WorkerStateRecord) and, when syncing, one FeedbackRecord per epoch;
// from each shard its ShardDeltas (plus WorkerStateRecords at snapshot
// epochs) and one final ShardResultRecord. The contract is deterministic
// content: a transport moves opaque encoded frames without reordering
// records from the same shard, so the fold — and therefore merged results
// and observer event sequences — is identical whichever backend carried
// the bytes (pinned in tests/engine_test.cc).
//
// SIGPIPE constraint: the stream backends write to descriptors whose peer
// can die at any moment, which must surface as an error code (EPIPE), not
// a process-killing signal. ShardSupervisor (src/core/transport/
// supervisor.h) scopes that for a campaign — it saves the embedding
// process's SIGPIPE disposition via sigaction on construction, installs
// SIG_IGN, and restores the saved disposition on destruction. An
// application embedding the library keeps its own SIGPIPE handler outside
// campaign lifetimes, but must not install one concurrently with a
// running campaign (the save/restore would race it).
#ifndef SRC_CORE_TRANSPORT_TRANSPORT_H_
#define SRC_CORE_TRANSPORT_TRANSPORT_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/wire.h"

namespace neco {

// Byte / wait counters a transport reports into EngineResult::transport
// (the per-transport columns of bench/parallel_scaling).
struct TransportStats {
  // ShardDelta and WorkerStateRecord frames delivered to the drainer.
  uint64_t deltas = 0;
  uint64_t delta_bytes = 0;      // Their encoded bytes.
  // Frames sent toward shards through SendFeedback: every shard's start
  // frames plus the per-epoch FeedbackRecords. The same in every mode.
  uint64_t feedback_records = 0;
  uint64_t feedback_bytes = 0;
  size_t max_queue_depth = 0;    // Frames buffered drainer-side.
  double avg_queue_depth = 0.0;  // Sampled once per enqueued frame.
  uint64_t publish_blocks = 0;   // Producer-side backpressure events (in-proc
                                 // only: a child process blocks in its
                                 // stream buffer, invisible to the parent).
  double publish_wait_seconds = 0.0;
  // Thread shards blocked on their next feedback frame (in-proc only, like
  // the publish wait).
  double feedback_wait_seconds = 0.0;
};

class ShardTransport {
 public:
  virtual ~ShardTransport() = default;

  // Drainer side: blocks until at least one encoded frame (a ShardDelta,
  // or a WorkerStateRecord at a snapshot epoch) is available, then moves
  // every queued frame into `*out` (cleared first), in arrival order.
  // Returns false when no frame will ever arrive again — the transport
  // was aborted, or a producer failed (see error()).
  virtual bool Drain(std::vector<wire::Buffer>* out) = 0;

  // Ships one encoded frame (a start frame or a FeedbackRecord) toward
  // shard `worker`, which reads it as its next frame.
  // Returns false when the shard can no longer receive (dead child /
  // aborted transport); the failure is also recorded in error().
  virtual bool SendFeedback(int worker, const wire::Buffer& frame) = 0;

  // After the merge loop finished: waits until every shard's
  // ShardResultRecord arrived (they follow the final deltas, so they may
  // or may not be in already). Returns false on abort or error.
  virtual bool CollectResults() = 0;

  // Worker `worker`'s final summary, or nullptr if it never arrived.
  virtual const ShardResultRecord* shard_result(int worker) const = 0;

  // Unblocks Drain(), every producer and every shard waiting for
  // feedback; all fail fast afterwards. Safe to call from any thread,
  // repeatedly.
  virtual void Abort() = 0;

  // Non-empty after a transport-level failure (producer died mid-stream,
  // corrupt frame header, failed write). Drain() returns false once set.
  virtual std::string error() const = 0;

  virtual TransportStats stats() const = 0;
};

}  // namespace neco

#endif  // SRC_CORE_TRANSPORT_TRANSPORT_H_
