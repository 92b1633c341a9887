// InProcTransport — the shard transport for thread shards. It gives a
// worker thread what a stream gives a process shard, so both run the
// same shard loop over the same frames:
//  * a bounded MPSC queue toward the drainer: a full queue blocks the
//    publisher until the merge loop Drain()s it or the transport aborts;
//  * a feedback queue per shard: SendFeedback() appends a start or
//    FeedbackRecord frame, the worker takes it with ReceiveFeedback();
//  * a result slot per shard: a published ShardResultRecord is decoded
//    into its worker's slot and never enters the drain queue.
#ifndef SRC_CORE_TRANSPORT_INPROC_H_
#define SRC_CORE_TRANSPORT_INPROC_H_

#include <atomic>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "src/core/transport/transport.h"
#include "src/support/mutex.h"
#include "src/support/thread_annotations.h"

namespace neco {

struct InProcTransportOptions {
  int workers = 1;
  // Encoded frames in flight toward the drainer before Publish() blocks.
  // 0 does NOT mean unbounded: it derives 2 * workers (one epoch of deltas
  // plus the next). Explicit values are honored as-is (minimum 1); pass
  // SIZE_MAX for an effectively unbounded queue. Read back the resolved
  // value through capacity(); covered in tests/merge_pipeline_test.cc.
  size_t capacity = 0;
};

class InProcTransport : public ShardTransport {
 public:
  explicit InProcTransport(InProcTransportOptions options);

  // Shard side (worker threads). A ShardResultRecord frame fills its
  // worker's result slot; every other frame is queued for the drainer,
  // blocking while the queue is at capacity. Returns false when the
  // transport was aborted, or when a result record does not decode,
  // names a worker out of range, or repeats one (recorded in error()).
  bool Publish(wire::Buffer frame) NECO_EXCLUDES(mu_);

  // Shard side: blocks until SendFeedback() queued a frame for `worker`,
  // then moves it into `*out`. Returns false when the transport was
  // aborted.
  bool ReceiveFeedback(int worker, wire::Buffer* out) NECO_EXCLUDES(mu_);

  // The resolved queue bound (after the 0 -> derived-default rule).
  size_t capacity() const { return capacity_; }

  // ShardTransport:
  bool Drain(std::vector<wire::Buffer>* out) override NECO_EXCLUDES(mu_);
  bool SendFeedback(int worker, const wire::Buffer& frame) override
      NECO_EXCLUDES(mu_);
  bool CollectResults() override NECO_EXCLUDES(mu_);
  const ShardResultRecord* shard_result(int worker) const override
      NECO_EXCLUDES(mu_);
  void Abort() override NECO_EXCLUDES(mu_);
  std::string error() const override NECO_EXCLUDES(mu_);
  TransportStats stats() const override NECO_EXCLUDES(mu_);

 private:
  // Decodes `frame` into its worker's result slot; false (with error_
  // set) when the record is rejected.
  bool StoreResult(const wire::Buffer& frame) NECO_EXCLUDES(mu_);
  // Records the first failure and wakes the drainer and CollectResults().
  void FailLocked(const std::string& message) NECO_REQUIRES(mu_);
  bool AllResultsIn() const NECO_REQUIRES(mu_);
  bool ValidWorker(int worker) const {
    return worker >= 0 && worker < workers_;
  }

  int workers_ = 1;      // Const after construction.
  size_t capacity_ = 0;  // Const after construction.
  std::atomic<bool> aborted_{false};

  mutable Mutex mu_;
  CondVar not_empty_;
  CondVar not_full_;
  CondVar feedback_ready_;
  CondVar results_ready_;
  std::deque<wire::Buffer> queue_ NECO_GUARDED_BY(mu_);
  // Indexed by worker.
  std::vector<std::deque<wire::Buffer>> feedback_ NECO_GUARDED_BY(mu_);
  std::vector<std::unique_ptr<ShardResultRecord>> results_
      NECO_GUARDED_BY(mu_);
  std::string error_ NECO_GUARDED_BY(mu_);
  TransportStats stats_ NECO_GUARDED_BY(mu_);
  double queue_depth_sum_ NECO_GUARDED_BY(mu_) = 0.0;
};

}  // namespace neco

#endif  // SRC_CORE_TRANSPORT_INPROC_H_
