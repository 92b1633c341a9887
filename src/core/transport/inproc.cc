#include "src/core/transport/inproc.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace neco {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

}  // namespace

InProcTransport::InProcTransport(InProcTransportOptions options)
    : workers_(std::max(options.workers, 1)), capacity_(options.capacity) {
  if (capacity_ == 0) {
    capacity_ = 2 * static_cast<size_t>(workers_);
  }
  MutexLock lock(&mu_);
  feedback_.resize(static_cast<size_t>(workers_));
  results_.resize(static_cast<size_t>(workers_));
}

bool InProcTransport::Publish(wire::Buffer frame) {
  wire::RecordType type = wire::RecordType::kShardDelta;
  if (wire::PeekType(frame.data(), frame.size(), &type) &&
      type == wire::RecordType::kShardResult) {
    return StoreResult(frame);
  }
  MutexLock lock(&mu_);
  if (queue_.size() >= capacity_ && !aborted_) {
    ++stats_.publish_blocks;
    const auto start = Clock::now();
    while (queue_.size() >= capacity_ && !aborted_) {
      not_full_.Wait(mu_);
    }
    stats_.publish_wait_seconds += SecondsSince(start);
  }
  if (aborted_) {
    return false;
  }
  ++stats_.deltas;
  stats_.delta_bytes += frame.size();
  queue_.push_back(std::move(frame));
  stats_.max_queue_depth = std::max(stats_.max_queue_depth, queue_.size());
  queue_depth_sum_ += static_cast<double>(queue_.size());
  not_empty_.NotifyOne();
  return true;
}

bool InProcTransport::StoreResult(const wire::Buffer& frame) {
  auto result = std::make_unique<ShardResultRecord>();
  const bool valid =
      wire::Decode(frame, result.get()) && ValidWorker(result->worker);
  const size_t w = static_cast<size_t>(result->worker);
  MutexLock lock(&mu_);
  if (aborted_) {
    return false;
  }
  if (!valid || results_[w] != nullptr) {
    FailLocked("a shard sent an invalid or repeated result record");
    return false;
  }
  results_[w] = std::move(result);
  results_ready_.NotifyAll();
  return true;
}

void InProcTransport::FailLocked(const std::string& message) {
  if (error_.empty()) {
    error_ = message;
  }
  not_empty_.NotifyAll();
  results_ready_.NotifyAll();
}

bool InProcTransport::ReceiveFeedback(int worker, wire::Buffer* out) {
  if (!ValidWorker(worker)) {
    return false;
  }
  MutexLock lock(&mu_);
  std::deque<wire::Buffer>& frames = feedback_[static_cast<size_t>(worker)];
  if (frames.empty() && !aborted_) {
    const auto start = Clock::now();
    while (frames.empty() && !aborted_) {
      feedback_ready_.Wait(mu_);
    }
    stats_.feedback_wait_seconds += SecondsSince(start);
  }
  if (aborted_) {
    return false;
  }
  *out = std::move(frames.front());
  frames.pop_front();
  return true;
}

bool InProcTransport::Drain(std::vector<wire::Buffer>* out) {
  out->clear();
  MutexLock lock(&mu_);
  while (queue_.empty() && !aborted_ && error_.empty()) {
    not_empty_.Wait(mu_);
  }
  if (aborted_ || !error_.empty()) {
    return false;
  }
  out->reserve(queue_.size());
  for (wire::Buffer& frame : queue_) {
    out->push_back(std::move(frame));
  }
  queue_.clear();
  not_full_.NotifyAll();
  return true;
}

bool InProcTransport::SendFeedback(int worker, const wire::Buffer& frame) {
  MutexLock lock(&mu_);
  if (aborted_) {
    return false;
  }
  if (!ValidWorker(worker)) {
    FailLocked("feedback for unknown shard " + std::to_string(worker));
    return false;
  }
  feedback_[static_cast<size_t>(worker)].push_back(frame);
  ++stats_.feedback_records;
  stats_.feedback_bytes += frame.size();
  feedback_ready_.NotifyAll();
  return true;
}

bool InProcTransport::AllResultsIn() const {
  return std::all_of(
      results_.begin(), results_.end(),
      [](const std::unique_ptr<ShardResultRecord>& r) { return r != nullptr; });
}

bool InProcTransport::CollectResults() {
  MutexLock lock(&mu_);
  while (!AllResultsIn() && error_.empty() && !aborted_) {
    results_ready_.Wait(mu_);
  }
  return AllResultsIn() && error_.empty();
}

const ShardResultRecord* InProcTransport::shard_result(int worker) const {
  if (!ValidWorker(worker)) {
    return nullptr;
  }
  MutexLock lock(&mu_);
  return results_[static_cast<size_t>(worker)].get();
}

void InProcTransport::Abort() {
  aborted_ = true;
  MutexLock lock(&mu_);
  not_empty_.NotifyAll();
  not_full_.NotifyAll();
  feedback_ready_.NotifyAll();
  results_ready_.NotifyAll();
}

std::string InProcTransport::error() const {
  MutexLock lock(&mu_);
  return error_;
}

TransportStats InProcTransport::stats() const {
  MutexLock lock(&mu_);
  TransportStats out = stats_;
  out.avg_queue_depth =
      out.deltas == 0 ? 0.0
                      : queue_depth_sum_ / static_cast<double>(out.deltas);
  return out;
}

}  // namespace neco
