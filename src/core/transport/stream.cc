#include "src/core/transport/stream.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/support/errno_util.h"

namespace neco {
namespace {

bool ReadExact(int fd, uint8_t* data, size_t size) {
  while (size > 0) {
    const ssize_t n = ::read(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return false;
    }
    if (n == 0) {
      return false;  // EOF mid-frame.
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

// Blocks until `fd` is writable again. POLLERR/POLLHUP deliberately fall
// through to the retried write: it reports the real errno (EPIPE, ...),
// which is how the caller tells a dead peer from a slow one.
bool WaitWritable(int fd) {
  pollfd p{fd, POLLOUT, 0};
  int r;
  do {
    r = ::poll(&p, 1, -1);
  } while (r < 0 && errno == EINTR);
  return r >= 0;
}

}  // namespace

bool WritePipeFrame(int fd, const wire::Buffer& frame) {
  const uint8_t* data = frame.data();
  size_t size = frame.size();
  while (size > 0) {
    const ssize_t n = ::write(fd, data, size);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Full buffer on a non-blocking descriptor: the peer is slow, not
        // dead. Park until it drains, then retry.
        if (!WaitWritable(fd)) {
          return false;
        }
        continue;
      }
      return false;
    }
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool ReadPipeFrame(int fd, wire::Buffer* out) {
  out->assign(wire::kFrameHeaderSize, 0);
  if (!ReadExact(fd, out->data(), wire::kFrameHeaderSize)) {
    return false;
  }
  size_t frame_size = 0;
  if (!wire::FrameSize(out->data(), out->size(), &frame_size)) {
    return false;
  }
  out->resize(frame_size);
  return ReadExact(fd, out->data() + wire::kFrameHeaderSize,
                   frame_size - wire::kFrameHeaderSize);
}

bool FrameStreamTransport::SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

FrameStreamTransport::FrameStreamTransport() {
  int fds[2] = {-1, -1};
  // O_CLOEXEC: an exec'd shard child must not inherit the parent's wake-up
  // channel.
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error(
        "FrameStreamTransport: abort pipe creation failed: " +
        SafeStrerror(errno));
  }
  abort_rd_ = fds[0];
  abort_wr_ = fds[1];
}

FrameStreamTransport::~FrameStreamTransport() {
  for (const Channel& channel : channels_) {
    ::close(channel.fd);
  }
  ::close(abort_rd_);
  ::close(abort_wr_);
}

bool FrameStreamTransport::AdoptChannel(int worker, int fd) {
  // Reads are driven by poll(); non-blocking reads let ReadChannel drain
  // exactly what arrived without ever stalling the drainer. Writes share
  // the flag — WritePipeFrame handles the resulting EAGAIN by polling for
  // writability.
  if (!SetNonBlocking(fd)) {
    SetError("fcntl(O_NONBLOCK) failed for shard " + std::to_string(worker) +
             ": " + SafeStrerror(errno));
    ::close(fd);
    return false;
  }
  Channel channel;
  channel.worker = worker;
  channel.fd = fd;
  channels_.push_back(std::move(channel));
  return true;
}

void FrameStreamTransport::SetError(const std::string& message) {
  MutexLock lock(&mu_);
  if (error_.empty()) {
    error_ = message;
  }
}

std::string FrameStreamTransport::error() const {
  MutexLock lock(&mu_);
  return error_;
}

void FrameStreamTransport::MarkDead(int worker) {
  int expected = -1;
  dead_worker_.compare_exchange_strong(expected, worker);
}

void FrameStreamTransport::ExtractFrames(Channel& channel) {
  size_t offset = 0;
  while (channel.buffer.size() - offset >= wire::kFrameHeaderSize) {
    const uint8_t* head = channel.buffer.data() + offset;
    const size_t available = channel.buffer.size() - offset;
    size_t frame_size = 0;
    if (!wire::FrameSize(head, available, &frame_size)) {
      SetError("shard " + std::to_string(channel.worker) +
               " sent a corrupt frame header");
      break;
    }
    if (available < frame_size) {
      break;  // Frame still arriving.
    }
    wire::Buffer frame(head, head + frame_size);
    offset += frame_size;

    wire::RecordType type;
    wire::PeekType(frame.data(), frame.size(), &type);
    if (type == wire::RecordType::kShardDelta ||
        type == wire::RecordType::kWorkerState) {
      // Worker-state frames (snapshot epochs) ride the delta queue so the
      // drainer sees them in publish order — FIFO per channel is what
      // guarantees a state frame lands before its epoch's delta.
      MutexLock lock(&mu_);
      ++stats_.deltas;
      stats_.delta_bytes += frame.size();
      pending_.push_back(std::move(frame));
      stats_.max_queue_depth =
          std::max(stats_.max_queue_depth, pending_.size());
      queue_depth_sum_ += static_cast<double>(pending_.size());
    } else if (type == wire::RecordType::kShardResult) {
      auto result = std::make_unique<ShardResultRecord>();
      if (!wire::Decode(frame, result.get()) ||
          result->worker != channel.worker || channel.result != nullptr) {
        SetError("shard " + std::to_string(channel.worker) +
                 " sent an invalid result record");
        break;
      }
      channel.result = std::move(result);
    } else {
      SetError("shard " + std::to_string(channel.worker) +
               " sent an unexpected record type");
      break;
    }
  }
  channel.buffer.erase(channel.buffer.begin(),
                       channel.buffer.begin() + static_cast<long>(offset));
}

void FrameStreamTransport::ReadChannel(Channel& channel) {
  uint8_t chunk[65536];
  while (true) {
    const ssize_t n = ::read(channel.fd, chunk, sizeof(chunk));
    if (n > 0) {
      channel.buffer.insert(channel.buffer.end(), chunk, chunk + n);
      ExtractFrames(channel);
      if (static_cast<size_t>(n) < sizeof(chunk)) {
        return;  // Stream drained for now.
      }
      continue;
    }
    if (n == 0) {
      // EOF. Clean only when the shard already delivered its final
      // result record with no partial frame left behind.
      channel.open = false;
      if (channel.result == nullptr || !channel.buffer.empty()) {
        MarkDead(channel.worker);
        SetError("shard " + std::to_string(channel.worker) +
                 " closed its stream mid-campaign");
      }
      return;
    }
    if (errno == EINTR) {
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      return;
    }
    channel.open = false;
    if (errno == ECONNRESET || errno == EPIPE) {
      // A socket peer that vanished (child SIGKILLed before EOF could be
      // sent cleanly) surfaces as a reset, not an EOF — same fate, same
      // attribution.
      MarkDead(channel.worker);
      SetError("shard " + std::to_string(channel.worker) +
               " dropped its connection mid-campaign: " +
               SafeStrerror(errno));
      return;
    }
    SetError("shard " + std::to_string(channel.worker) +
             " stream read failed: " + SafeStrerror(errno));
    return;
  }
}

bool FrameStreamTransport::PumpOnce() {
  if (aborted_) {
    return false;
  }
  if (!error().empty()) {
    return false;
  }
  std::vector<pollfd> fds;
  std::vector<Channel*> polled;
  for (Channel& channel : channels_) {
    if (channel.open) {
      fds.push_back({channel.fd, POLLIN, 0});
      polled.push_back(&channel);
    }
  }
  if (polled.empty()) {
    SetError("every shard closed its stream before the campaign completed");
    return false;
  }
  fds.push_back({abort_rd_, POLLIN, 0});
  int r;
  do {
    r = ::poll(fds.data(), fds.size(), -1);
  } while (r < 0 && errno == EINTR);
  if (r < 0) {
    SetError(std::string("poll failed: ") + SafeStrerror(errno));
    return false;
  }
  if (aborted_) {
    return false;
  }
  for (size_t i = 0; i < polled.size(); ++i) {
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      ReadChannel(*polled[i]);
    }
  }
  return error().empty();
}

bool FrameStreamTransport::Drain(std::vector<wire::Buffer>* out) {
  out->clear();
  while (pending_.empty()) {
    if (!PumpOnce()) {
      return false;
    }
  }
  out->reserve(pending_.size());
  for (wire::Buffer& frame : pending_) {
    out->push_back(std::move(frame));
  }
  pending_.clear();
  return true;
}

bool FrameStreamTransport::SendFeedback(int worker,
                                        const wire::Buffer& frame) {
  if (aborted_) {
    return false;
  }
  for (Channel& channel : channels_) {
    if (channel.worker != worker) {
      continue;
    }
    if (!WritePipeFrame(channel.fd, frame)) {
      // WritePipeFrame already absorbed EAGAIN (a slow-but-alive peer is
      // backpressure, not a failure), so reaching here means a real
      // error; EPIPE/ECONNRESET specifically mean the peer is gone.
      const int err = errno;
      if (err == EPIPE || err == ECONNRESET) {
        MarkDead(worker);
        SetError("feedback write to shard " + std::to_string(worker) +
                 " failed: shard dead (" + SafeStrerror(err) + ")");
      } else {
        SetError("feedback write to shard " + std::to_string(worker) +
                 " failed: " + SafeStrerror(err));
      }
      return false;
    }
    MutexLock lock(&mu_);
    ++stats_.feedback_records;
    stats_.feedback_bytes += frame.size();
    return true;
  }
  SetError("feedback for unknown shard " + std::to_string(worker));
  return false;
}

bool FrameStreamTransport::CollectResults() {
  auto all_collected = [&] {
    for (const Channel& channel : channels_) {
      if (channel.result == nullptr) {
        return false;
      }
    }
    return true;
  };
  while (!all_collected()) {
    if (!PumpOnce()) {
      return false;
    }
  }
  return true;
}

const ShardResultRecord* FrameStreamTransport::shard_result(
    int worker) const {
  for (const Channel& channel : channels_) {
    if (channel.worker == worker) {
      return channel.result.get();
    }
  }
  return nullptr;
}

void FrameStreamTransport::Abort() {
  aborted_ = true;
  const uint8_t byte = 1;
  // Best-effort wake-up; the atomic flag is the source of truth.
  [[maybe_unused]] const ssize_t n = ::write(abort_wr_, &byte, 1);
}

TransportStats FrameStreamTransport::stats() const {
  MutexLock lock(&mu_);
  TransportStats out = stats_;
  out.avg_queue_depth =
      out.deltas == 0 ? 0.0
                      : queue_depth_sum_ / static_cast<double>(out.deltas);
  return out;
}

}  // namespace neco
