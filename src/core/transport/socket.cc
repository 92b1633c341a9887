#include "src/core/transport/socket.h"

#include <errno.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <set>
#include <stdexcept>
#include <vector>

#include "src/support/errno_util.h"

namespace neco {
namespace {

// getaddrinfo wrapper; prefers a numeric parse (no resolver dependency
// for the loopback/tests case) and falls back to a name lookup for
// multi-machine hostnames.
addrinfo* ResolveAddress(const std::string& address, uint16_t port,
                         bool passive, std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = (passive ? AI_PASSIVE : 0) | AI_NUMERICHOST;
  const std::string port_text = std::to_string(port);
  addrinfo* result = nullptr;
  int rc = ::getaddrinfo(address.empty() ? nullptr : address.c_str(),
                         port_text.c_str(), &hints, &result);
  if (rc != 0) {
    hints.ai_flags = passive ? AI_PASSIVE : 0;
    rc = ::getaddrinfo(address.empty() ? nullptr : address.c_str(),
                       port_text.c_str(), &hints, &result);
  }
  if (rc != 0) {
    *error = "cannot resolve " + address + ": " + ::gai_strerror(rc);
    return nullptr;
  }
  return result;
}

uint16_t BoundPort(int fd) {
  sockaddr_storage name{};
  socklen_t name_len = sizeof(name);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&name), &name_len) != 0) {
    return 0;
  }
  if (name.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<sockaddr_in*>(&name)->sin_port);
  }
  if (name.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<sockaddr_in6*>(&name)->sin6_port);
  }
  return 0;
}

}  // namespace

SocketTransport::SocketTransport(SocketTransportOptions options)
    : options_(std::move(options)) {
  std::string resolve_error;
  addrinfo* info = ResolveAddress(options_.address, options_.port,
                                  /*passive=*/true, &resolve_error);
  if (info == nullptr) {
    throw std::runtime_error("SocketTransport: " + resolve_error);
  }
  std::string last_error = "no usable address";
  for (addrinfo* ai = info; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC,
                            ai->ai_protocol);
    if (fd < 0) {
      last_error = std::string("socket() failed: ") + SafeStrerror(errno);
      continue;
    }
    const int yes = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) != 0 ||
        ::listen(fd, options_.workers + 8) != 0) {
      last_error = std::string("bind/listen failed: ") + SafeStrerror(errno);
      ::close(fd);
      continue;
    }
    listen_fd_ = fd;
    port_ = BoundPort(fd);
    break;
  }
  ::freeaddrinfo(info);
  if (listen_fd_ < 0) {
    throw std::runtime_error("SocketTransport: cannot listen on " +
                             options_.address + ":" +
                             std::to_string(options_.port) + ": " +
                             last_error);
  }
}

SocketTransport::~SocketTransport() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
  }
}

bool SocketTransport::AcceptShards(const std::function<bool()>& keep_waiting) {
  // A connection that said hello becomes a channel; one that has not yet
  // is parked here with whatever bytes arrived so far.
  struct PendingConn {
    int fd = -1;
    std::vector<uint8_t> buffer;
  };
  std::vector<PendingConn> pending;
  std::set<int> claimed;
  auto close_pending = [&] {
    for (PendingConn& conn : pending) {
      ::close(conn.fd);
    }
    pending.clear();
  };

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(
                            options_.accept_timeout_seconds);
  while (claimed.size() < static_cast<size_t>(options_.workers)) {
    if (aborted()) {
      SetError("socket handshake aborted");
      close_pending();
      return false;
    }
    if (keep_waiting && !keep_waiting()) {
      SetError("a shard died before completing the socket handshake (" +
               std::to_string(claimed.size()) + " of " +
               std::to_string(options_.workers) + " connected)");
      close_pending();
      return false;
    }
    const auto remaining = std::chrono::duration_cast<std::chrono::
        milliseconds>(deadline - std::chrono::steady_clock::now());
    if (remaining.count() <= 0) {
      SetError("timed out waiting for shards to dial in (" +
               std::to_string(claimed.size()) + " of " +
               std::to_string(options_.workers) + " connected within " +
               std::to_string(options_.accept_timeout_seconds) + "s)");
      close_pending();
      return false;
    }

    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    const size_t polled_pending = pending.size();  // fds[1+i] <-> pending[i]
    for (const PendingConn& conn : pending) {
      fds.push_back({conn.fd, POLLIN, 0});
    }
    fds.push_back({abort_rd(), POLLIN, 0});
    // Cap each wait so keep_waiting() gets polled even while nothing
    // dials (a dead child never produces a poll event here).
    const int wait_ms = static_cast<int>(
        std::min<long long>(remaining.count(), keep_waiting ? 100 : 1000));
    int r;
    do {
      r = ::poll(fds.data(), fds.size(), wait_ms);
    } while (r < 0 && errno == EINTR);
    if (r < 0) {
      SetError(std::string("poll failed during handshake: ") +
               SafeStrerror(errno));
      close_pending();
      return false;
    }

    if (fds[0].revents & POLLIN) {
      const int conn = ::accept4(listen_fd_, nullptr, nullptr,
                                 SOCK_CLOEXEC | SOCK_NONBLOCK);
      if (conn >= 0) {
        pending.push_back({conn, {}});
        // Delta/feedback frames are latency-sensitive epoch boundaries.
        const int yes = 1;
        ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
      }
    }

    // Walk only the connections that were in this round's poll set (a
    // just-accepted one gets read next round); fds[1 + i] mirrors
    // pending[i]. Descending order keeps the mapping valid across
    // erases.
    for (size_t i = polled_pending; i-- > 0;) {
      if (!(fds[i + 1].revents & (POLLIN | POLLHUP | POLLERR))) {
        continue;
      }
      PendingConn& conn = pending[i];
      uint8_t chunk[512];
      const ssize_t n = ::read(conn.fd, chunk, sizeof(chunk));
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)) {
        continue;
      }
      bool reject = n <= 0;  // EOF or error before a full hello.
      int worker = -1;
      if (!reject) {
        conn.buffer.insert(conn.buffer.end(), chunk, chunk + n);
        size_t frame_size = 0;
        if (conn.buffer.size() >= wire::kFrameHeaderSize &&
            !wire::FrameSize(conn.buffer.data(), conn.buffer.size(),
                             &frame_size)) {
          reject = true;  // Not even a valid frame header.
        } else if (frame_size == 0 || conn.buffer.size() < frame_size) {
          continue;  // Hello still arriving.
        } else {
          ShardHelloRecord hello;
          // Exactly one hello frame and nothing else: a shard child
          // blocks on its start frames before sending anything more, so
          // trailing bytes mean this is not a shard child.
          reject = conn.buffer.size() != frame_size ||
                   !wire::Decode(conn.buffer.data(), frame_size, &hello) ||
                   hello.worker < 0 || hello.worker >= options_.workers ||
                   claimed.count(hello.worker) != 0;
          worker = hello.worker;
        }
      }
      if (reject) {
        // Reconnect-or-fail: drop this dialer, keep listening — the
        // launcher may retry, and a stray connection must not sink the
        // campaign.
        ::close(conn.fd);
        pending.erase(pending.begin() + static_cast<long>(i));
        continue;
      }
      const int fd = conn.fd;
      pending.erase(pending.begin() + static_cast<long>(i));
      if (!AdoptChannel(worker, fd)) {
        close_pending();
        return false;
      }
      claimed.insert(worker);
    }
  }
  close_pending();  // Stray dialers that arrived after the roster filled.
  ::close(listen_fd_);
  listen_fd_ = -1;
  return true;
}

int DialShardSocket(const std::string& address, uint16_t port, int worker,
                    std::string* error) {
  std::string resolve_error;
  addrinfo* info =
      ResolveAddress(address, port, /*passive=*/false, &resolve_error);
  if (info == nullptr) {
    *error = resolve_error;
    return -1;
  }
  int fd = -1;
  std::string last_error = "no usable address";
  for (addrinfo* ai = info; ai != nullptr && fd < 0; ai = ai->ai_next) {
    const int candidate = ::socket(
        ai->ai_family, ai->ai_socktype | SOCK_CLOEXEC, ai->ai_protocol);
    if (candidate < 0) {
      last_error = std::string("socket() failed: ") + SafeStrerror(errno);
      continue;
    }
    // The parent listens before launching children, so a refusal can only
    // be a transiently full accept queue; retry briefly rather than
    // declaring the shard unlaunchable.
    for (int attempt = 0; attempt < 50; ++attempt) {
      int rc;
      do {
        rc = ::connect(candidate, ai->ai_addr, ai->ai_addrlen);
      } while (rc != 0 && errno == EINTR);
      if (rc == 0) {
        fd = candidate;
        break;
      }
      last_error = std::string("connect failed: ") + SafeStrerror(errno);
      if (errno != ECONNREFUSED && errno != ETIMEDOUT) {
        break;
      }
      ::usleep(20000);
    }
    if (fd < 0) {
      ::close(candidate);
    }
  }
  ::freeaddrinfo(info);
  if (fd < 0) {
    *error = last_error;
    return -1;
  }
  const int yes = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &yes, sizeof(yes));
  ShardHelloRecord hello;
  hello.worker = worker;
  if (!WritePipeFrame(fd, wire::Encode(hello))) {
    *error = std::string("hello write failed: ") + SafeStrerror(errno);
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace neco
