// SocketTransport — multi-machine shard transport over TCP.
//
// The parent listens; shard children dial in. A fresh connection must
// open with exactly one ShardHelloRecord frame naming its worker, and
// that hello is the whole handshake: the connection becomes an ordinary
// byte-stream channel of the shared engine (FrameStreamTransport,
// src/core/transport/stream.h). Once every shard has checked in, the
// engine sends each its start frames like any other shard's; then
// ShardDelta frames stream up, FeedbackRecord frames stream down, and one
// ShardResultRecord — carrying the shard's crash reproduction inputs —
// closes the campaign.
//
// Handshake policy is reconnect-or-fail, and it covers everything up to
// the hello: a connection that handshakes badly (stray dialer, garbage
// bytes, unknown or duplicate worker, wrong magic) is dropped and the
// listener keeps accepting, so a launcher may retry a failed dial; when
// the accept deadline passes with shards still missing, the campaign
// fails with an error naming how many checked in. After the hello the
// policy hardens to fail-fast: an abruptly closed socket (child SIGKILLed
// before EOF, connection reset) is the dead-shard error, attributed to
// the worker via dead_worker() — never a hung drainer.
//
// Who dials is pluggable (CampaignOptions::remote_launcher): the default
// local launcher forks or execs subprocesses of this process, so tests
// and single-machine campaigns need no ssh; a remote launcher starts the
// same --necofuzz-shard-child binary on another machine and points it at
// listen_address:port().
#ifndef SRC_CORE_TRANSPORT_SOCKET_H_
#define SRC_CORE_TRANSPORT_SOCKET_H_

#include <cstdint>
#include <functional>
#include <string>

#include "src/core/transport/stream.h"

namespace neco {

struct SocketTransportOptions {
  int workers = 1;
  // Interface to bind; "127.0.0.1" serves the local-launcher case,
  // "0.0.0.0" (plus a routable address handed to the launcher) the
  // multi-machine one.
  std::string address = "127.0.0.1";
  uint16_t port = 0;  // 0 binds an ephemeral port; see port().
  // Handshake deadline for AcceptShards().
  double accept_timeout_seconds = 30.0;
};

class SocketTransport : public FrameStreamTransport {
 public:
  // Binds and listens immediately (the listener must exist before any
  // child is launched, so a child can never dial into nothing). Throws
  // std::runtime_error when the socket cannot be created or bound.
  explicit SocketTransport(SocketTransportOptions options);
  ~SocketTransport() override;

  // The resolved listen port (meaningful after an ephemeral bind); what
  // the launcher hands to children.
  uint16_t port() const { return port_; }

  // The listening descriptor — exposed so a fork-mode child body can
  // close its inherited copy (exec'd children never see it: O_CLOEXEC).
  int listen_fd() const { return listen_fd_; }

  // Runs the handshake loop until every worker in [0, workers) has dialed
  // in and sent a valid ShardHelloRecord — or the accept deadline passed,
  // or Abort() was called, or `keep_waiting` (when set, polled between
  // accept rounds) returned false (the engine uses it to fail fast when a
  // local child died before completing its handshake). Bad connections
  // are dropped and accepting continues (reconnect-or-fail). On success
  // the listener is closed and every connection is an adopted channel;
  // on failure error() names what went wrong. Call exactly once, before
  // the first frame is sent or drained.
  bool AcceptShards(const std::function<bool()>& keep_waiting = nullptr);

 private:
  // Single-threaded: written in the constructor and AcceptShards(), both
  // of which the engine sequences before the merge thread's first
  // Drain(). Shared mutable state (error/stats) lives in the
  // mu_-guarded base class.
  SocketTransportOptions options_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
};

// Child side of the handshake: dials `address:port` (retrying briefly on
// a refused connection, in case the listener's accept queue is briefly
// full) and sends the ShardHelloRecord for `worker`. Returns the
// connected descriptor — the caller reads its start frames next, which
// the parent sends once every shard has checked in — or -1 with a
// human-readable reason in `*error`.
int DialShardSocket(const std::string& address, uint16_t port, int worker,
                    std::string* error);

}  // namespace neco

#endif  // SRC_CORE_TRANSPORT_SOCKET_H_
