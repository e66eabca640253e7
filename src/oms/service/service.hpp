/// \file service.hpp
/// \brief Partition-as-a-service: a PartitionArtifact served over the frame
///        protocol of protocol.hpp, hardened for long-lived daemons.
///
/// PartitionService::handle() is the pure core — request body in, reply body
/// out, never throws, no I/O except an explicit kSnapshot — so the whole
/// malformed-frame matrix is testable without a socket. The serve_* loops
/// add the transport and its production armor:
///
///  * Bounded connections: serve_unix_socket admits at most
///    ServeOptions::max_conns concurrent sessions. Excess connections get a
///    single unsolicited kOverloaded reply and a close — accept-time
///    admission control instead of unbounded thread spawning. Finished
///    worker threads are reaped eagerly on every accept-loop pass, so a
///    long-lived daemon holds at most max_conns thread handles.
///  * Deadlines: ServeOptions/SessionOptions::idle_timeout_ms converts a
///    slow-loris or dead-peer connection into a clean close (counted in the
///    service.timeouts metric) instead of a worker parked forever in read().
///  * Graceful drain: request_drain() (async-signal-safe; oms_serve calls it
///    from its SIGTERM/SIGINT handlers) stops admission, answers in-flight
///    requests, replies kShuttingDown to frames and connections arriving
///    after the drain began, then lets the serve loops return cleanly.
///  * Socket liveness probe: serve_unix_socket refuses to unlink a socket
///    path another live daemon is accepting on — only genuinely stale
///    sockets (dead owner) are replaced.
///  * Torn clients: reply writes use MSG_NOSIGNAL on sockets (and oms_serve
///    ignores SIGPIPE), so a client hanging up mid-reply costs one
///    connection, not the process.
///
/// Lookups touch only the immutable artifact, so concurrent connections need
/// no locking; the only shared mutable state is the served-requests counter
/// (relaxed atomic) and the connection-slot bookkeeping of the accept loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "oms/api/partition_artifact.hpp"

namespace oms::service {

/// A reply body plus the connection-control verdict the transport obeys.
struct Reply {
  std::vector<char> body;
  bool shutdown = false; ///< kShutdown acknowledged: stop the whole server
};

class PartitionService {
public:
  /// Takes ownership of the artifact; the service answers from it verbatim.
  explicit PartitionService(PartitionArtifact artifact)
      : artifact_(std::move(artifact)) {}

  [[nodiscard]] const PartitionArtifact& artifact() const noexcept {
    return artifact_;
  }

  /// Answer one request body (the frame payload, without the length prefix).
  /// Total function: malformed bodies yield typed error replies (kBadFrame /
  /// kBadOp / kOutOfRange / kIo), never an exception. Thread-safe.
  [[nodiscard]] Reply handle(const char* body, std::size_t size) const;

  /// Requests answered so far (any status), across all connections.
  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_.load(std::memory_order_relaxed);
  }

private:
  PartitionArtifact artifact_;
  mutable std::atomic<std::uint64_t> requests_{0};
};

// --- graceful drain ---------------------------------------------------------

/// Ask every serve loop in the process to drain: stop admitting, answer
/// in-flight requests, reply kShuttingDown to anything new, return.
/// Async-signal-safe (one relaxed atomic store) — the intended caller is a
/// SIGTERM/SIGINT handler.
void request_drain() noexcept;

/// True once request_drain() was called (and until reset_drain()).
[[nodiscard]] bool drain_requested() noexcept;

/// Re-arm after a drain (tests; a drained daemon process simply exits).
void reset_drain() noexcept;

// --- transports -------------------------------------------------------------

/// Per-session knobs shared by both transports.
struct SessionOptions {
  /// Maximum milliseconds to sit idle between frames (or mid-frame without
  /// progress) before the connection is closed; 0 = wait forever.
  int idle_timeout_ms = 0;
  /// Optional per-server stop flag (the socket transport passes its own);
  /// treated like a drain once set.
  const std::atomic<bool>* stop = nullptr;
};

/// Serve one blocking connection: read frames from \p in_fd, write replies
/// to \p out_fd until EOF, an idle-deadline expiry, a drain, an
/// unrecoverable framing violation (oversized length prefix — an error reply
/// is sent first), or kShutdown. Returns true iff kShutdown was received
/// (the caller stops the server).
bool serve_stream(const PartitionService& service, int in_fd, int out_fd,
                  const SessionOptions& options);
bool serve_stream(const PartitionService& service, int in_fd, int out_fd);

/// Accept-loop configuration of the Unix-socket transport.
struct ServeOptions {
  int max_conns = 64;      ///< concurrent session cap (shed kOverloaded past it)
  int idle_timeout_ms = 0; ///< per-session deadline; 0 = none
};

/// Bind \p socket_path (a genuinely stale socket file is replaced; a socket
/// another live daemon still answers on is refused with IoError), accept
/// connections into a bounded pool of serve_stream workers, and return once
/// any connection sends kShutdown or a drain was requested and every
/// in-flight session finished. Throws oms::IoError on socket setup failure.
void serve_unix_socket(const PartitionService& service,
                       const std::string& socket_path,
                       const ServeOptions& options);
void serve_unix_socket(const PartitionService& service,
                       const std::string& socket_path);

} // namespace oms::service
