/// \file client.hpp
/// \brief ServiceClient: a self-healing client for the oms_serve daemon.
///
/// The daemon side (service.hpp) survives misbehaving clients; this is the
/// mirror image — a client that survives a misbehaving transport. Every
/// request goes through one retry loop with:
///
///  * connect timeouts (non-blocking connect + poll, ClientConfig::
///    connect_timeout_ms) and per-request reply deadlines
///    (request_timeout_ms: a reply is read by blocking recv under a
///    receive timeout, re-armed to the time left when the reply needs a
///    second receive), so a wedged daemon costs bounded time;
///  * bounded exponential backoff with deterministic jitter between
///    attempts (backoff_base_ms doubling up to backoff_cap_ms);
///  * automatic reconnect on torn connections — a daemon that drops the
///    session mid-reply (crash, injected fault, restart) is transparent as
///    long as a retry attempt remains, and every request in this protocol
///    is an idempotent read, so resending is always safe;
///  * typed surfacing of the admission verdicts: kOverloaded is retried
///    with backoff (the daemon asked for exactly that), kShuttingDown is
///    returned immediately (the daemon is going away — retrying the same
///    socket is pointless).
///
/// request() returns the reply's Status for callers that want the verdict;
/// the typed helpers (where / rank / batch / stats) throw oms::IoError on
/// anything but kOk. Transport failure that outlives every attempt throws
/// IoError naming the last error. Not thread-safe: one ServiceClient per
/// thread (the daemon end multiplexes connections, not the client).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "oms/service/protocol.hpp"
#include "oms/util/random.hpp"

namespace oms::service {

struct ClientConfig {
  int connect_timeout_ms = 2000; ///< non-blocking connect deadline
  int request_timeout_ms = 5000; ///< whole-reply deadline per attempt
  int max_attempts = 4;          ///< total tries per request (1 = no retry)
  int backoff_base_ms = 10;      ///< first retry delay; doubles per attempt
  int backoff_cap_ms = 500;      ///< upper bound on a single backoff
};

/// A decoded reply: the status word plus the remaining payload bytes.
struct ClientReply {
  Status status = Status::kOk;
  std::vector<char> payload;
};

/// Decoded kStats payload (the ping/health-check surface).
struct ClientStats {
  bool edge_partition = false;
  std::uint32_t k = 0;
  std::uint64_t items = 0;
  std::uint64_t num_nodes = 0;
  std::uint64_t num_edges = 0;
  std::uint64_t requests_served = 0;
  double elapsed_s = 0.0;
  std::string algo;
};

class ServiceClient {
public:
  explicit ServiceClient(std::string socket_path, ClientConfig config = {});
  ~ServiceClient();
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;

  /// Send one request body and return the decoded reply, retrying through
  /// torn connections and kOverloaded verdicts as configured. Throws
  /// oms::IoError once every attempt failed at the transport level.
  [[nodiscard]] ClientReply request(std::span<const char> body);

  // Typed helpers: throw oms::IoError on any non-kOk status (the message
  // names it via status_name), including kShuttingDown.
  [[nodiscard]] std::uint32_t where(std::uint64_t id);
  [[nodiscard]] std::uint32_t rank(std::uint64_t id);
  [[nodiscard]] std::vector<std::uint32_t> batch(std::span<const std::uint64_t> ids);
  [[nodiscard]] ClientStats stats();

  /// Connections (re-)established so far — 1 on a healthy session; more
  /// means the retry machinery healed a torn connection.
  [[nodiscard]] int connects() const noexcept { return connects_; }

  /// Drop the current connection (the next request reconnects).
  void disconnect() noexcept;

private:
  void ensure_connected();            ///< throws TransportError internally
  void backoff(int attempt) noexcept; ///< sleep with jitter before a retry
  void arm_receive(int timeout_ms);   ///< set the socket's SO_RCVTIMEO
  /// Receive one reply frame under request_timeout_ms and return its body,
  /// valid until the next call. Bytes behind it (an unsolicited drain
  /// verdict) stay buffered for the next call.
  [[nodiscard]] std::span<const char> receive_frame();

  std::string socket_path_;
  ClientConfig config_;
  Rng jitter_;
  int fd_ = -1;
  int connects_ = 0;
  int armed_ms_ = 0;              ///< the receive timeout armed on fd_
  std::vector<char> tx_;          ///< the framed request, reused per call
  std::vector<char> rx_ = std::vector<char>(4096); ///< received reply bytes
  std::size_t rx_len_ = 0;        ///< bytes of rx_ received
  std::size_t rx_done_ = 0;       ///< bytes of rx_ returned by the last call
};

} // namespace oms::service
