#include "oms/service/service.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <thread>

#include "oms/service/protocol.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/telemetry/metrics.hpp"
#include "oms/util/fault_injection.hpp"
#include "oms/util/io_error.hpp"

namespace oms::service {
namespace {

[[nodiscard]] std::vector<char> error_reply(Status status,
                                            const std::string& message) {
  CheckpointWriter w;
  w.put_u32(static_cast<std::uint32_t>(status));
  w.put_string(message);
  return w.bytes();
}

/// Per-opcode telemetry counter. A request counts under its opcode as soon
/// as the opcode parses (typed error replies included); frames too short to
/// carry one, and unknown opcodes, count as invalid.
[[nodiscard]] telemetry::Counter op_counter(Op op) noexcept {
  switch (op) {
    case Op::kWhere: return telemetry::Counter::kServiceReqWhere;
    case Op::kRank: return telemetry::Counter::kServiceReqRank;
    case Op::kBatch: return telemetry::Counter::kServiceReqBatch;
    case Op::kStats: return telemetry::Counter::kServiceReqStats;
    case Op::kSnapshot: return telemetry::Counter::kServiceReqSnapshot;
    case Op::kShutdown: return telemetry::Counter::kServiceReqShutdown;
    case Op::kMetrics: return telemetry::Counter::kServiceReqMetrics;
  }
  return telemetry::Counter::kServiceReqInvalid;
}

} // namespace

Reply PartitionService::handle(const char* body, std::size_t size) const {
  const telemetry::TraceSpan span(telemetry::Hist::kServiceRequest);
  requests_.fetch_add(1, std::memory_order_relaxed);
  Reply reply;
  CheckpointReader r(body, size);
  CheckpointWriter ok;
  ok.put_u32(static_cast<std::uint32_t>(Status::kOk));
  std::string snapshot_path;
  try {
    // Operand parsing rides the bounds-checked CheckpointReader: a short
    // body throws IoError from any get_*, trailing bytes from expect_end —
    // both are kBadFrame. No operand escapes validation before use.
    const auto op = static_cast<Op>(r.get_u32());
    telemetry::metric_add(op_counter(op));
    switch (op) {
      case Op::kWhere:
      case Op::kRank: {
        const std::uint64_t id = r.get_u64();
        r.expect_end();
        const std::int64_t answer = op == Op::kWhere
                                        ? static_cast<std::int64_t>(artifact_.where(id))
                                        : artifact_.rank_of(id);
        if (answer < 0) {
          reply.body = error_reply(
              Status::kOutOfRange,
              "id " + std::to_string(id) + " outside the artifact (holds " +
                  std::to_string(artifact_.assignment.size()) + " items)");
          return reply;
        }
        ok.put_u32(static_cast<std::uint32_t>(answer));
        break;
      }
      case Op::kBatch: {
        const std::uint32_t count = r.get_u32();
        // 8 bytes per id: a count the body cannot actually hold is a framing
        // lie, caught before any allocation sized by it.
        if (std::uint64_t{count} * 8 > r.remaining()) {
          throw IoError("batch count larger than the frame body");
        }
        ok.put_u32(count);
        for (std::uint32_t i = 0; i < count; ++i) {
          const BlockId b = artifact_.where(r.get_u64());
          ok.put_u32(b == kInvalidBlock ? kInvalidEntry
                                        : static_cast<std::uint32_t>(b));
        }
        r.expect_end();
        break;
      }
      case Op::kStats: {
        r.expect_end();
        ok.put_u32(artifact_.edge_partition ? 1 : 0);
        ok.put_u32(static_cast<std::uint32_t>(artifact_.k));
        ok.put_u64(artifact_.assignment.size());
        ok.put_u64(artifact_.num_nodes);
        ok.put_u64(artifact_.num_edges);
        ok.put_u64(requests_served());
        ok.put_f64(artifact_.elapsed_s);
        ok.put_string(artifact_.algo);
        break;
      }
      case Op::kSnapshot: {
        snapshot_path = r.get_string();
        r.expect_end();
        break; // the write happens below, outside the kBadFrame catch
      }
      case Op::kShutdown: {
        r.expect_end();
        reply.shutdown = true;
        break;
      }
      case Op::kMetrics: {
        r.expect_end();
        // The reply is always a valid "oms.metrics.v1" document; a daemon
        // running without telemetry armed reports all-zero metrics rather
        // than an error, so clients need no capability probe.
        const telemetry::MetricsRegistry* reg =
            telemetry::MetricsRegistry::armed();
        const telemetry::MetricsSnapshot snap =
            reg != nullptr ? reg->scrape() : telemetry::MetricsSnapshot{};
        ok.put_string(snap.to_json());
        break;
      }
      default:
        reply.body = error_reply(
            Status::kBadOp,
            "unknown opcode " + std::to_string(static_cast<std::uint32_t>(op)));
        return reply;
    }
  } catch (const IoError& e) {
    telemetry::metric_add(telemetry::Counter::kServiceReqInvalid);
    reply.body = error_reply(Status::kBadFrame, e.what());
    reply.shutdown = false; // a malformed kShutdown shuts nothing down
    return reply;
  }
  if (!snapshot_path.empty()) {
    try {
      write_artifact(artifact_, snapshot_path);
    } catch (const IoError& e) {
      reply.body = error_reply(Status::kIo, e.what());
      return reply;
    }
  }
  reply.body = ok.bytes();
  return reply;
}

// --- graceful drain ---------------------------------------------------------

namespace {
/// Process-global drain latch: one relaxed store from a signal handler flips
/// every serve loop into drain mode at its next poll slice.
std::atomic<bool> g_drain{false};
} // namespace

void request_drain() noexcept { g_drain.store(true, std::memory_order_relaxed); }

bool drain_requested() noexcept {
  return g_drain.load(std::memory_order_relaxed);
}

void reset_drain() noexcept { g_drain.store(false, std::memory_order_relaxed); }

// --- transport helpers ------------------------------------------------------

namespace {

/// Granularity of every blocking wait: deadlines and the drain latch are
/// re-checked at least this often, so a drain never waits on a silent peer.
constexpr int kPollSliceMs = 25;

[[nodiscard]] bool session_draining(const SessionOptions& options) noexcept {
  return drain_requested() ||
         (options.stop != nullptr &&
          options.stop->load(std::memory_order_acquire));
}

enum class ReadStatus {
  kOk,      ///< all requested bytes arrived
  kClosed,  ///< EOF or read error: the peer is gone
  kTimeout, ///< the idle deadline expired without progress
  kDrain,   ///< a drain began before the first byte arrived
};

/// Read exactly \p bytes with the session's idle deadline and the drain
/// latch enforced at poll granularity. The deadline is per-progress: any
/// arriving byte resets it (a slow-but-alive peer survives, a stalled one
/// does not). \p drain_breaks is set only at a frame boundary — once a
/// frame's first byte arrived, the frame is in flight and drains wait for it.
[[nodiscard]] ReadStatus read_exact(int fd, void* out, std::size_t bytes,
                                    const SessionOptions& options,
                                    bool drain_breaks) {
  auto* cur = static_cast<char*>(out);
  int idle_ms = 0;
  while (bytes > 0) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    const int ready = ::poll(&p, 1, kPollSliceMs);
    if (ready < 0) {
      if (errno == EINTR) {
        continue; // the next pass re-checks the drain latch
      }
      return ReadStatus::kClosed;
    }
    if (ready == 0) {
      if (drain_breaks && session_draining(options)) {
        return ReadStatus::kDrain;
      }
      idle_ms += kPollSliceMs;
      if (options.idle_timeout_ms > 0 && idle_ms >= options.idle_timeout_ms) {
        return ReadStatus::kTimeout;
      }
      continue;
    }
    if (fault_fires(FaultSite::kSvcRead)) {
      return ReadStatus::kClosed; // injected torn read
    }
    const ssize_t got = ::read(fd, cur, bytes);
    if (got <= 0) {
      if (got < 0 && errno == EINTR) {
        continue;
      }
      return ReadStatus::kClosed;
    }
    cur += got;
    bytes -= static_cast<std::size_t>(got);
    idle_ms = 0;
    drain_breaks = false; // the frame is in flight now; finish it
  }
  return ReadStatus::kOk;
}

/// True iff \p fd is a socket — reply writes on sockets use MSG_NOSIGNAL so
/// a peer that hung up mid-reply yields EPIPE, not a process-killing SIGPIPE.
/// (Pipes cannot take MSG_NOSIGNAL; oms_serve additionally ignores SIGPIPE
/// process-wide for its stdio transport.)
[[nodiscard]] bool fd_is_socket(int fd) noexcept {
  int type = 0;
  socklen_t len = sizeof type;
  return ::getsockopt(fd, SOL_SOCKET, SO_TYPE, &type, &len) == 0;
}

[[nodiscard]] bool write_all(int fd, const void* data, std::size_t bytes,
                             bool is_socket) {
  if (fault_fires(FaultSite::kSvcWrite)) {
    return false; // injected torn write: the caller drops the connection
  }
  const auto* cur = static_cast<const char*>(data);
  while (bytes > 0) {
    const ssize_t put = is_socket ? ::send(fd, cur, bytes, MSG_NOSIGNAL)
                                  : ::write(fd, cur, bytes);
    if (put <= 0) {
      if (put < 0 && errno == EINTR) {
        continue;
      }
      return false;
    }
    cur += put;
    bytes -= static_cast<std::size_t>(put);
  }
  return true;
}

[[nodiscard]] bool send_reply(int fd, const std::vector<char>& body,
                              bool is_socket) {
  const std::vector<char> framed = frame(body);
  return write_all(fd, framed.data(), framed.size(), is_socket);
}

/// The kShuttingDown close of a session or a drained-off accept.
void send_drain_reply(int fd, bool is_socket) {
  telemetry::metric_add(telemetry::Counter::kServiceDrains);
  (void)send_reply(fd,
                   error_reply(Status::kShuttingDown,
                               "daemon is draining; no new requests accepted"),
                   is_socket);
}

} // namespace

bool serve_stream(const PartitionService& service, int in_fd, int out_fd,
                  const SessionOptions& options) {
  const bool out_is_socket = fd_is_socket(out_fd);
  std::vector<char> body;
  for (;;) {
    // Frame boundary: the drain decision point. Everything accepted before
    // this line is in flight and gets answered; everything after is refused.
    if (session_draining(options)) {
      send_drain_reply(out_fd, out_is_socket);
      return false;
    }
    if (fault_fires(FaultSite::kSvcSlow)) {
      // Simulate a stalled peer (slow loris): burn the idle budget in poll
      // slices. With a deadline configured this must end in the same clean
      // timeout close a real stalled client gets; without one it is jitter.
      if (options.idle_timeout_ms > 0) {
        for (int waited = 0; waited < options.idle_timeout_ms;
             waited += kPollSliceMs) {
          std::this_thread::sleep_for(std::chrono::milliseconds(kPollSliceMs));
        }
        telemetry::metric_add(telemetry::Counter::kServiceTimeouts);
        return false;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2 * kPollSliceMs));
    }
    std::uint32_t body_len = 0;
    switch (read_exact(in_fd, &body_len, sizeof body_len, options,
                       /*drain_breaks=*/true)) {
      case ReadStatus::kClosed:
        return false; // client hung up (or died mid-prefix)
      case ReadStatus::kTimeout:
        telemetry::metric_add(telemetry::Counter::kServiceTimeouts);
        return false; // dead or stalled peer: reclaim the worker
      case ReadStatus::kDrain:
        send_drain_reply(out_fd, out_is_socket);
        return false;
      case ReadStatus::kOk:
        break;
    }
    if (body_len > kMaxFrameBytes) {
      // The declared length is the only way to find the next frame, so an
      // implausible one is unrecoverable: answer with the typed error, then
      // drop the connection instead of consuming gigabytes looking for it.
      (void)send_reply(out_fd,
                       error_reply(Status::kTooLarge,
                                   "frame body of " + std::to_string(body_len) +
                                       " bytes exceeds the limit of " +
                                       std::to_string(kMaxFrameBytes)),
                       out_is_socket);
      return false;
    }
    body.resize(body_len);
    if (body_len > 0) {
      switch (read_exact(in_fd, body.data(), body_len, options,
                         /*drain_breaks=*/false)) {
        case ReadStatus::kClosed:
        case ReadStatus::kDrain:
          return false; // truncated frame: client died mid-send
        case ReadStatus::kTimeout:
          telemetry::metric_add(telemetry::Counter::kServiceTimeouts);
          return false;
        case ReadStatus::kOk:
          break;
      }
    }
    const Reply reply = service.handle(body.data(), body.size());
    if (!send_reply(out_fd, reply.body, out_is_socket)) {
      return false;
    }
    if (reply.shutdown) {
      return true;
    }
  }
}

bool serve_stream(const PartitionService& service, int in_fd, int out_fd) {
  return serve_stream(service, in_fd, out_fd, SessionOptions{});
}

namespace {

/// One connection's thread handle plus its completion latch; the accept loop
/// joins finished workers eagerly, so at most max_conns slots ever exist.
struct Worker {
  std::thread thread;
  std::atomic<bool> done{false};
};

/// Refuse to steal a socket another live daemon still answers on: only a
/// connect() that the kernel refuses proves the previous owner is dead.
void probe_stale_socket(const sockaddr_un& addr, const std::string& path) {
  if (::access(path.c_str(), F_OK) != 0) {
    return; // nothing there: a fresh bind
  }
  const int probe = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (probe < 0) {
    return; // cannot probe; fall through to the bind, which will report
  }
  const bool live = ::connect(probe, reinterpret_cast<const sockaddr*>(&addr),
                              sizeof addr) == 0;
  ::close(probe);
  if (live) {
    throw IoError("refusing to replace '" + path +
                  "': another daemon is accepting connections on it");
  }
  ::unlink(path.c_str()); // genuinely stale: the owner is gone
}

/// Admission-time refusal: one unsolicited typed reply, then close. The
/// client's next read gets the verdict instead of a silent reset.
void shed_connection(int conn, Status status, const std::string& message) {
  (void)send_reply(conn, error_reply(status, message), /*is_socket=*/true);
  ::close(conn);
}

/// listen(2) backlog of the Unix socket.
constexpr int kListenBacklog = 16;

} // namespace

void serve_unix_socket(const PartitionService& service,
                       const std::string& socket_path,
                       const ServeOptions& options) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof addr.sun_path) {
    throw IoError("socket path too long for AF_UNIX: '" + socket_path + "'");
  }
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  probe_stale_socket(addr, socket_path);

  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    throw IoError(std::string("socket(AF_UNIX): ") + std::strerror(errno));
  }
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd, kListenBacklog) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd);
    throw IoError("cannot listen on '" + socket_path + "': " + reason);
  }

  const int max_conns = options.max_conns > 0 ? options.max_conns : 1;
  std::atomic<bool> stop{false};
  SessionOptions session;
  session.idle_timeout_ms = options.idle_timeout_ms;
  session.stop = &stop;

  std::vector<std::unique_ptr<Worker>> slots;
  slots.reserve(static_cast<std::size_t>(max_conns));
  const auto reap_finished = [&slots] {
    for (auto it = slots.begin(); it != slots.end();) {
      if ((*it)->done.load(std::memory_order_acquire)) {
        (*it)->thread.join();
        it = slots.erase(it);
      } else {
        ++it;
      }
    }
    telemetry::gauge_set(telemetry::Gauge::kServiceConnsActive, slots.size());
  };

  for (;;) {
    reap_finished();
    const bool stopping =
        stop.load(std::memory_order_acquire) || drain_requested();
    if (stopping && slots.empty()) {
      break; // drained: every in-flight session answered and reaped
    }
    pollfd p{};
    p.fd = listen_fd;
    p.events = POLLIN;
    const int ready = ::poll(&p, 1, kPollSliceMs);
    if (ready < 0) {
      if (errno == EINTR) {
        continue; // a signal (probably the drain request) — re-check
      }
      break;
    }
    if (ready == 0) {
      continue; // poll slice: re-check stop/drain and reap
    }
    const int conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) {
        continue;
      }
      if (stop.load(std::memory_order_acquire) || drain_requested()) {
        // The kShutdown worker shut the listen fd down; wait out the
        // remaining sessions at poll cadence instead of spinning on it.
        std::this_thread::sleep_for(std::chrono::milliseconds(kPollSliceMs));
        continue;
      }
      break; // real accept failure on a live server
    }
    if (fault_fires(FaultSite::kSvcAccept)) {
      ::close(conn); // injected accept-path death: the daemon keeps serving
      continue;
    }
    // Re-check AFTER accept: a kShutdown or drain decided while this
    // connection sat in the backlog must not spawn a session past the drain
    // decision (the shutdown race).
    if (stop.load(std::memory_order_acquire) || drain_requested()) {
      telemetry::metric_add(telemetry::Counter::kServiceDrains);
      shed_connection(conn, Status::kShuttingDown,
                      "daemon is draining; no new connections accepted");
      continue;
    }
    if (static_cast<int>(slots.size()) >= max_conns) {
      telemetry::metric_add(telemetry::Counter::kServiceConnsRejected);
      shed_connection(conn, Status::kOverloaded,
                      "daemon is at its connection limit of " +
                          std::to_string(max_conns) + "; retry with backoff");
      continue;
    }
    telemetry::metric_add(telemetry::Counter::kServiceConnsAccepted);
    auto worker = std::make_unique<Worker>();
    Worker* w = worker.get();
    slots.push_back(std::move(worker));
    telemetry::gauge_set(telemetry::Gauge::kServiceConnsActive, slots.size());
    w->thread = std::thread([&service, &stop, &session, listen_fd, conn, w] {
      if (serve_stream(service, conn, conn, session)) {
        stop.store(true, std::memory_order_release);
        // Unblock the accept() so the server loop can wind down.
        ::shutdown(listen_fd, SHUT_RDWR);
      }
      ::close(conn);
      w->done.store(true, std::memory_order_release);
    });
  }
  for (const std::unique_ptr<Worker>& worker : slots) {
    worker->thread.join();
  }
  telemetry::gauge_set(telemetry::Gauge::kServiceConnsActive, 0);
  ::close(listen_fd);
  ::unlink(socket_path.c_str());
}

void serve_unix_socket(const PartitionService& service,
                       const std::string& socket_path) {
  serve_unix_socket(service, socket_path, ServeOptions{});
}

} // namespace oms::service
