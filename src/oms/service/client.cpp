#include "oms/service/client.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "oms/stream/checkpoint.hpp"
#include "oms/util/io_error.hpp"

namespace oms::service {
namespace {

/// Seed of the backoff jitter rng ("client").
constexpr std::uint64_t kJitterSeed = 0x636c69656e74ULL;

/// Internal retry trigger: any transport-level failure of one attempt. Never
/// escapes request() — the last one is converted into the final IoError.
struct TransportError {
  std::string what;
};

[[nodiscard]] TransportError transport_error(const std::string& context) {
  return TransportError{context + ": " + std::strerror(errno)};
}

/// Wait for \p events on \p fd within \p timeout_ms; false on timeout/error.
[[nodiscard]] bool poll_for(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    const int ready = ::poll(&p, 1, timeout_ms);
    if (ready > 0) {
      return true;
    }
    if (ready == 0) {
      return false;
    }
    if (errno != EINTR) {
      return false;
    }
  }
}

} // namespace

ServiceClient::ServiceClient(std::string socket_path, ClientConfig config)
    : socket_path_(std::move(socket_path)),
      config_(config),
      jitter_(kJitterSeed) {}

ServiceClient::~ServiceClient() { disconnect(); }

void ServiceClient::disconnect() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  rx_len_ = 0;
  rx_done_ = 0;
}

void ServiceClient::ensure_connected() {
  if (fd_ >= 0) {
    return;
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path_.size() >= sizeof addr.sun_path) {
    throw IoError("socket path too long for AF_UNIX: '" + socket_path_ + "'");
  }
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
  if (fd < 0) {
    throw transport_error("socket(AF_UNIX)");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      ::close(fd);
      throw transport_error("connect('" + socket_path_ + "')");
    }
    // Non-blocking connect in flight: wait for writability, then read the
    // verdict out of SO_ERROR — the standard deadline-bounded connect.
    if (!poll_for(fd, POLLOUT, config_.connect_timeout_ms)) {
      ::close(fd);
      throw TransportError{"connect('" + socket_path_ + "'): timed out after " +
                           std::to_string(config_.connect_timeout_ms) + " ms"};
    }
    int err = 0;
    socklen_t len = sizeof err;
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      errno = err != 0 ? err : errno;
      throw transport_error("connect('" + socket_path_ + "')");
    }
  }
  // Back to blocking: writes block briefly at worst; a reply is read by
  // blocking recv under the receive timeout armed here.
  const int flags = ::fcntl(fd, F_GETFL);
  if (flags >= 0) {
    (void)::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
  }
  fd_ = fd;
  ++connects_;
  arm_receive(config_.request_timeout_ms);
}

void ServiceClient::backoff(int attempt) noexcept {
  // Exponential with full-range jitter over the upper half, drawn from a
  // fixed-seed rng: every client backs off on the same deterministic schedule.
  std::int64_t delay = config_.backoff_base_ms;
  for (int i = 1; i < attempt && delay < config_.backoff_cap_ms; ++i) {
    delay *= 2;
  }
  delay = std::min<std::int64_t>(delay, config_.backoff_cap_ms);
  if (delay <= 0) {
    return;
  }
  const std::int64_t jittered =
      delay / 2 +
      static_cast<std::int64_t>(jitter_.next_below(
          static_cast<std::uint64_t>(delay / 2 + 1)));
  std::this_thread::sleep_for(std::chrono::milliseconds(jittered));
}

void ServiceClient::arm_receive(int timeout_ms) {
  const int ms = std::max(timeout_ms, 1); // a zero timeval would never expire
  const timeval limit{ms / 1000, (ms % 1000) * 1000};
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &limit, sizeof limit) != 0) {
    throw transport_error("setsockopt(SO_RCVTIMEO)");
  }
  armed_ms_ = timeout_ms;
}

std::span<const char> ServiceClient::receive_frame() {
  if (rx_done_ > 0) { // drop the frame the previous call returned
    std::copy(rx_.begin() + static_cast<std::ptrdiff_t>(rx_done_),
              rx_.begin() + static_cast<std::ptrdiff_t>(rx_len_), rx_.begin());
    rx_len_ -= rx_done_;
    rx_done_ = 0;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(config_.request_timeout_ms);
  const auto timed_out = [this] {
    return TransportError{"request timed out after " +
                          std::to_string(config_.request_timeout_ms) + " ms"};
  };
  for (bool first = true;; first = false) {
    if (rx_len_ >= sizeof(std::uint32_t)) {
      std::uint32_t body_len = 0;
      std::memcpy(&body_len, rx_.data(), sizeof body_len);
      if (body_len > kMaxFrameBytes) {
        throw TransportError{"reply frame of " + std::to_string(body_len) +
                             " bytes exceeds the protocol limit"};
      }
      const std::size_t frame_bytes = sizeof body_len + body_len;
      if (rx_len_ >= frame_bytes) {
        rx_done_ = frame_bytes;
        return {rx_.data() + sizeof body_len, body_len};
      }
      rx_.resize(std::max(rx_.size(), frame_bytes));
    }
    // The first receive waits the whole request_timeout_ms, armed at
    // connect (or restored here after an earlier reply shortened it); a
    // reply that needs another receive re-arms it to the time left, so
    // request_timeout_ms bounds the whole reply.
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (left <= 0) {
      throw timed_out();
    }
    if (!first) {
      arm_receive(static_cast<int>(left));
    } else if (armed_ms_ != config_.request_timeout_ms) {
      arm_receive(config_.request_timeout_ms);
    }
    const ssize_t got =
        ::recv(fd_, rx_.data() + rx_len_, rx_.size() - rx_len_, 0);
    if (got < 0 && errno == EINTR) {
      continue;
    }
    if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      throw timed_out();
    }
    if (got == 0) {
      throw TransportError{"connection torn mid-reply"};
    }
    if (got < 0) {
      throw transport_error("recv");
    }
    rx_len_ += static_cast<std::size_t>(got);
  }
}

ClientReply ServiceClient::request(std::span<const char> body) {
  const auto body_len = static_cast<std::uint32_t>(body.size());
  tx_.resize(sizeof body_len + body.size());
  std::memcpy(tx_.data(), &body_len, sizeof body_len);
  std::copy(body.begin(), body.end(), tx_.begin() + sizeof body_len);
  std::string last_error = "no attempt made";
  for (int attempt = 1; attempt <= config_.max_attempts; ++attempt) {
    if (attempt > 1) {
      backoff(attempt - 1);
    }
    try {
      ensure_connected();
      // Write the frame; a torn write means the daemon (or its worker) died.
      const char* cur = tx_.data();
      std::size_t bytes = tx_.size();
      while (bytes > 0) {
        const ssize_t put = ::send(fd_, cur, bytes, MSG_NOSIGNAL);
        if (put <= 0) {
          if (put < 0 && errno == EINTR) {
            continue;
          }
          if (put < 0 && (errno == EPIPE || errno == ECONNRESET)) {
            // The daemon closed first — an admission verdict (kOverloaded /
            // kShuttingDown) may already sit in the receive buffer. Fall
            // through and read it before declaring the attempt torn.
            break;
          }
          throw transport_error("send");
        }
        cur += put;
        bytes -= static_cast<std::size_t>(put);
      }
      const std::span<const char> reply = receive_frame();
      if (reply.size() < sizeof(std::uint32_t)) {
        throw TransportError{"reply too short to carry a status"};
      }
      std::uint32_t status_word = 0;
      std::memcpy(&status_word, reply.data(), sizeof status_word);
      const auto status = static_cast<Status>(status_word);
      ClientReply out;
      out.status = status;
      out.payload.assign(reply.begin() + sizeof status_word, reply.end());
      if (status == Status::kOverloaded) {
        // The daemon shed this connection at admission and closed it; this
        // is its explicit "retry with backoff" signal — obey it if an
        // attempt remains, surface it typed otherwise.
        disconnect();
        if (attempt < config_.max_attempts) {
          last_error = "daemon overloaded";
          continue;
        }
      }
      if (status == Status::kShuttingDown) {
        // The daemon is draining: the connection is gone and retrying the
        // same socket cannot succeed. Surface immediately.
        disconnect();
      }
      return out;
    } catch (const TransportError& e) {
      disconnect();
      last_error = e.what;
    }
  }
  throw IoError("service request failed after " +
                std::to_string(config_.max_attempts) + " attempt(s) to '" +
                socket_path_ + "': " + last_error);
}

namespace {

[[nodiscard]] ClientReply expect_ok(ClientReply reply, const char* op) {
  if (reply.status != Status::kOk) {
    CheckpointReader r(reply.payload);
    std::string message;
    try {
      message = r.get_string();
    } catch (const IoError&) {
      message = "(no message)";
    }
    throw IoError(std::string(op) + ": daemon replied " +
                  status_name(reply.status) + ": " + message);
  }
  return reply;
}

} // namespace

std::uint32_t ServiceClient::where(std::uint64_t id) {
  const ClientReply reply = expect_ok(request(encode_where(id)), "WHERE");
  CheckpointReader r(reply.payload);
  return r.get_u32();
}

std::uint32_t ServiceClient::rank(std::uint64_t id) {
  const ClientReply reply = expect_ok(request(encode_rank(id)), "RANK");
  CheckpointReader r(reply.payload);
  return r.get_u32();
}

std::vector<std::uint32_t> ServiceClient::batch(
    std::span<const std::uint64_t> ids) {
  const ClientReply reply = expect_ok(request(encode_batch(ids)), "BATCH");
  CheckpointReader r(reply.payload);
  const std::uint32_t count = r.get_u32();
  std::vector<std::uint32_t> blocks(count);
  for (std::uint32_t& block : blocks) {
    block = r.get_u32();
  }
  r.expect_end();
  return blocks;
}

ClientStats ServiceClient::stats() {
  const ClientReply reply = expect_ok(request(encode_stats()), "STATS");
  CheckpointReader r(reply.payload);
  ClientStats out;
  out.edge_partition = r.get_u32() != 0;
  out.k = r.get_u32();
  out.items = r.get_u64();
  out.num_nodes = r.get_u64();
  out.num_edges = r.get_u64();
  out.requests_served = r.get_u64();
  out.elapsed_s = r.get_f64();
  out.algo = r.get_string();
  r.expect_end();
  return out;
}

} // namespace oms::service
