/// \file test_service_hardening.cpp
/// \brief Production armor of the serve loops: the connection cap sheds with
///        a typed kOverloaded verdict, idle deadlines reclaim silent peers
///        (but never slow-but-alive ones), a client hanging up mid-reply
///        costs the connection and not the process (the SIGPIPE regression),
///        graceful drain answers in-flight requests and refuses new work
///        with kShuttingDown, the socket liveness probe refuses to steal a
///        live daemon's socket, and a connection-churn stress run (the TSan
///        leg runs this) leaves the service.conns_* metrics reconciled.
#include "oms/oms.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "oms/graph/generators.hpp"
#include "oms/stream/checkpoint.hpp"

namespace oms::service {
namespace {

[[nodiscard]] PartitionService make_service(BlockId k = 8) {
  PartitionRequest req;
  req.algo = "oms";
  req.k = k;
  return PartitionService(
      Partitioner().partition(gen::barabasi_albert(1500, 4, 13), req));
}

/// Client-side frame write with MSG_NOSIGNAL, so a daemon that already
/// closed the connection can never SIGPIPE the test process.
[[nodiscard]] bool send_frame(int fd, const std::vector<char>& body) {
  const std::vector<char> framed = frame(body);
  const char* cur = framed.data();
  std::size_t left = framed.size();
  while (left > 0) {
    const ssize_t put = ::send(fd, cur, left, MSG_NOSIGNAL);
    if (put <= 0) {
      return false;
    }
    cur += put;
    left -= static_cast<std::size_t>(put);
  }
  return true;
}

[[nodiscard]] bool read_exactly(int fd, void* out, std::size_t bytes) {
  auto* cur = static_cast<char*>(out);
  while (bytes > 0) {
    const ssize_t got = ::read(fd, cur, bytes);
    if (got <= 0) {
      return false;
    }
    cur += got;
    bytes -= static_cast<std::size_t>(got);
  }
  return true;
}

/// Read one framed reply body; empty vector on EOF / torn connection.
[[nodiscard]] std::vector<char> read_reply(int fd) {
  std::uint32_t len = 0;
  if (!read_exactly(fd, &len, sizeof len)) {
    return {};
  }
  std::vector<char> body(len);
  if (len > 0 && !read_exactly(fd, body.data(), len)) {
    return {};
  }
  return body;
}

[[nodiscard]] Status status_of(const std::vector<char>& body) {
  CheckpointReader r(body);
  return static_cast<Status>(r.get_u32());
}

[[nodiscard]] int connect_to(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  for (int attempt = 0; attempt < 200; ++attempt) {
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      return fd;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ADD_FAILURE() << "could not connect to " << socket_path;
  ::close(fd);
  return -1;
}

/// Shut a socket daemon down, riding out transient kOverloaded sheds while
/// freed worker slots are still being reaped. Returns the number of
/// connections made, so metrics-reconciliation tests can count them.
int shutdown_daemon(const std::string& path) {
  for (int attempt = 1; attempt <= 100; ++attempt) {
    const int fd = connect_to(path);
    if (fd < 0) {
      return attempt; // connect_to already reported the failure
    }
    std::vector<char> reply;
    if (send_frame(fd, encode_shutdown())) {
      reply = read_reply(fd);
    }
    ::close(fd);
    if (!reply.empty() && status_of(reply) == Status::kOk) {
      return attempt;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  ADD_FAILURE() << "could not shut the daemon down at " << path;
  return 100;
}

/// Every test leaves the process-global drain latch and metrics hook clean,
/// so a failing case cannot poison its neighbors.
class ServiceHardeningTest : public ::testing::Test {
protected:
  void SetUp() override { reset_drain(); }
  void TearDown() override {
    reset_drain();
    telemetry::MetricsRegistry::disarm();
  }
};

// ---------------------------------------------------------------------------
// Bounded connections: admission control past max_conns.
// ---------------------------------------------------------------------------

TEST_F(ServiceHardeningTest, ConnectionCapShedsTypedOverloadedVerdict) {
  telemetry::MetricsRegistry registry;
  telemetry::MetricsRegistry::arm(registry);
  const PartitionService service = make_service();
  const std::string path = ::testing::TempDir() + "/oms_hard_overload.sock";
  ServeOptions options;
  options.max_conns = 2;
  std::thread server([&] { serve_unix_socket(service, path, options); });

  // Two holders fill both slots; one round trip each proves their workers
  // are live (not merely queued in the listen backlog).
  int holders[2];
  for (int& holder : holders) {
    holder = connect_to(path);
    ASSERT_GE(holder, 0);
    ASSERT_TRUE(send_frame(holder, encode_where(1)));
    ASSERT_EQ(status_of(read_reply(holder)), Status::kOk);
  }

  // The third connection gets one unsolicited kOverloaded verdict, then EOF
  // — a typed shed, not a silent reset.
  const int third = connect_to(path);
  ASSERT_GE(third, 0);
  EXPECT_EQ(status_of(read_reply(third)), Status::kOverloaded);
  EXPECT_TRUE(read_reply(third).empty()) << "a shed connection must close";
  ::close(third);

  // Freeing a slot readmits. ServiceClient obeys the kOverloaded verdict
  // with backoff, so it absorbs the reaping latency without test sleeps.
  ::close(holders[0]);
  ClientConfig config;
  config.max_attempts = 8;
  config.backoff_base_ms = 20;
  ServiceClient client(path, config);
  EXPECT_EQ(client.where(5),
            static_cast<std::uint32_t>(service.artifact().where(5)));
  client.disconnect();
  ::close(holders[1]);

  (void)shutdown_daemon(path);
  server.join();

  const telemetry::MetricsSnapshot snap = registry.scrape();
  EXPECT_GE(snap.counter(telemetry::Counter::kServiceConnsRejected), 1u);
  EXPECT_GE(snap.counter(telemetry::Counter::kServiceConnsAccepted), 3u);
  EXPECT_EQ(snap.gauge(telemetry::Gauge::kServiceConnsActive), 0u);
}

// ---------------------------------------------------------------------------
// SIGPIPE regression: a peer hanging up mid-reply must not kill the process.
// ---------------------------------------------------------------------------

TEST_F(ServiceHardeningTest, ClientHangupBeforeReadingTheReplyCostsTheSession) {
  const PartitionService service = make_service();
  int pair[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ASSERT_TRUE(send_frame(pair[0], encode_where(2)));
  ::close(pair[0]); // hang up before the reply is written
  // Without MSG_NOSIGNAL on the reply write this raises SIGPIPE and kills
  // the process; hardened, it is one EPIPE and a clean end of session.
  EXPECT_FALSE(serve_stream(service, pair[1], pair[1]));
  ::close(pair[1]);
}

// ---------------------------------------------------------------------------
// Idle deadlines: silent peers are reclaimed, slow-but-alive ones are not.
// ---------------------------------------------------------------------------

/// The three idle-deadline cases on one transport. The session reads
/// \p server_in and answers on \p server_out; the peer writes \p peer_out,
/// reads \p peer_in and ends its writes with \p end_writes; \p registry is
/// armed and counts the timeouts.
void expect_idle_deadline_reclaims_silent_peers_only(
    const PartitionService& service, int server_in, int server_out,
    int peer_out, int peer_in, const std::function<void()>& end_writes,
    const telemetry::MetricsRegistry& registry) {
  const auto timeouts = [&registry] {
    return registry.scrape().counter(telemetry::Counter::kServiceTimeouts);
  };
  const std::uint64_t timeouts_before = timeouts();
  SessionOptions options;
  options.idle_timeout_ms = 50;

  // A peer that never sends a byte times out at the frame boundary...
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(serve_stream(service, server_in, server_out, options));
  // ...and one that stalls mid-prefix times out too (no progress resets).
  ASSERT_EQ(::write(peer_out, "ab", 2), 2);
  EXPECT_FALSE(serve_stream(service, server_in, server_out, options));
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 2 * options.idle_timeout_ms - 10);
  EXPECT_EQ(timeouts() - timeouts_before, 2u);

  // A slow-but-alive peer never trips the per-progress deadline: one byte
  // every 10 ms stays under the 50 ms idle budget the whole way.
  std::thread dribble([&] {
    const std::vector<char> framed = frame(encode_where(3));
    for (const char byte : framed) {
      EXPECT_EQ(::write(peer_out, &byte, 1), 1);
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    end_writes();
  });
  EXPECT_FALSE(serve_stream(service, server_in, server_out, options));
  dribble.join();
  const std::vector<char> reply = read_reply(peer_in);
  ASSERT_EQ(status_of(reply), Status::kOk);
  {
    CheckpointReader r(reply);
    (void)r.get_u32();
    EXPECT_EQ(r.get_u32(),
              static_cast<std::uint32_t>(service.artifact().where(3)));
  }
  EXPECT_EQ(timeouts() - timeouts_before, 2u)
      << "the dribbling peer must not count as a timeout";
}

TEST_F(ServiceHardeningTest, IdleDeadlineReclaimsSilentPeersOnly) {
  telemetry::MetricsRegistry registry;
  telemetry::MetricsRegistry::arm(registry);
  const PartitionService service = make_service();
  {
    SCOPED_TRACE("pipes (the stdio transport: poll, then read)");
    int in_pipe[2];
    int out_pipe[2];
    ASSERT_EQ(::pipe(in_pipe), 0);
    ASSERT_EQ(::pipe(out_pipe), 0);
    expect_idle_deadline_reclaims_silent_peers_only(
        service, in_pipe[0], out_pipe[1], in_pipe[1], out_pipe[0],
        [&] { ::close(in_pipe[1]); }, registry);
    ::close(in_pipe[0]);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
  }
  {
    SCOPED_TRACE("socketpair (recv under a receive timeout)");
    int pair[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
    expect_idle_deadline_reclaims_silent_peers_only(
        service, pair[1], pair[1], pair[0], pair[0],
        [&] { ::shutdown(pair[0], SHUT_WR); }, registry);
    ::close(pair[0]);
    ::close(pair[1]);
  }
}

// ---------------------------------------------------------------------------
// Graceful drain: in-flight work is answered, new work gets kShuttingDown.
// ---------------------------------------------------------------------------

TEST_F(ServiceHardeningTest, DrainAnswersInFlightRequestsAndShedsNewOnes) {
  telemetry::MetricsRegistry registry;
  telemetry::MetricsRegistry::arm(registry);
  const PartitionService service = make_service();
  const std::string path = ::testing::TempDir() + "/oms_hard_drain.sock";
  std::thread server([&] { serve_unix_socket(service, path); });

  // Session A is established and idle between frames.
  const int idle_session = connect_to(path);
  ASSERT_GE(idle_session, 0);
  ASSERT_TRUE(send_frame(idle_session, encode_where(1)));
  ASSERT_EQ(status_of(read_reply(idle_session)), Status::kOk);

  // Session B has a frame in flight: the full prefix plus 4 of 12 body
  // bytes, then a stall. Give its worker time to start reading the body —
  // that parks the session past the drain decision point (several poll
  // slices of slack; the worker only needs to be scheduled once).
  const int inflight_session = connect_to(path);
  ASSERT_GE(inflight_session, 0);
  const std::vector<char> inflight_frame = frame(encode_where(42));
  ASSERT_EQ(::send(inflight_session, inflight_frame.data(), 8, MSG_NOSIGNAL),
            8);
  std::this_thread::sleep_for(std::chrono::milliseconds(250));

  request_drain(); // what oms_serve's SIGTERM handler calls

  // The idle session gets one unsolicited kShuttingDown at its next frame
  // boundary, then EOF.
  EXPECT_EQ(status_of(read_reply(idle_session)), Status::kShuttingDown);
  EXPECT_TRUE(read_reply(idle_session).empty());
  ::close(idle_session);

  // A brand-new connection during the drain is accepted only to be shed
  // with the typed verdict; ServiceClient surfaces it without retrying.
  ClientConfig config;
  config.backoff_base_ms = 1;
  ServiceClient late_client(path, config);
  const ClientReply verdict = late_client.request(encode_where(5));
  EXPECT_EQ(verdict.status, Status::kShuttingDown);
  EXPECT_EQ(late_client.connects(), 1) << "kShuttingDown must not be retried";

  // The in-flight frame is finished and answered — then that session too is
  // drained at its next frame boundary.
  ASSERT_EQ(::send(inflight_session, inflight_frame.data() + 8,
                   inflight_frame.size() - 8, MSG_NOSIGNAL),
            static_cast<ssize_t>(inflight_frame.size() - 8));
  const std::vector<char> answered = read_reply(inflight_session);
  ASSERT_EQ(status_of(answered), Status::kOk);
  {
    CheckpointReader r(answered);
    (void)r.get_u32();
    EXPECT_EQ(r.get_u32(),
              static_cast<std::uint32_t>(service.artifact().where(42)));
  }
  EXPECT_EQ(status_of(read_reply(inflight_session)), Status::kShuttingDown);
  ::close(inflight_session);

  // With every session drained the serve loop returns and unbinds.
  server.join();
  const telemetry::MetricsSnapshot snap = registry.scrape();
  EXPECT_GE(snap.counter(telemetry::Counter::kServiceDrains), 3u);
  EXPECT_EQ(snap.gauge(telemetry::Gauge::kServiceConnsActive), 0u);
}

// ---------------------------------------------------------------------------
// Socket liveness probe: never steal a live daemon's socket, always replace
// a genuinely stale one.
// ---------------------------------------------------------------------------

TEST_F(ServiceHardeningTest, LiveSocketIsRefusedStaleSocketIsReplaced) {
  const PartitionService service = make_service();
  const std::string path = ::testing::TempDir() + "/oms_hard_probe.sock";
  std::thread server([&] { serve_unix_socket(service, path); });
  const int probe = connect_to(path); // daemon is up and accepting
  ASSERT_GE(probe, 0);
  ::close(probe);

  // A second daemon on the same path must refuse instead of unlinking the
  // live socket out from under the first.
  EXPECT_THROW(serve_unix_socket(service, path), IoError);
  (void)shutdown_daemon(path);
  server.join();

  // A stale socket file (bound once, owner gone) is silently replaced.
  const std::string stale_path = ::testing::TempDir() + "/oms_hard_stale.sock";
  const int stale = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(stale, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, stale_path.c_str(), stale_path.size() + 1);
  ASSERT_EQ(::bind(stale, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof addr),
            0);
  ::close(stale); // the file stays behind; nobody will ever accept on it
  std::thread revived([&] { serve_unix_socket(service, stale_path); });
  const int fd = connect_to(stale_path);
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(send_frame(fd, encode_where(9)));
  EXPECT_EQ(status_of(read_reply(fd)), Status::kOk);
  ::close(fd);
  (void)shutdown_daemon(stale_path);
  revived.join();
}

// ---------------------------------------------------------------------------
// Connection churn under concurrency (the TSan leg runs this): misbehaving
// clients of every flavor, then the books must balance.
// ---------------------------------------------------------------------------

TEST_F(ServiceHardeningTest, ConnectionChurnLeavesTheMetricsReconciled) {
  telemetry::MetricsRegistry registry;
  telemetry::MetricsRegistry::arm(registry);
  const PartitionService service = make_service();
  const std::string path = ::testing::TempDir() + "/oms_hard_churn.sock";
  ServeOptions options;
  options.max_conns = 16; // far above the client count: nothing gets shed
  std::thread server([&] { serve_unix_socket(service, path, options); });

  constexpr int kClients = 6;
  constexpr int kRounds = 20;
  const std::uint64_t items = service.artifact().assignment.size();
  std::vector<std::thread> churn;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    churn.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        const int fd = connect_to(path);
        if (fd < 0) {
          ++failures[static_cast<std::size_t>(c)];
          return;
        }
        const std::uint64_t id =
            static_cast<std::uint64_t>(c * kRounds + round) % items;
        switch (round % 4) {
          case 0: { // well-behaved request: correct answer or a typed shed
            if (!send_frame(fd, encode_where(id))) {
              break; // the daemon shed and closed first: acceptable churn
            }
            const std::vector<char> reply = read_reply(fd);
            if (reply.empty() || status_of(reply) == Status::kOverloaded) {
              break; // clean close / typed shed under churn: acceptable
            }
            if (status_of(reply) != Status::kOk) {
              ++failures[static_cast<std::size_t>(c)];
              break;
            }
            CheckpointReader r(reply);
            (void)r.get_u32();
            if (r.get_u32() !=
                static_cast<std::uint32_t>(service.artifact().where(id))) {
              ++failures[static_cast<std::size_t>(c)];
            }
            break;
          }
          case 1: { // half a length prefix, then hang up
            (void)::send(fd, "ab", 2, MSG_NOSIGNAL);
            break;
          }
          case 2: // connect and hang up immediately
            break;
          case 3: { // send a request, never read the reply (SIGPIPE bait)
            (void)send_frame(fd, encode_where(id));
            break;
          }
          default:
            break;
        }
        ::close(fd);
      }
    });
  }
  for (std::thread& thread : churn) {
    thread.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0) << "client " << c;
  }

  // After all that abuse the daemon must still answer a well-behaved client.
  ServiceClient client(path);
  EXPECT_EQ(client.where(7),
            static_cast<std::uint32_t>(service.artifact().where(7)));
  EXPECT_GT(client.stats().requests_served, 0u);
  const int client_conns = client.connects();
  client.disconnect();
  const int shutdown_conns = shutdown_daemon(path);
  server.join();

  // The books balance. Every admission verdict is counted, so accepted +
  // rejected never exceeds the connections the clients made; the only leak
  // allowed is a connection its client closed while still queued in the
  // listen backlog (the kernel may abort those before accept sees them) —
  // and only behaviors 1-3 close early, bounding that slack. No deadline is
  // configured, so the timeout counter must stay zero; workers still alive
  // when the kShutdown stop flag flips drain their session with a counted
  // kShuttingDown, bounded by the connection cap. Every slot was reaped.
  const std::uint64_t total_conns = static_cast<std::uint64_t>(
      kClients * kRounds + client_conns + shutdown_conns);
  constexpr std::uint64_t kEarlyCloseConns = kClients * kRounds * 3 / 4;
  const telemetry::MetricsSnapshot snap = registry.scrape();
  const std::uint64_t verdicts =
      snap.counter(telemetry::Counter::kServiceConnsAccepted) +
      snap.counter(telemetry::Counter::kServiceConnsRejected);
  EXPECT_LE(verdicts, total_conns);
  EXPECT_GE(verdicts, total_conns - kEarlyCloseConns);
  EXPECT_EQ(snap.counter(telemetry::Counter::kServiceTimeouts), 0u);
  EXPECT_LE(snap.counter(telemetry::Counter::kServiceDrains),
            static_cast<std::uint64_t>(options.max_conns));
  EXPECT_EQ(snap.gauge(telemetry::Gauge::kServiceConnsActive), 0u);
}

} // namespace
} // namespace oms::service
