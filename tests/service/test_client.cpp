/// \file test_client.cpp
/// \brief ServiceClient's reply path: request_timeout_ms bounds the whole
///        reply, so a daemon that accepts and never answers, answers only a
///        length prefix, or dribbles a reply it never finishes costs every
///        attempt its deadline and then an IoError, never a hang; and a
///        16 KiB BATCH reply that takes several receives arrives intact.
#include "oms/oms.hpp"

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "oms/graph/generators.hpp"

namespace oms::service {
namespace {

/// How a WedgedListener answers each connection it accepts.
enum class Wedge {
  kSilent,     ///< accept and never send a byte
  kPrefixOnly, ///< send a length prefix, then nothing
  kDribble,    ///< send a length prefix, then one body byte every 10 ms
};

/// A Unix-socket listener that accepts every connection and never finishes
/// a reply. Connections stay open until the listener is destroyed.
class WedgedListener {
public:
  WedgedListener(std::string path, Wedge wedge)
      : path_(std::move(path)), wedge_(wedge) {
    ::unlink(path_.c_str());
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(listen_fd_, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path_.c_str(), path_.size() + 1);
    EXPECT_EQ(::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
                     sizeof addr),
              0);
    EXPECT_EQ(::listen(listen_fd_, 8), 0);
    thread_ = std::thread([this] { run(); });
  }

  ~WedgedListener() {
    stop_.store(true);
    thread_.join();
    for (const int conn : conns_) {
      ::close(conn);
    }
    ::close(listen_fd_);
    ::unlink(path_.c_str());
  }

  WedgedListener(const WedgedListener&) = delete;
  WedgedListener& operator=(const WedgedListener&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }

private:
  void run() {
    // Declares far more body than the dribble sends before any deadline.
    constexpr std::uint32_t kDeclared = 4096;
    while (!stop_.load()) {
      pollfd p{};
      p.fd = listen_fd_;
      p.events = POLLIN;
      if (::poll(&p, 1, 10) > 0) {
        const int conn = ::accept(listen_fd_, nullptr, nullptr);
        if (conn >= 0) {
          conns_.push_back(conn);
          if (wedge_ != Wedge::kSilent) {
            (void)::send(conn, &kDeclared, sizeof kDeclared, MSG_NOSIGNAL);
          }
        }
      }
      if (wedge_ == Wedge::kDribble && !conns_.empty()) {
        (void)::send(conns_.back(), "x", 1, MSG_NOSIGNAL);
      }
    }
  }

  std::string path_;
  Wedge wedge_;
  int listen_fd_ = -1;
  std::vector<int> conns_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

TEST(ClientDeadline, WedgedDaemonCostsEachAttemptItsDeadlineThenIoError) {
  ClientConfig config;
  config.request_timeout_ms = 150;
  config.max_attempts = 3;
  config.backoff_base_ms = 10;
  config.backoff_cap_ms = 20;
  const auto deadline = std::chrono::milliseconds(
      config.max_attempts * (config.request_timeout_ms + config.backoff_cap_ms));
  const struct {
    Wedge wedge;
    const char* name;
  } cases[] = {{Wedge::kSilent, "silent"},
               {Wedge::kPrefixOnly, "prefix-only"},
               {Wedge::kDribble, "dribble"}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    const WedgedListener listener(
        ::testing::TempDir() + "/oms_client_" + c.name + ".sock", c.wedge);
    ServiceClient client(listener.path(), config);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW((void)client.where(1), IoError);
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - start);
    // Every attempt waited out its deadline (a little slack for timer
    // granularity), and the dribble, which resets any per-receive timeout,
    // did not stretch the whole-reply one.
    EXPECT_GE(elapsed.count(),
              config.max_attempts * config.request_timeout_ms * 9 / 10);
    EXPECT_LT(elapsed, 2 * deadline);
    EXPECT_EQ(client.connects(), config.max_attempts);
  }
}

TEST(ClientReceive, BatchReplyOverSeveralReceivesArrivesIntact) {
  PartitionRequest req;
  req.algo = "oms";
  req.k = 8;
  const PartitionService service(
      Partitioner().partition(gen::barabasi_albert(2000, 4, 13), req));
  const std::string path = ::testing::TempDir() + "/oms_client_batch.sock";
  std::thread server([&] { serve_unix_socket(service, path); });

  ServiceClient client(path);
  const std::uint64_t items = service.artifact().assignment.size();
  std::vector<std::uint64_t> ids(4096);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = (i * 7919) % items;
  }
  // Twice over, with a WHERE between: the reply buffer grows for the 16 KiB
  // reply and serves the small one after it from the same memory.
  for (int round = 0; round < 2; ++round) {
    const std::vector<std::uint32_t> blocks = client.batch(ids);
    ASSERT_EQ(blocks.size(), ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ASSERT_EQ(blocks[i],
                static_cast<std::uint32_t>(service.artifact().where(ids[i])))
          << "id " << ids[i];
    }
    EXPECT_EQ(client.where(17),
              static_cast<std::uint32_t>(service.artifact().where(17)));
  }
  EXPECT_EQ(client.connects(), 1);
  EXPECT_EQ(client.request(encode_shutdown()).status, Status::kOk);
  client.disconnect();
  server.join();
}

} // namespace
} // namespace oms::service
