/// \file test_service.cpp
/// \brief The transport layer of oms_serve: frame loops over pipes and over
///        a socketpair (frames split or joined by the peer's writes), the
///        oversized-frame close, a concurrent multi-client stress session
///        over a Unix socket (the TSan leg runs this), and the
///        snapshot -> restore -> identical-answers round trip.
#include "oms/oms.hpp"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
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
      Partitioner().partition(gen::barabasi_albert(2000, 4, 13), req));
}

void write_frames(int fd, const std::vector<std::vector<char>>& bodies) {
  for (const auto& body : bodies) {
    const std::vector<char> framed = frame(body);
    ASSERT_EQ(::write(fd, framed.data(), framed.size()),
              static_cast<ssize_t>(framed.size()));
  }
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

/// Read one framed reply body; empty vector on EOF.
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

// ---------------------------------------------------------------------------
// serve_stream over pipes (the --stdio transport).
// ---------------------------------------------------------------------------

TEST(ServeStream, SessionWithShutdown) {
  const PartitionService service = make_service();
  int in_pipe[2];  // test -> server
  int out_pipe[2]; // server -> test
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);

  write_frames(in_pipe[1], {encode_where(5), encode_stats(), encode_shutdown()});
  std::thread server([&] {
    EXPECT_TRUE(serve_stream(service, in_pipe[0], out_pipe[1]));
    ::close(out_pipe[1]);
  });

  const std::vector<char> where = read_reply(out_pipe[0]);
  EXPECT_EQ(status_of(where), Status::kOk);
  {
    CheckpointReader r(where);
    (void)r.get_u32();
    EXPECT_EQ(r.get_u32(),
              static_cast<std::uint32_t>(service.artifact().where(5)));
  }
  EXPECT_EQ(status_of(read_reply(out_pipe[0])), Status::kOk); // stats
  EXPECT_EQ(status_of(read_reply(out_pipe[0])), Status::kOk); // shutdown ack
  server.join();
  ::close(in_pipe[0]);
  ::close(in_pipe[1]);
  ::close(out_pipe[0]);
}

TEST(ServeStream, ClientHangupEndsTheSessionWithoutShutdown) {
  const PartitionService service = make_service();
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  write_frames(in_pipe[1], {encode_where(1)});
  ::close(in_pipe[1]); // EOF after one frame
  EXPECT_FALSE(serve_stream(service, in_pipe[0], out_pipe[1]));
  EXPECT_EQ(status_of(read_reply(out_pipe[0])), Status::kOk);
  ::close(in_pipe[0]);
  ::close(out_pipe[0]);
  ::close(out_pipe[1]);
}

TEST(ServeStream, TruncatedFrameEndsTheSessionCleanly) {
  const PartitionService service = make_service();
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  // Declare 12 body bytes, deliver 3, hang up.
  const std::uint32_t len = 12;
  ASSERT_EQ(::write(in_pipe[1], &len, sizeof len), 4);
  ASSERT_EQ(::write(in_pipe[1], "abc", 3), 3);
  ::close(in_pipe[1]);
  EXPECT_FALSE(serve_stream(service, in_pipe[0], out_pipe[1]));
  ::close(in_pipe[0]);
  ::close(out_pipe[0]);
  ::close(out_pipe[1]);
}

TEST(ServeStream, OversizedFrameGetsTypedErrorThenClose) {
  const PartitionService service = make_service();
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  const std::uint32_t huge = kMaxFrameBytes + 1;
  ASSERT_EQ(::write(in_pipe[1], &huge, sizeof huge), 4);
  std::thread server([&] {
    EXPECT_FALSE(serve_stream(service, in_pipe[0], out_pipe[1]));
    ::close(out_pipe[1]);
  });
  const std::vector<char> reply = read_reply(out_pipe[0]);
  EXPECT_EQ(status_of(reply), Status::kTooLarge);
  EXPECT_TRUE(read_reply(out_pipe[0]).empty()) << "connection must close";
  server.join();
  ::close(in_pipe[0]);
  ::close(in_pipe[1]);
  ::close(out_pipe[0]);
}

// ---------------------------------------------------------------------------
// serve_stream over a socketpair: a socket session receives with blocking
// recv under a receive timeout, and must reassemble frames however the
// peer's writes split or join them.
// ---------------------------------------------------------------------------

/// Send \p bytes into one end of a socketpair in pieces of at most \p piece
/// bytes, \p gap apart, then half-close it; serve the other end until that
/// EOF. Returns every reply body in arrival order.
[[nodiscard]] std::vector<std::vector<char>> serve_over_socketpair(
    const PartitionService& service, const std::vector<char>& bytes,
    std::size_t piece, std::chrono::microseconds gap) {
  int pair[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  std::thread server([&] {
    EXPECT_FALSE(serve_stream(service, pair[1], pair[1])); // ends on EOF
    ::shutdown(pair[1], SHUT_WR);
  });
  std::thread writer([&] {
    for (std::size_t at = 0; at < bytes.size(); at += piece) {
      const std::size_t n = std::min(piece, bytes.size() - at);
      EXPECT_EQ(::send(pair[0], bytes.data() + at, n, MSG_NOSIGNAL),
                static_cast<ssize_t>(n));
      std::this_thread::sleep_for(gap);
    }
    ::shutdown(pair[0], SHUT_WR);
  });
  std::vector<std::vector<char>> replies;
  for (std::vector<char> reply = read_reply(pair[0]); !reply.empty();
       reply = read_reply(pair[0])) {
    replies.push_back(std::move(reply));
  }
  writer.join();
  server.join();
  ::close(pair[0]);
  ::close(pair[1]);
  return replies;
}

[[nodiscard]] std::vector<char> concat_frames(
    const std::vector<std::vector<char>>& bodies) {
  std::vector<char> out;
  for (const auto& body : bodies) {
    const std::vector<char> framed = frame(body);
    out.insert(out.end(), framed.begin(), framed.end());
  }
  return out;
}

[[nodiscard]] std::vector<char> handled(const PartitionService& service,
                                        const std::vector<char>& body) {
  return service.handle(body.data(), body.size()).body;
}

TEST(ServeStreamSocket, TwoFramesInOneWriteAreAnsweredInOrder) {
  const PartitionService service = make_service();
  const std::vector<std::vector<char>> bodies = {encode_where(5),
                                                 encode_rank(1999)};
  const std::vector<char> bytes = concat_frames(bodies);
  const auto replies = serve_over_socketpair(service, bytes, bytes.size(),
                                             std::chrono::microseconds(0));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], handled(service, bodies[0]));
  EXPECT_EQ(replies[1], handled(service, bodies[1]));
}

TEST(ServeStreamSocket, FrameInOneByteWritesIsReassembled) {
  const PartitionService service = make_service();
  const std::vector<std::uint64_t> ids = {3, 1, 4, 1, 5};
  const std::vector<std::vector<char>> bodies = {encode_batch(ids),
                                                 encode_where(9)};
  const auto replies = serve_over_socketpair(service, concat_frames(bodies), 1,
                                             std::chrono::microseconds(200));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0], handled(service, bodies[0]));
  EXPECT_EQ(replies[1], handled(service, bodies[1]));
}

TEST(ServeStreamSocket, BatchOf4096IdsNeedsSeveralReceives) {
  const PartitionService service = make_service();
  const std::uint64_t items = service.artifact().assignment.size();
  std::vector<std::uint64_t> ids(4096);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = (i * 7919) % items;
  }
  // A 32 KiB request in 4 KiB pieces and a 16 KiB reply: both ends take
  // several receives per frame. A WHERE behind it must still come second.
  const std::vector<std::vector<char>> bodies = {encode_batch(ids),
                                                 encode_where(11)};
  const auto replies = serve_over_socketpair(service, concat_frames(bodies),
                                             4096, std::chrono::microseconds(500));
  ASSERT_EQ(replies.size(), 2u);
  EXPECT_EQ(replies[0].size(), 2 * sizeof(std::uint32_t) + 4096 * sizeof(std::uint32_t));
  EXPECT_EQ(replies[0], handled(service, bodies[0]));
  EXPECT_EQ(replies[1], handled(service, bodies[1]));
}

// ---------------------------------------------------------------------------
// Unix socket transport: concurrent clients against one immutable artifact.
// ---------------------------------------------------------------------------

[[nodiscard]] int connect_to(const std::string& socket_path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  // The server binds asynchronously; retry briefly until it listens.
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

TEST(ServeSocket, ConcurrentClientsGetConsistentAnswers) {
  const PartitionService service = make_service();
  const std::string socket_path = ::testing::TempDir() + "/oms_service_stress.sock";
  std::thread server([&] { serve_unix_socket(service, socket_path); });

  constexpr int kClients = 4;
  constexpr int kRequests = 200;
  const std::uint64_t items = service.artifact().assignment.size();
  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      const int fd = connect_to(socket_path);
      if (fd < 0) {
        failures[static_cast<std::size_t>(c)] = kRequests;
        return;
      }
      for (int i = 0; i < kRequests; ++i) {
        // Mix valid lookups, out-of-range ids and malformed frames: every
        // client must get its own typed replies back, in order.
        const std::uint64_t v = static_cast<std::uint64_t>(c * kRequests + i);
        std::vector<char> body;
        Status expected = Status::kOk;
        if (i % 31 == 7) {
          body = encode_where(items + v); // out of range
          expected = Status::kOutOfRange;
        } else if (i % 31 == 19) {
          body = {'\x01'}; // truncated opcode
          expected = Status::kBadFrame;
        } else {
          body = encode_where(v % items);
        }
        const std::vector<char> framed = frame(body);
        if (::write(fd, framed.data(), framed.size()) !=
            static_cast<ssize_t>(framed.size())) {
          ++failures[static_cast<std::size_t>(c)];
          break;
        }
        const std::vector<char> reply = read_reply(fd);
        if (reply.empty() || status_of(reply) != expected) {
          ++failures[static_cast<std::size_t>(c)];
          continue;
        }
        if (expected == Status::kOk) {
          CheckpointReader r(reply);
          (void)r.get_u32();
          if (r.get_u32() !=
              static_cast<std::uint32_t>(service.artifact().where(v % items))) {
            ++failures[static_cast<std::size_t>(c)];
          }
        }
      }
      ::close(fd);
    });
  }
  for (std::thread& client : clients) {
    client.join();
  }
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(failures[static_cast<std::size_t>(c)], 0) << "client " << c;
  }

  const int fd = connect_to(socket_path);
  ASSERT_GE(fd, 0);
  write_frames(fd, {encode_shutdown()});
  EXPECT_EQ(status_of(read_reply(fd)), Status::kOk);
  ::close(fd);
  server.join();
  EXPECT_EQ(service.requests_served(),
            static_cast<std::uint64_t>(kClients * kRequests) + 1);
}

TEST(ServeSocket, SnapshotRestoreAnswersIdentically) {
  const PartitionService service = make_service(12);
  const std::string socket_path = ::testing::TempDir() + "/oms_service_snap.sock";
  const std::string snap_path = ::testing::TempDir() + "/oms_service_snap.part";
  std::thread server([&] { serve_unix_socket(service, socket_path); });

  const int fd = connect_to(socket_path);
  ASSERT_GE(fd, 0);
  write_frames(fd, {encode_snapshot(snap_path), encode_shutdown()});
  EXPECT_EQ(status_of(read_reply(fd)), Status::kOk);
  EXPECT_EQ(status_of(read_reply(fd)), Status::kOk);
  ::close(fd);
  server.join();

  // A second service restored from the snapshot must answer every query
  // identically — the oms_serve --artifact restart path.
  const PartitionService restored(read_artifact(snap_path));
  std::remove(snap_path.c_str());
  const std::uint64_t items = service.artifact().assignment.size();
  for (std::uint64_t v = 0; v < items; ++v) {
    const Reply a = service.handle(encode_where(v).data(), encode_where(v).size());
    const Reply b = restored.handle(encode_where(v).data(), encode_where(v).size());
    ASSERT_EQ(a.body, b.body) << "item " << v;
    const Reply ra = service.handle(encode_rank(v).data(), encode_rank(v).size());
    const Reply rb = restored.handle(encode_rank(v).data(), encode_rank(v).size());
    ASSERT_EQ(ra.body, rb.body) << "item " << v;
  }
}

} // namespace
} // namespace oms::service
