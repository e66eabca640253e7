/// \file test_protocol.cpp
/// \brief The malformed-frame matrix against PartitionService::handle() —
///        the pure request->reply core of oms_serve. Every defective body
///        must come back as a *typed error reply* (kBadFrame / kBadOp /
///        kOutOfRange / kIo), never as an exception or a crash, and a
///        malformed kShutdown must shut nothing down. Plus the lookup floor:
///        one thread answers >= 1e6 WHERE requests/s in optimized builds.
#include "oms/oms.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "oms/graph/generators.hpp"
#include "oms/stream/checkpoint.hpp"
#include "oms/util/timer.hpp"

namespace oms::service {
namespace {

/// A small hand-built artifact with known answers: 6 items over k=4 under a
/// 2:2 hierarchy, so where() and rank_of() differ observably.
[[nodiscard]] PartitionService make_service() {
  PartitionArtifact artifact;
  artifact.algo = "test";
  artifact.k = 4;
  artifact.num_nodes = 6;
  artifact.num_edges = 7;
  artifact.seed = 3;
  artifact.elapsed_s = 0.25;
  artifact.assignment = {0, 3, 1, 2, 3, 0};
  artifact.hierarchy = SystemHierarchy::parse("2:2", "1:10");
  artifact.rebuild_tree();
  return PartitionService(std::move(artifact));
}

[[nodiscard]] Reply call(const PartitionService& service,
                         const std::vector<char>& body) {
  return service.handle(body.data(), body.size());
}

[[nodiscard]] Status status_of(const Reply& reply) {
  CheckpointReader r(reply.body);
  return static_cast<Status>(r.get_u32());
}

/// OK reply carrying exactly one u32.
[[nodiscard]] std::uint32_t u32_payload(const Reply& reply) {
  CheckpointReader r(reply.body);
  EXPECT_EQ(r.get_u32(), static_cast<std::uint32_t>(Status::kOk));
  const std::uint32_t v = r.get_u32();
  r.expect_end();
  return v;
}

TEST(Protocol, WhereAnswersEveryItem) {
  const PartitionService service = make_service();
  const std::vector<BlockId> expected = {0, 3, 1, 2, 3, 0};
  for (std::uint64_t v = 0; v < expected.size(); ++v) {
    EXPECT_EQ(u32_payload(call(service, encode_where(v))),
              static_cast<std::uint32_t>(expected[v]))
        << "item " << v;
  }
}

TEST(Protocol, RankDescendsTheTree) {
  const PartitionService service = make_service();
  const PartitionArtifact& artifact = service.artifact();
  for (std::uint64_t v = 0; v < artifact.assignment.size(); ++v) {
    EXPECT_EQ(u32_payload(call(service, encode_rank(v))),
              static_cast<std::uint32_t>(artifact.rank_of(v)))
        << "item " << v;
  }
}

TEST(Protocol, WhereThroughputFloorOnOneThread) {
#ifndef NDEBUG
  GTEST_SKIP() << "the floor holds for NDEBUG builds; sanitizer and -O0 "
                  "builds run the rest of the suite";
#endif
  PartitionRequest request;
  request.algo = "oms";
  request.k = 256;
  const PartitionService service(
      Partitioner().partition(gen::barabasi_albert(NodeId{1} << 15, 6, 7), request));
  const std::uint64_t items = service.artifact().assignment.size();
  // Pre-encoded requests time the server side of the protocol, not the
  // client's encoder. A pool larger than L2 keeps the ids from collapsing
  // into one hot cache line.
  constexpr std::uint64_t kPool = 4096;
  constexpr std::uint64_t kOps = 1'000'000;
  std::vector<std::vector<char>> pool;
  pool.reserve(kPool);
  for (std::uint64_t i = 0; i < kPool; ++i) {
    pool.push_back(encode_where((i * 2654435761u) % items));
  }
  // Best of three: the minimum is the stablest estimate on a loaded host.
  // Every answer folds into a checksum the optimizer cannot delete.
  double best_s = 0.0;
  std::uint64_t sink = 0;
  for (int rep = 0; rep < 3; ++rep) {
    Timer timer;
    for (std::uint64_t i = 0; i < kOps; ++i) {
      const std::vector<char>& body = pool[i % kPool];
      sink += static_cast<std::uint64_t>(service.handle(body.data(), body.size()).body.back());
    }
    best_s = rep == 0 ? timer.elapsed_s() : std::min(best_s, timer.elapsed_s());
  }
  EXPECT_GE(static_cast<double>(kOps) / best_s, 1e6) << "checksum " << sink;
}

TEST(Protocol, WhereOutOfRangeIsTypedError) {
  const PartitionService service = make_service();
  EXPECT_EQ(status_of(call(service, encode_where(6))), Status::kOutOfRange);
  EXPECT_EQ(status_of(call(service, encode_where(~0ULL))), Status::kOutOfRange);
  EXPECT_EQ(status_of(call(service, encode_rank(6))), Status::kOutOfRange);
}

TEST(Protocol, BatchMixesValidAndInvalidPerItem) {
  const PartitionService service = make_service();
  const std::uint64_t ids[] = {1, 99, 5, ~0ULL};
  const Reply reply = call(service, encode_batch(ids));
  CheckpointReader r(reply.body);
  EXPECT_EQ(r.get_u32(), static_cast<std::uint32_t>(Status::kOk));
  ASSERT_EQ(r.get_u32(), 4u);
  EXPECT_EQ(r.get_u32(), 3u);            // where(1)
  EXPECT_EQ(r.get_u32(), kInvalidEntry); // 99 out of range
  EXPECT_EQ(r.get_u32(), 0u);            // where(5)
  EXPECT_EQ(r.get_u32(), kInvalidEntry);
  r.expect_end();
}

TEST(Protocol, EmptyBatchIsOk) {
  const PartitionService service = make_service();
  const Reply reply = call(service, encode_batch({}));
  CheckpointReader r(reply.body);
  EXPECT_EQ(r.get_u32(), static_cast<std::uint32_t>(Status::kOk));
  EXPECT_EQ(r.get_u32(), 0u);
  r.expect_end();
}

TEST(Protocol, StatsReportsTheArtifact) {
  const PartitionService service = make_service();
  (void)call(service, encode_where(0)); // bump the request counter first
  const Reply reply = call(service, encode_stats());
  CheckpointReader r(reply.body);
  EXPECT_EQ(r.get_u32(), static_cast<std::uint32_t>(Status::kOk));
  EXPECT_EQ(r.get_u32(), 0u); // not an edge partition
  EXPECT_EQ(r.get_u32(), 4u); // k
  EXPECT_EQ(r.get_u64(), 6u); // items
  EXPECT_EQ(r.get_u64(), 6u); // num_nodes
  EXPECT_EQ(r.get_u64(), 7u); // num_edges
  EXPECT_EQ(r.get_u64(), 2u); // requests served, this one included
  EXPECT_DOUBLE_EQ(r.get_f64(), 0.25);
  EXPECT_EQ(r.get_string(), "test");
  r.expect_end();
}

TEST(Protocol, SnapshotRoundTripsThroughTheService) {
  const PartitionService service = make_service();
  const std::string path = ::testing::TempDir() + "/oms_protocol_snap.part";
  EXPECT_EQ(status_of(call(service, encode_snapshot(path))), Status::kOk);
  const PartitionArtifact restored = read_artifact(path);
  std::remove(path.c_str());
  EXPECT_EQ(restored.assignment, service.artifact().assignment);
  EXPECT_EQ(restored.algo, "test");
}

TEST(Protocol, SnapshotToUnwritablePathIsIoError) {
  const PartitionService service = make_service();
  const Reply reply =
      call(service, encode_snapshot("/no/such/dir/oms_snap.part"));
  EXPECT_EQ(status_of(reply), Status::kIo);
  EXPECT_FALSE(reply.shutdown);
}

TEST(Protocol, ShutdownAcksAndSignals) {
  const PartitionService service = make_service();
  const Reply reply = call(service, encode_shutdown());
  EXPECT_EQ(status_of(reply), Status::kOk);
  EXPECT_TRUE(reply.shutdown);
}

// ---------------------------------------------------------------------------
// The malformed-frame matrix. handle() must stay total.
// ---------------------------------------------------------------------------

TEST(Protocol, MalformedBodiesAreBadFrame) {
  const PartitionService service = make_service();
  const auto expect_bad_frame = [&](std::vector<char> body,
                                    const std::string& label) {
    const Reply reply = call(service, body);
    EXPECT_EQ(status_of(reply), Status::kBadFrame) << label;
    EXPECT_FALSE(reply.shutdown) << label;
  };
  expect_bad_frame({}, "empty body");
  expect_bad_frame({'\x01'}, "opcode cut short");
  expect_bad_frame({'\x01', 0, 0, 0}, "kWhere with no operand");
  expect_bad_frame({'\x01', 0, 0, 0, 5, 0, 0}, "kWhere operand cut short");
  {
    std::vector<char> trailing = encode_where(1);
    trailing.push_back('\x00');
    expect_bad_frame(trailing, "kWhere with trailing bytes");
  }
  {
    // A batch header claiming more ids than the body carries: the count must
    // be rejected against remaining() before any allocation or read.
    CheckpointWriter w;
    w.put_u32(static_cast<std::uint32_t>(Op::kBatch));
    w.put_u32(1000000);
    w.put_u64(1);
    expect_bad_frame(w.bytes(), "batch count larger than the body");
  }
  {
    std::vector<char> shutdown_trailing = encode_shutdown();
    shutdown_trailing.push_back('\x7f');
    const Reply reply = call(service, shutdown_trailing);
    EXPECT_EQ(status_of(reply), Status::kBadFrame);
    EXPECT_FALSE(reply.shutdown) << "a malformed shutdown must not stop the server";
  }
  {
    // Snapshot with a string length pointing past the body.
    CheckpointWriter w;
    w.put_u32(static_cast<std::uint32_t>(Op::kSnapshot));
    w.put_u32(1000);
    w.put_raw("short", 5);
    expect_bad_frame(w.bytes(), "snapshot path length lies");
  }
}

TEST(Protocol, UnknownOpcodeIsBadOp) {
  const PartitionService service = make_service();
  CheckpointWriter w;
  w.put_u32(0);
  EXPECT_EQ(status_of(call(service, w.bytes())), Status::kBadOp);
  CheckpointWriter w2;
  w2.put_u32(0xdeadbeef);
  EXPECT_EQ(status_of(call(service, w2.bytes())), Status::kBadOp);
}

TEST(Protocol, ErrorRepliesCarryAMessage) {
  const PartitionService service = make_service();
  const Reply reply = call(service, encode_where(123456));
  CheckpointReader r(reply.body);
  EXPECT_EQ(static_cast<Status>(r.get_u32()), Status::kOutOfRange);
  const std::string message = r.get_string();
  EXPECT_NE(message.find("123456"), std::string::npos);
  r.expect_end();
}

TEST(Protocol, FramingHelperWrapsBodies) {
  const std::vector<char> body = encode_where(7);
  const std::vector<char> framed = frame(body);
  ASSERT_EQ(framed.size(), body.size() + 4);
  CheckpointReader r(framed.data(), framed.size());
  EXPECT_EQ(r.get_u32(), body.size());
  EXPECT_EQ(std::vector<char>(framed.begin() + 4, framed.end()), body);
}

} // namespace
} // namespace oms::service
