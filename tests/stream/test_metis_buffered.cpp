/// \file test_metis_buffered.cpp
/// \brief Parity and error-channel tests for the buffered METIS reader:
///        node-by-node equality with the in-memory CsrGraph across buffer
///        sizes (including degenerate ones that force refill seams), comment
///        lines, isolated trailing nodes, rewind(), and the IoError channel
///        for malformed content.
#include "oms/stream/metis_stream.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "oms/graph/generators.hpp"
#include "oms/graph/graph_builder.hpp"
#include "oms/graph/io.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

void write_text(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
  ASSERT_TRUE(out.good());
}

/// Stream \p path and assert node-by-node equality with \p g.
void expect_stream_matches_graph(const std::string& path, const CsrGraph& g,
                                 std::size_t buffer_bytes) {
  MetisNodeStream stream(path, buffer_bytes);
  EXPECT_EQ(stream.header().num_nodes, g.num_nodes());
  EXPECT_EQ(stream.header().num_edges, g.num_edges());

  StreamedNode node{};
  NodeId count = 0;
  while (stream.next(node)) {
    ASSERT_LT(count, g.num_nodes());
    EXPECT_EQ(node.id, count);
    EXPECT_EQ(node.weight, g.node_weight(count)) << "node " << count;
    const auto expected_neighbors = g.neighbors(count);
    const auto expected_weights = g.incident_weights(count);
    ASSERT_EQ(node.neighbors.size(), expected_neighbors.size()) << "node " << count;
    for (std::size_t i = 0; i < expected_neighbors.size(); ++i) {
      EXPECT_EQ(node.neighbors[i], expected_neighbors[i]);
      EXPECT_EQ(node.edge_weights[i], expected_weights[i]);
    }
    ++count;
  }
  EXPECT_EQ(count, g.num_nodes());
}

CsrGraph weighted_fixture() {
  Rng rng(4242);
  GraphBuilder builder(300);
  for (NodeId u = 0; u < 300; ++u) {
    builder.set_node_weight(u, 1 + static_cast<NodeWeight>(rng.next_below(7)));
  }
  for (NodeId u = 0; u < 300; ++u) {
    for (int d = 0; d < 3; ++d) {
      const auto v = static_cast<NodeId>(rng.next_below(300));
      if (v != u) {
        builder.add_edge(u, v, 1 + static_cast<EdgeWeight>(rng.next_below(11)));
      }
    }
  }
  return std::move(builder).build();
}

TEST(MetisBuffered, MatchesInMemoryGraphAcrossBufferSizes) {
  const CsrGraph g = weighted_fixture();
  const std::string path = temp_path("oms_buffered_parity.graph");
  write_metis(g, path);
  // 64 is the reader's floor; odd small sizes force token- and line-spanning
  // refills; the default exercises the single-read fast path.
  for (const std::size_t buffer : {std::size_t{1}, std::size_t{64},
                                   std::size_t{67}, std::size_t{4096},
                                   MetisNodeStream::kDefaultBufferBytes}) {
    SCOPED_TRACE("buffer=" + std::to_string(buffer));
    expect_stream_matches_graph(path, g, buffer);
  }
  std::remove(path.c_str());
}

TEST(MetisBuffered, UnweightedGeneratedGraphRoundTrips) {
  const CsrGraph g = gen::barabasi_albert(500, 4, 9);
  const std::string path = temp_path("oms_buffered_ba.graph");
  write_metis(g, path);
  expect_stream_matches_graph(path, g, 128);
  std::remove(path.c_str());
}

TEST(MetisBuffered, CommentLinesAndIsolatedTrailingNodes) {
  // 5 nodes, 2 edges; node 2 is an empty line, nodes 3 and 4 are missing
  // trailing lines; comments interleave everywhere.
  const std::string path = temp_path("oms_buffered_comments.graph");
  write_text(path,
             "% leading comment\n"
             "%% another\n"
             "5 2\n"
             "% mid comment\n"
             "2\n"
             "1 3\n"
             "\n"
             "% comment before a missing line\n"
             "2\n");
  for (const std::size_t buffer : {std::size_t{1}, std::size_t{256}}) {
    SCOPED_TRACE("buffer=" + std::to_string(buffer));
    MetisNodeStream stream(path, buffer);
    EXPECT_EQ(stream.header().num_nodes, 5u);
    EXPECT_EQ(stream.header().num_edges, 2u);
    StreamedNode node{};
    std::vector<std::vector<NodeId>> adjacency;
    while (stream.next(node)) {
      adjacency.emplace_back(node.neighbors.begin(), node.neighbors.end());
      EXPECT_EQ(node.weight, 1);
    }
    const std::vector<std::vector<NodeId>> expected = {
        {1}, {0, 2}, {}, {1}, {}};
    EXPECT_EQ(adjacency, expected);
  }
  std::remove(path.c_str());
}

TEST(MetisBuffered, FileWithoutTrailingNewline) {
  const std::string path = temp_path("oms_buffered_notrail.graph");
  write_text(path, "2 1\n2\n1"); // last line unterminated
  MetisNodeStream stream(path, 64);
  StreamedNode node{};
  ASSERT_TRUE(stream.next(node));
  ASSERT_EQ(node.neighbors.size(), 1u);
  EXPECT_EQ(node.neighbors[0], 1u);
  ASSERT_TRUE(stream.next(node));
  ASSERT_EQ(node.neighbors.size(), 1u);
  EXPECT_EQ(node.neighbors[0], 0u);
  EXPECT_FALSE(stream.next(node));
  std::remove(path.c_str());
}

TEST(MetisBuffered, RewindReplaysIdentically) {
  const CsrGraph g = weighted_fixture();
  const std::string path = temp_path("oms_buffered_rewind.graph");
  write_metis(g, path);

  MetisNodeStream stream(path, 97);
  StreamedNode node{};
  std::vector<std::vector<NodeId>> first;
  std::vector<NodeWeight> first_weights;
  while (stream.next(node)) {
    first.emplace_back(node.neighbors.begin(), node.neighbors.end());
    first_weights.push_back(node.weight);
  }
  stream.rewind();
  std::vector<std::vector<NodeId>> second;
  std::vector<NodeWeight> second_weights;
  while (stream.next(node)) {
    second.emplace_back(node.neighbors.begin(), node.neighbors.end());
    second_weights.push_back(node.weight);
  }
  EXPECT_EQ(first, second);
  EXPECT_EQ(first_weights, second_weights);
  std::remove(path.c_str());
}

TEST(MetisBuffered, LineLongerThanBufferGrowsTransparently) {
  // A star center whose adjacency line far exceeds the 64-byte floor.
  const CsrGraph g = testing::star_graph(400);
  const std::string path = temp_path("oms_buffered_star.graph");
  write_metis(g, path);
  expect_stream_matches_graph(path, g, 64);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Tokenizer edges. The scanner relies on the reader's line terminator
// instead of bounds checks, so each case runs at buffer sizes around the
// 64-byte floor: behind a 60-byte comment, lines and tokens straddle refills
// at a different byte for each size.
// ---------------------------------------------------------------------------

constexpr std::size_t kTinyBuffers[] = {1, 64, 65, 66, 67, 70, 77, 96, 130};

/// Stream "<60-byte comment>\n" + \p body (so the body starts on line 2)
/// at buffer size \p buffer. Renders each node as "w:<weight> <neighbor>/<edge
/// weight>..." separated by "|", or the error message with the path cut off.
std::string drain_rendered(const std::string& body, std::size_t buffer) {
  const std::string path = temp_path("oms_buffered_tokens.graph");
  write_text(path, "%" + std::string(58, '-') + "\n" + body);
  std::string out;
  try {
    MetisNodeStream stream(path, buffer);
    StreamedNode node{};
    while (stream.next(node)) {
      out += out.empty() ? "w:" : "|w:";
      out += std::to_string(node.weight);
      for (std::size_t i = 0; i < node.neighbors.size(); ++i) {
        out += ' ';
        out += std::to_string(node.neighbors[i] + 1);
        out += '/';
        out += std::to_string(node.edge_weights[i]);
      }
    }
  } catch (const IoError& e) {
    const std::string what = e.what();
    out = what.rfind(path, 0) == 0 ? what.substr(path.size()) : what;
  }
  std::remove(path.c_str());
  return out;
}

void expect_rendered(const std::string& body, const std::string& expected) {
  for (const std::size_t buffer : kTinyBuffers) {
    EXPECT_EQ(drain_rendered(body, buffer), expected) << "buffer=" << buffer;
  }
}

TEST(MetisTokenizer, FinalLineWithoutNewline) {
  expect_rendered("3 3\n2 3\n1 3\n1 2", "w:1 2/1 3/1|w:1 1/1 3/1|w:1 1/1 2/1");
  expect_rendered("2 1 11\n7 2 123456\n8 1 123456",
                  "w:7 2/123456|w:8 1/123456");
  expect_rendered("2 1\n2\n1x", ":4: malformed integer token");
  expect_rendered("2 1\n2\n-1", ":4: neighbor id -1 out of range [1, 2]");
}

TEST(MetisTokenizer, EighteenToTwentyDigitTokens) {
  // Up to 18 digits take the fast path; longer runs go through from_chars,
  // which accepts anything that fits int64 (leading zeros included).
  expect_rendered("2 1 10\n123456789012345678 2\n999999999999999999 1",
                  "w:123456789012345678 2/1|w:999999999999999999 1/1");
  expect_rendered("2 1 10\n9223372036854775807 2\n0000000000000000000042 1\n",
                  "w:9223372036854775807 2/1|w:42 1/1");
  expect_rendered("2 1\n000000000000000000002\n1\n", "w:1 2/1|w:1 1/1");
  expect_rendered("2 1\n123456789012345678\n1\n",
                  ":3: neighbor id 123456789012345678 out of range [1, 2]");
  expect_rendered("2 1\n9223372036854775807\n1\n",
                  ":3: neighbor id 9223372036854775807 out of range [1, 2]");
  expect_rendered("2 1\n9223372036854775808\n1\n", ":3: malformed integer token");
  expect_rendered("2 1\n12345678901234567890\n1\n", ":3: malformed integer token");
  expect_rendered("2 1 1\n2 12345678901234567890\n1 1\n",
                  ":3: malformed integer token");
  expect_rendered("12345678901234567890 1\n", ":2: malformed METIS header");
}

TEST(MetisTokenizer, NegativeAndSignedTokens) {
  expect_rendered("2 1\n-2\n1\n", ":3: neighbor id -2 out of range [1, 2]");
  expect_rendered("2 1 10\n-1 2\n1 1\n", ":3: node weight -1 is negative");
  expect_rendered("2 1 1\n2 -3\n1 -3\n", ":3: edge weight -3 is not positive");
  expect_rendered("2 1\n+2\n1\n", ":3: malformed integer token");
  expect_rendered("2 1\n-\n1\n", ":3: malformed integer token");
  expect_rendered("-2 1\n", ":2: negative sizes in METIS header");
}

TEST(MetisTokenizer, TabsAndCarriageReturns) {
  expect_rendered("2 1\r\n2\t\r\n\t1 \r\n", "w:1 2/1|w:1 1/1");
  expect_rendered("2\t1\t11\r\n3\t2\t5\r\n4 1 5\r", "w:3 2/5|w:4 1/5");
  expect_rendered("2 1\r\n\t\r\n\r\n", "w:1|w:1");
}

TEST(MetisTokenizer, DigitRunFollowedByJunk) {
  // "12x": the run is a token of its own, and the junk fails the next one.
  expect_rendered("2 1\n2\n1x\n", ":4: malformed integer token");
  expect_rendered("20 1\n12x\n", ":3: malformed integer token");
  expect_rendered("2 1 1\n2 3x\n1 3\n", ":3: malformed integer token");
  expect_rendered("2x 1\n", ":2: malformed METIS header");
  expect_rendered("2 1\n2-1\n1\n", ":3: neighbor id -1 out of range [1, 2]");
}

// ---------------------------------------------------------------------------
// IoError channel: malformed *content* must raise, not abort.
// ---------------------------------------------------------------------------

TEST(MetisBufferedErrors, MissingFile) {
  EXPECT_THROW(MetisNodeStream("/nonexistent/definitely_not_here.graph"), IoError);
}

TEST(MetisBufferedErrors, EmptyFileHasNoHeader) {
  const std::string path = temp_path("oms_buffered_empty.graph");
  write_text(path, "");
  EXPECT_THROW(MetisNodeStream stream(path), IoError);
  std::remove(path.c_str());
}

TEST(MetisBufferedErrors, MalformedHeader) {
  const std::string path = temp_path("oms_buffered_badheader.graph");
  // Includes an n beyond NodeId's range, which must raise rather than
  // silently truncate through the 32-bit cast.
  for (const char* header :
       {"abc def\n", "5\n", "5 x\n", "5 2 z\n", "4294967298 1\n"}) {
    write_text(path, header);
    EXPECT_THROW(MetisNodeStream stream(path), IoError) << header;
  }
  std::remove(path.c_str());
}

TEST(MetisBufferedErrors, MultiConstraintHeaderRejected) {
  const std::string path = temp_path("oms_buffered_multicon.graph");
  write_text(path, "4 2 110\n"); // fmt with a hundreds digit
  EXPECT_THROW(MetisNodeStream stream(path), IoError);
  write_text(path, "4 2 11 3\n"); // ncon = 3
  EXPECT_THROW(MetisNodeStream stream(path), IoError);
  std::remove(path.c_str());
}

TEST(MetisBufferedErrors, NeighborOutOfRange) {
  const std::string path = temp_path("oms_buffered_range.graph");
  write_text(path, "2 1\n2\n3\n"); // node 2 references neighbor 3 > n
  MetisNodeStream stream(path);
  StreamedNode node{};
  ASSERT_TRUE(stream.next(node));
  EXPECT_THROW(stream.next(node), IoError);
  std::remove(path.c_str());
}

TEST(MetisBufferedErrors, ZeroNeighborIdRejected) {
  const std::string path = temp_path("oms_buffered_zero.graph");
  write_text(path, "2 1\n0\n1\n"); // METIS ids are 1-based
  MetisNodeStream stream(path);
  StreamedNode node{};
  EXPECT_THROW(stream.next(node), IoError);
  std::remove(path.c_str());
}

TEST(MetisBufferedErrors, MissingEdgeWeight) {
  const std::string path = temp_path("oms_buffered_noweight.graph");
  write_text(path, "2 1 1\n2 7\n1\n"); // fmt=1 but node 2's weight is absent
  MetisNodeStream stream(path);
  StreamedNode node{};
  ASSERT_TRUE(stream.next(node));
  EXPECT_THROW(stream.next(node), IoError);
  std::remove(path.c_str());
}

TEST(MetisBufferedErrors, NonNumericToken) {
  const std::string path = temp_path("oms_buffered_garbage.graph");
  write_text(path, "2 1\n2\nfoo\n");
  MetisNodeStream stream(path);
  StreamedNode node{};
  ASSERT_TRUE(stream.next(node));
  EXPECT_THROW(stream.next(node), IoError);
  std::remove(path.c_str());
}

TEST(MetisBufferedErrors, MessageCarriesFileAndLine) {
  const std::string path = temp_path("oms_buffered_lineno.graph");
  write_text(path, "% comment\n2 1\n2\nbad\n");
  MetisNodeStream stream(path);
  StreamedNode node{};
  ASSERT_TRUE(stream.next(node));
  try {
    (void)stream.next(node);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(":4:"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

} // namespace
} // namespace oms
