/// \file test_edge_stream.cpp
/// \brief EdgeListStream: SNAP-style parsing (comments, whitespace, optional
///        weights, self-loop skipping, missing trailing newline), the
///        fill_batch chunk-handoff parity, rewind(), and the IoError channel
///        for malformed content.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "oms/stream/edge_list_stream.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

void write_text(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
}

std::vector<StreamedEdge> drain(EdgeListStream& stream) {
  std::vector<StreamedEdge> edges;
  StreamedEdge edge;
  while (stream.next(edge)) {
    edges.push_back(edge);
  }
  return edges;
}

TEST(EdgeListStream, ParsesPlainEdges) {
  const std::string path = temp_path("oms_es_plain.edgelist");
  write_text(path, "0 1\n1 2\n2 0\n");
  EdgeListStream stream(path);
  const auto edges = drain(stream);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].u, 0u);
  EXPECT_EQ(edges[0].v, 1u);
  EXPECT_EQ(edges[0].weight, 1);
  EXPECT_EQ(edges[2].u, 2u);
  EXPECT_EQ(edges[2].v, 0u);
  EXPECT_EQ(stream.edges_delivered(), 3u);
  EXPECT_EQ(stream.max_vertex_id(), 2u);
  EXPECT_EQ(stream.self_loops_skipped(), 0u);
  std::remove(path.c_str());
}

TEST(EdgeListStream, SkipsCommentsBlanksAndSelfLoops) {
  const std::string path = temp_path("oms_es_comments.edgelist");
  write_text(path,
             "# SNAP-style header comment\n"
             "# NodeId\tNodeId\n"
             "\n"
             "0\t1\n"
             "3 3\n"
             "  \t \n"
             "2 4\n");
  EdgeListStream stream(path);
  const auto edges = drain(stream);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].u, 0u);
  EXPECT_EQ(edges[0].v, 1u);
  EXPECT_EQ(edges[1].u, 2u);
  EXPECT_EQ(edges[1].v, 4u);
  EXPECT_EQ(stream.self_loops_skipped(), 1u);
  EXPECT_EQ(stream.max_vertex_id(), 4u);
  std::remove(path.c_str());
}

TEST(EdgeListStream, ParsesWeightsAndMissingTrailingNewline) {
  const std::string path = temp_path("oms_es_weights.edgelist");
  write_text(path, "0 1 7\n1 2 3\n2 3 9"); // no trailing newline
  EdgeListStream stream(path);
  const auto edges = drain(stream);
  ASSERT_EQ(edges.size(), 3u);
  EXPECT_EQ(edges[0].weight, 7);
  EXPECT_EQ(edges[1].weight, 3);
  EXPECT_EQ(edges[2].weight, 9);
  std::remove(path.c_str());
}

TEST(EdgeListStream, TinyBufferExercisesRefillSeams) {
  // A 64-byte buffer (the minimum) forces many memmove+refill steps.
  const std::string path = temp_path("oms_es_tiny.edgelist");
  std::string text = "# comment line that is longer than the tiny buffer size\n";
  for (int i = 0; i < 200; ++i) {
    text += std::to_string(i) + " " + std::to_string(i + 1) + "\n";
  }
  write_text(path, text);
  EdgeListStream stream(path, 1);
  const auto edges = drain(stream);
  ASSERT_EQ(edges.size(), 200u);
  for (std::size_t i = 0; i < edges.size(); ++i) {
    EXPECT_EQ(edges[i].u, static_cast<NodeId>(i));
    EXPECT_EQ(edges[i].v, static_cast<NodeId>(i + 1));
  }
  std::remove(path.c_str());
}

TEST(EdgeListStream, FillBatchMatchesNext) {
  const std::string path = temp_path("oms_es_batch.edgelist");
  std::string text;
  for (int i = 0; i < 97; ++i) {
    text += std::to_string(i % 13) + " " + std::to_string(i % 7 + 13) + "\n";
  }
  write_text(path, text);

  EdgeListStream seq(path);
  const auto expected = drain(seq);

  for (const std::size_t batch_size : {1u, 7u, 64u, 1000u}) {
    EdgeListStream stream(path);
    EdgeBatch batch;
    std::vector<StreamedEdge> got;
    while (stream.fill_batch(batch, batch_size) > 0) {
      EXPECT_LE(batch.size(), batch_size);
      for (std::size_t i = 0; i < batch.size(); ++i) {
        got.push_back(batch.edge(i));
      }
    }
    ASSERT_EQ(got.size(), expected.size()) << "batch size " << batch_size;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].u, expected[i].u);
      EXPECT_EQ(got[i].v, expected[i].v);
      EXPECT_EQ(got[i].weight, expected[i].weight);
    }
  }
  std::remove(path.c_str());
}

TEST(EdgeListStream, RewindReplaysTheStream) {
  const std::string path = temp_path("oms_es_rewind.edgelist");
  write_text(path, "# header\n0 1\n1 2\n4 4\n2 3\n");
  EdgeListStream stream(path);
  const auto first = drain(stream);
  stream.rewind();
  EXPECT_EQ(stream.edges_delivered(), 0u);
  const auto second = drain(stream);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].u, second[i].u);
    EXPECT_EQ(first[i].v, second[i].v);
  }
  EXPECT_EQ(stream.self_loops_skipped(), 1u);
  std::remove(path.c_str());
}

// Tokenizer edges. The scanner relies on the reader's line terminator
// instead of bounds checks, so each case runs at buffer sizes around the
// 64-byte floor: behind a 60-byte comment, lines and tokens straddle refills
// at a different byte for each size.

constexpr std::size_t kTinyBuffers[] = {1, 64, 65, 66, 67, 70, 77, 96, 130};

/// Stream "<60-byte comment>\n" + \p body (so the body starts on line 2)
/// at buffer size \p buffer. Renders the edges as "u-v/w" separated by "|",
/// or the error message with the path cut off.
std::string drain_rendered(const std::string& body, std::size_t buffer) {
  const std::string path = temp_path("oms_es_tokens.edgelist");
  write_text(path, "#" + std::string(58, '-') + "\n" + body);
  std::string out;
  try {
    EdgeListStream stream(path, buffer);
    for (const StreamedEdge& e : drain(stream)) {
      if (!out.empty()) {
        out += '|';
      }
      out += std::to_string(e.u) + "-" + std::to_string(e.v) + "/" +
             std::to_string(e.weight);
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

TEST(EdgeListTokenizer, FinalLineWithoutNewline) {
  expect_rendered("0 1\n2 3 7", "0-1/1|2-3/7");
  expect_rendered("0 1\n4294967294 3 123456", "0-1/1|4294967294-3/123456");
  expect_rendered("0 1\n2 3x", ":3: malformed integer token in edge line");
  expect_rendered("0 1\n2", ":3: truncated edge line (one endpoint)");
}

TEST(EdgeListTokenizer, EighteenToTwentyDigitTokens) {
  expect_rendered("0 1 123456789012345678\n1 2 9223372036854775807\n",
                  "0-1/123456789012345678|1-2/9223372036854775807");
  expect_rendered("0000000000000000000007 00000000000000000000000009\n", "7-9/1");
  expect_rendered("0 123456789012345678\n",
                  ":2: endpoint id out of range [0, 4294967294]");
  expect_rendered("1234567890123456789 0\n",
                  ":2: endpoint id out of range [0, 4294967294]");
  expect_rendered("0 1 9223372036854775808\n",
                  ":2: malformed integer token in edge line");
  expect_rendered("12345678901234567890 0\n",
                  ":2: malformed integer token in edge line");
}

TEST(EdgeListTokenizer, NegativeAndSignedTokens) {
  expect_rendered("-1 4\n", ":2: endpoint id out of range [0, 4294967294]");
  expect_rendered("0 1 -3\n", ":2: non-positive edge weight -3");
  expect_rendered("0 +1\n", ":2: malformed integer token in edge line");
  expect_rendered("0 1 -\n", ":2: malformed integer token in edge line");
}

TEST(EdgeListTokenizer, TabsAndCarriageReturns) {
  expect_rendered("0\t1\r\n2 3\t9\r\n\t\r\n4\t5 \r", "0-1/1|2-3/9|4-5/1");
  expect_rendered("\r\n\t \r\n1 2\r\n", "1-2/1");
}

TEST(EdgeListTokenizer, DigitRunFollowedByJunk) {
  // "12x": the run is a token of its own, and the junk fails the next one.
  expect_rendered("0 12x\n", ":2: malformed integer token in edge line");
  expect_rendered("12x 0\n", ":2: malformed integer token in edge line");
  expect_rendered("0 1 5x\n", ":2: malformed integer token in edge line");
  expect_rendered("0 1-2\n", ":2: non-positive edge weight -2");
}

// IoError channel: malformed *content* must raise, not abort.

TEST(EdgeListStreamError, UnopenablePath) {
  EXPECT_THROW(EdgeListStream("/nonexistent/definitely_not_here.edgelist"),
               IoError);
}

TEST(EdgeListStreamError, NonNumericEndpoint) {
  const std::string path = temp_path("oms_es_garbage.edgelist");
  write_text(path, "0 1\n2 xyz\n");
  EdgeListStream stream(path);
  StreamedEdge edge;
  ASSERT_TRUE(stream.next(edge));
  EXPECT_THROW(stream.next(edge), IoError);
  std::remove(path.c_str());
}

TEST(EdgeListStreamError, TruncatedLastLine) {
  const std::string path = temp_path("oms_es_trunc.edgelist");
  write_text(path, "0 1\n2"); // last line lost its second endpoint
  EdgeListStream stream(path);
  StreamedEdge edge;
  ASSERT_TRUE(stream.next(edge));
  EXPECT_THROW(stream.next(edge), IoError);
  std::remove(path.c_str());
}

TEST(EdgeListStreamError, EmptyFileAndCommentOnlyFile) {
  for (const char* text : {"", "# nothing here\n# at all\n", "3 3\n5 5\n"}) {
    const std::string path = temp_path("oms_es_empty.edgelist");
    write_text(path, text);
    EdgeListStream stream(path);
    StreamedEdge edge;
    EXPECT_THROW(stream.next(edge), IoError) << "text: '" << text << "'";
    std::remove(path.c_str());
  }
}

TEST(EdgeListStreamError, TrailingTokensAndBadWeight) {
  {
    const std::string path = temp_path("oms_es_trail.edgelist");
    write_text(path, "0 1 2 3\n");
    EdgeListStream stream(path);
    StreamedEdge edge;
    EXPECT_THROW(stream.next(edge), IoError);
    std::remove(path.c_str());
  }
  {
    const std::string path = temp_path("oms_es_badw.edgelist");
    write_text(path, "0 1 0\n");
    EdgeListStream stream(path);
    StreamedEdge edge;
    EXPECT_THROW(stream.next(edge), IoError);
    std::remove(path.c_str());
  }
  {
    const std::string path = temp_path("oms_es_negid.edgelist");
    write_text(path, "-1 4\n");
    EdgeListStream stream(path);
    StreamedEdge edge;
    EXPECT_THROW(stream.next(edge), IoError);
    std::remove(path.c_str());
  }
}

TEST(EdgeListStreamError, MessageCarriesFileAndLine) {
  const std::string path = temp_path("oms_es_lineno.edgelist");
  write_text(path, "# comment\n0 1\nbad line\n");
  EdgeListStream stream(path);
  StreamedEdge edge;
  ASSERT_TRUE(stream.next(edge));
  try {
    (void)stream.next(edge);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(":3:"), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

} // namespace
} // namespace oms
