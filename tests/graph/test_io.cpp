#include "oms/graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>

#include "oms/graph/generators.hpp"
#include "oms/graph/graph_builder.hpp"
#include "oms/stream/metis_stream.hpp"
#include "oms/util/io_error.hpp"
#include "tests/test_support.hpp"

namespace oms {
namespace {

class IoTest : public ::testing::Test {
protected:
  std::string temp_path(const char* name) {
    return ::testing::TempDir() + "/oms_io_" + name;
  }
};

void expect_graphs_equal(const CsrGraph& a, const CsrGraph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId u = 0; u < a.num_nodes(); ++u) {
    EXPECT_EQ(a.node_weight(u), b.node_weight(u));
    const auto na = a.neighbors(u);
    const auto nb = b.neighbors(u);
    ASSERT_EQ(na.size(), nb.size());
    for (std::size_t i = 0; i < na.size(); ++i) {
      EXPECT_EQ(na[i], nb[i]);
      EXPECT_EQ(a.incident_weights(u)[i], b.incident_weights(u)[i]);
    }
  }
}

TEST_F(IoTest, MetisRoundTripUnitWeights) {
  const CsrGraph original = gen::grid_2d(13, 17);
  const std::string path = temp_path("unit.graph");
  write_metis(original, path);
  const CsrGraph loaded = read_metis(path);
  expect_graphs_equal(original, loaded);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisRoundTripEdgeWeights) {
  GraphBuilder builder(4);
  builder.add_edge(0, 1, 5);
  builder.add_edge(1, 2, 7);
  builder.add_edge(2, 3, 2);
  const CsrGraph original = std::move(builder).build();
  const std::string path = temp_path("ew.graph");
  write_metis(original, path);
  const CsrGraph loaded = read_metis(path);
  expect_graphs_equal(original, loaded);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisRoundTripNodeAndEdgeWeights) {
  GraphBuilder builder(5);
  builder.set_node_weight(0, 3);
  builder.set_node_weight(4, 9);
  builder.add_edge(0, 1, 2);
  builder.add_edge(0, 4, 11);
  builder.add_edge(3, 4);
  const CsrGraph original = std::move(builder).build();
  const std::string path = temp_path("nwew.graph");
  write_metis(original, path);
  const CsrGraph loaded = read_metis(path);
  expect_graphs_equal(original, loaded);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisSkipsCommentLines) {
  const std::string path = temp_path("comments.graph");
  {
    std::ofstream out(path);
    out << "% a comment\n3 2\n% another\n2\n1 3\n2\n";
  }
  const CsrGraph g = read_metis(path);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisIsolatedTrailingNodes) {
  const std::string path = temp_path("isolated.graph");
  {
    std::ofstream out(path);
    out << "4 1\n2\n1\n"; // nodes 3 and 4 have no lines
  }
  const CsrGraph g = read_metis(path);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(2), 0u);
  EXPECT_EQ(g.degree(3), 0u);
  // In a node-weighted file too: a missing line is not a line missing its
  // weight, so the node gets unit weight.
  {
    std::ofstream out(path);
    out << "4 1 10\n3 2\n5 1\n";
  }
  const CsrGraph weighted = read_metis(path);
  EXPECT_EQ(weighted.node_weight(1), 5);
  EXPECT_EQ(weighted.node_weight(2), 1);
  EXPECT_EQ(weighted.node_weight(3), 1);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisIsolatedMidStreamNodesKeepTheirSlot) {
  // Regression: an isolated node is written as an *empty* line; the reader
  // must consume it instead of skipping it, or every later adjacency list
  // shifts onto the wrong node.
  GraphBuilder builder(5);
  builder.add_edge(0, 1);
  builder.add_edge(3, 4); // node 2 is isolated, in the middle of the file
  const CsrGraph original = std::move(builder).build();
  const std::string path = temp_path("midiso.graph");
  write_metis(original, path);
  const CsrGraph loaded = read_metis(path);
  EXPECT_EQ(loaded.degree(2), 0u);
  EXPECT_EQ(loaded.degree(3), 1u);
  expect_graphs_equal(original, loaded);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// IoError channel: malformed input raises a recoverable exception carrying
// the file position — never an assertion abort (finishes the migration the
// streaming reader started).
// ---------------------------------------------------------------------------

void expect_edge_count_error(const std::string& path) {
  try {
    (void)read_metis(path);
    ADD_FAILURE() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("edge count disagrees with METIS header"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, MetisHeaderMismatchThrows) {
  // The file has 2 edges. read_metis sizes its edge array from the header,
  // clamped to what the file can hold, so an absurd m fails the count check
  // too, not the allocation (std::bad_alloc or std::length_error). A pipe
  // has no size, so there it gets no reserve at all.
  const std::string path = temp_path("badheader.graph");
  const std::string fifo = temp_path("badheader.fifo");
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  for (const char* m : {"5", "1000000000000000", "9223372036854775807"}) {
    SCOPED_TRACE(std::string("header m = ") + m);
    const std::string content = std::string("3 ") + m + "\n2\n1 3\n2\n";
    {
      std::ofstream out(path);
      out << content;
    }
    expect_edge_count_error(path);
    std::thread writer([&] { std::ofstream(fifo) << content; });
    expect_edge_count_error(fifo);
    writer.join();
  }
  std::remove(path.c_str());
  std::remove(fifo.c_str());
}

TEST_F(IoTest, MetisRecordsEachEdgeFromItsLowerEndpoint) {
  // read_metis keeps the upper triangle: an entry counts only when listed
  // from the lower id. Node 1 lists 2 twice (weights sum to 2); node 2 lists
  // 1 twice (ignored: higher endpoint), itself (dropped) and 4, which node 4
  // does not list back (kept); node 4 lists 3, which node 3 does not list
  // back (dropped). That leaves 3 edges, so the header decides.
  const std::string path = temp_path("triangle.graph");
  const char* body = "2 2 3\n1 1 2 4\n1\n3\n";
  {
    std::ofstream out(path);
    out << "4 3\n" << body;
  }
  const CsrGraph g = read_metis(path);
  const auto as_vector = [](auto span) { return std::vector(span.begin(), span.end()); };
  EXPECT_EQ(as_vector(g.raw_xadj()), (std::vector<EdgeIndex>{0, 2, 4, 5, 6}));
  EXPECT_EQ(as_vector(g.raw_adjncy()), (std::vector<NodeId>{1, 2, 0, 3, 0, 1}));
  EXPECT_EQ(testing::arc_weights(g), (std::vector<EdgeWeight>{2, 1, 2, 1, 1, 1}));
  EXPECT_EQ(as_vector(g.raw_vwgt()), (std::vector<NodeWeight>{1, 1, 1, 1}));

  // Counting the edge 3-4 from its higher endpoint is the header's mistake.
  {
    std::ofstream out(path);
    out << "4 4\n" << body;
  }
  expect_edge_count_error(path);
  std::remove(path.c_str());
}

TEST_F(IoTest, MetisAcceptsConstraintCountOne) {
  // ncon == 1 stays accepted (it's the only workable value).
  const std::string path = temp_path("ncon1.graph");
  {
    std::ofstream out(path);
    out << "3 2 10 1\n1 2\n2 1 3\n3 2\n";
  }
  const CsrGraph g = read_metis(path);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.node_weight(1), 2);
  std::remove(path.c_str());
}

/// One malformed METIS file: its content, the line the error must name and a
/// fragment of the reason.
struct MalformedMetis {
  const char* content;
  int line;
  const char* reason;
};

// The in-memory reader and the disk stream share one parser, so every file
// here must fail on both routes at the same position. Header cases include
// the multi-constraint forms (fmt hundreds digit, ncon != 1), an fmt that is
// not binary digits and trailing junk; data-line cases include the weight
// rule (edge weights >= 1, node weights >= 0, a node-weighted line must
// carry its weight).
constexpr MalformedMetis kMalformedMetis[] = {
    {"", 0, "missing METIS header"},
    {"abc def\n", 1, "malformed METIS header"},
    {"5\n", 1, "malformed METIS header"},
    {"5 x\n", 1, "malformed METIS header"},
    {"-3 1\n", 1, "negative sizes"},
    {"4 2 110\n", 1, "multi-constraint"},
    {"4 2 10 2\n", 1, "multi-constraint"},
    {"4 2 11 3\n", 1, "multi-constraint"},
    {"5 2 0 1 9\n", 1, "trailing tokens"},
    // fmt is up to three binary digits; a weighted path under fmt 2 would
    // otherwise parse as an unweighted graph with other edges.
    {"4 3 2\n2 1\n1 1 3 2\n2 2 4 3\n3 3\n", 1, "fmt field 2"},
    {"4 3 -1\n2\n1 3\n2 4\n3\n", 1, "fmt field -1"},
    {"4 3 19\n", 1, "fmt field 19"},
    {"4 3 1000\n", 1, "fmt field 1000"},
    {"% comment\n2 1\n2\n9\n", 4, "out of range"},
    {"2 1\n2\nfoo\n", 3, "malformed integer token"},
    {"2 1 1\n2 5\n1\n", 3, "missing edge weight"},
    {"2 1 1\n2 0\n1 0\n", 2, "edge weight 0 is not positive"},
    {"2 1 1\n2 -3\n1 -3\n", 2, "edge weight -3 is not positive"},
    {"2 1 11\n1 2 4\n1 1 -4\n", 3, "edge weight -4 is not positive"},
    {"2 1 10\n-1 2\n1 1\n", 2, "node weight -1 is negative"},
    {"2 1 10\n1 2\n\n", 3, "missing node weight"},
};

TEST_F(IoTest, MalformedMetisThrowsWithPositionOnBothRoutes) {
  const std::string path = temp_path("malformed.graph");
  for (const MalformedMetis& bad : kMalformedMetis) {
    SCOPED_TRACE(std::string("file: ") + bad.content);
    {
      std::ofstream out(path);
      out << bad.content;
    }
    const std::string position =
        bad.line == 0 ? path + ":" : path + ":" + std::to_string(bad.line) + ":";
    const auto expect_error = [&](const auto& read) {
      try {
        read();
        ADD_FAILURE() << "expected IoError";
      } catch (const IoError& e) {
        const std::string what = e.what();
        EXPECT_EQ(what.rfind(position, 0), 0u) << what;
        EXPECT_NE(what.find(bad.reason), std::string::npos) << what;
      }
    };
    expect_error([&] { (void)read_metis(path); });
    expect_error([&] {
      MetisNodeStream stream(path);
      testing::for_each_node(stream, [](const StreamedNode&) {});
    });
  }
  std::remove(path.c_str());
}

TEST_F(IoTest, SkipPolicyTurnsBadWeightLinesIntoIsolatedNodes) {
  // --on-error skip covers the weight rule on the disk route: the line keeps
  // its id slot as an isolated unit-weight node.
  const std::string path = temp_path("skipweight.graph");
  {
    std::ofstream out(path);
    out << "3 1 11\n5 2 0\n7 1 0\n-2\n";
  }
  MetisNodeStream stream(path);
  stream.set_error_policy({StreamErrorPolicy::Action::kSkip, 10});
  std::vector<NodeWeight> weights;
  testing::for_each_node(stream, [&](const StreamedNode& node) {
    EXPECT_TRUE(node.neighbors.empty()) << node.id;
    weights.push_back(node.weight);
  });
  EXPECT_EQ(weights, (std::vector<NodeWeight>{1, 1, 1}));
  EXPECT_EQ(stream.error_stats().lines_skipped, 3u);
  EXPECT_EQ(stream.error_stats().first_line, 2u);
  std::remove(path.c_str());
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW((void)read_metis("/nonexistent/surely/missing.graph"), IoError);
}

} // namespace
} // namespace oms
