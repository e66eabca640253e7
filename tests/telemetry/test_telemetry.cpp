/// Telemetry registry unit tests: histogram bucket math, per-thread shard
/// merge under real contention, arm/disarm hook semantics, span nesting,
/// gauge high-watermarks, the "oms.metrics.v1" JSON round-trip, and the
/// same stage spans and item counts on every partition route.
#include "oms/telemetry/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "oms/api/partitioner.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/io.hpp"
#include "oms/util/io_error.hpp"

namespace oms::telemetry {
namespace {

/// Every test arms its own scoped registry; the fixture guarantees disarm
/// even on failure so suites cannot leak an armed pointer into each other.
class MetricsTest : public ::testing::Test {
protected:
  void TearDown() override { MetricsRegistry::disarm(); }
  MetricsRegistry registry;
};

TEST_F(MetricsTest, BucketBoundariesAreLog2) {
  EXPECT_EQ(histogram_bucket(0), 0);
  EXPECT_EQ(histogram_bucket(1), 0);
  EXPECT_EQ(histogram_bucket(2), 1);
  EXPECT_EQ(histogram_bucket(3), 1);
  EXPECT_EQ(histogram_bucket(4), 2);
  EXPECT_EQ(histogram_bucket(7), 2);
  EXPECT_EQ(histogram_bucket(8), 3);
  EXPECT_EQ(histogram_bucket((1ULL << 39) - 1), 38);
  EXPECT_EQ(histogram_bucket(1ULL << 39), 39);
  // The last bucket is open-ended: anything huge lands there, never OOB.
  EXPECT_EQ(histogram_bucket(~0ULL), kHistogramBuckets - 1);
  EXPECT_EQ(histogram_bucket_floor(0), 0u);
  EXPECT_EQ(histogram_bucket_floor(1), 2u);
  EXPECT_EQ(histogram_bucket_floor(10), 1024u);
}

TEST_F(MetricsTest, DisarmedHooksAreNoOps) {
  ASSERT_EQ(MetricsRegistry::armed(), nullptr);
  EXPECT_FALSE(enabled());
  metric_add(Counter::kStreamNodes, 7);
  gauge_set(Gauge::kProgressTotalItems, 9);
  hist_record(Hist::kStageParse, 100);
  { const TraceSpan span(Hist::kStageAssign); }
  MetricsRegistry::arm(registry);
  const MetricsSnapshot snap = registry.scrape();
  EXPECT_EQ(snap.counter(Counter::kStreamNodes), 0u);
  EXPECT_EQ(snap.gauge(Gauge::kProgressTotalItems), 0u);
  EXPECT_EQ(snap.histogram(Hist::kStageParse).count, 0u);
  EXPECT_EQ(snap.histogram(Hist::kStageAssign).count, 0u);
}

TEST_F(MetricsTest, ArmedHooksLandInTheRegistry) {
  MetricsRegistry::arm(registry);
  EXPECT_TRUE(enabled());
  metric_add(Counter::kStreamNodes, 5);
  metric_add(Counter::kStreamNodes);
  gauge_set(Gauge::kProgressTotalItems, 42);
  hist_record(Hist::kStageParse, 1000);
  const MetricsSnapshot snap = registry.scrape();
  EXPECT_EQ(snap.counter(Counter::kStreamNodes), 6u);
  EXPECT_EQ(snap.gauge(Gauge::kProgressTotalItems), 42u);
  EXPECT_EQ(snap.histogram(Hist::kStageParse).count, 1u);
  EXPECT_EQ(snap.histogram(Hist::kStageParse).sum, 1000u);
  EXPECT_EQ(snap.histogram(Hist::kStageParse).buckets[histogram_bucket(1000)],
            1u);
}

TEST_F(MetricsTest, DestructorDisarmsItself) {
  {
    MetricsRegistry scoped;
    MetricsRegistry::arm(scoped);
    ASSERT_EQ(MetricsRegistry::armed(), &scoped);
  }
  // The scoped registry died armed; the global pointer must not dangle.
  EXPECT_EQ(MetricsRegistry::armed(), nullptr);
}

TEST_F(MetricsTest, GaugeMaxKeepsTheHighWatermark) {
  MetricsRegistry::arm(registry);
  gauge_max(Gauge::kPipelineQueueDepthMax, 3);
  gauge_max(Gauge::kPipelineQueueDepthMax, 9);
  gauge_max(Gauge::kPipelineQueueDepthMax, 5);
  EXPECT_EQ(registry.scrape().gauge(Gauge::kPipelineQueueDepthMax), 9u);
}

TEST_F(MetricsTest, TraceSpansRecordAndNest) {
  MetricsRegistry::arm(registry);
  {
    const TraceSpan outer(Hist::kStageBufferBuild);
    {
      const TraceSpan inner(Hist::kStageBufferRefine);
    }
    { const TraceSpan sibling(Hist::kStageBufferRefine); }
  }
  const MetricsSnapshot snap = registry.scrape();
  EXPECT_EQ(snap.histogram(Hist::kStageBufferBuild).count, 1u);
  EXPECT_EQ(snap.histogram(Hist::kStageBufferRefine).count, 2u);
  // Outer span wall time covers both inner spans.
  EXPECT_GE(snap.histogram(Hist::kStageBufferBuild).sum,
            snap.histogram(Hist::kStageBufferRefine).sum);
}

TEST_F(MetricsTest, SpanStartedWhileDisarmedRecordsNothing) {
  std::optional<TraceSpan> span;
  span.emplace(Hist::kStageParse);
  // Arming mid-span must not produce a bogus sample from a zero start time.
  MetricsRegistry::arm(registry);
  span.reset();
  EXPECT_EQ(registry.scrape().histogram(Hist::kStageParse).count, 0u);
}

TEST_F(MetricsTest, ShardedCountersMergeExactlyUnderContention) {
  MetricsRegistry::arm(registry);
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kAddsPerThread; ++i) {
        metric_add(Counter::kStreamNodes);
        hist_record(Hist::kServiceRequest, static_cast<std::uint64_t>(i));
        if (i % 4096 == 0) {
          // Concurrent scrape while writers run: must be data-race free
          // (TSan leg) and internally sane even if mid-update.
          MetricsRegistry* reg = MetricsRegistry::armed();
          ASSERT_NE(reg, nullptr);
          (void)reg->scrape();
        }
      }
    });
  }
  for (std::thread& t : threads) {
    t.join();
  }
  const MetricsSnapshot snap = registry.scrape();
  constexpr std::uint64_t kTotal =
      std::uint64_t{kThreads} * std::uint64_t{kAddsPerThread};
  EXPECT_EQ(snap.counter(Counter::kStreamNodes), kTotal);
  EXPECT_EQ(snap.histogram(Hist::kServiceRequest).count, kTotal);
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.histogram(Hist::kServiceRequest).buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, kTotal);
}

TEST_F(MetricsTest, ResetZeroesEverything) {
  MetricsRegistry::arm(registry);
  metric_add(Counter::kStreamEdges, 3);
  gauge_set(Gauge::kProgressTotalItems, 5);
  hist_record(Hist::kStageAssign, 7);
  registry.reset();
  EXPECT_EQ(registry.scrape(), MetricsSnapshot{});
}

TEST_F(MetricsTest, PublishWorkMapsOntoWorkCounters) {
  MetricsRegistry::arm(registry);
  WorkCounters work;
  work.score_evaluations = 11;
  work.neighbor_visits = 22;
  work.layers_traversed = 33;
  work.candidate_evaluations = 4;
  publish_work(work);
  publish_work(work);
  const MetricsSnapshot snap = registry.scrape();
  EXPECT_EQ(snap.counter(Counter::kWorkScoreEvaluations), 22u);
  EXPECT_EQ(snap.counter(Counter::kWorkNeighborVisits), 44u);
  EXPECT_EQ(snap.counter(Counter::kWorkLayersTraversed), 66u);
  EXPECT_EQ(snap.counter(Counter::kWorkCandidateEvaluations), 8u);
  EXPECT_STREQ(counter_name(Counter::kWorkCandidateEvaluations),
               "work.candidate_evaluations");
  EXPECT_NE(snap.to_json().find("\"work.candidate_evaluations\":8"), std::string::npos);
}

TEST_F(MetricsTest, JsonRoundTripIsExact) {
  MetricsRegistry::arm(registry);
  for (int c = 0; c < kNumCounters; ++c) {
    registry.add(static_cast<Counter>(c), static_cast<std::uint64_t>(c) * 31 + 1);
  }
  for (int g = 0; g < kNumGauges; ++g) {
    registry.gauge_set(static_cast<Gauge>(g), static_cast<std::uint64_t>(g) + 5);
  }
  for (int h = 0; h < kNumHists; ++h) {
    registry.record(static_cast<Hist>(h), std::uint64_t{1} << (h + 2));
    registry.record(static_cast<Hist>(h), 0);
  }
  const MetricsSnapshot snap = registry.scrape();
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"schema\":\"oms.metrics.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"stream.nodes\""), std::string::npos);
  EXPECT_NE(json.find("\"service.request_ns\""), std::string::npos);
  const MetricsSnapshot parsed = MetricsSnapshot::from_json(json);
  EXPECT_EQ(parsed, snap);
  // Serialization is canonical: same snapshot, same bytes.
  EXPECT_EQ(parsed.to_json(), json);
}

TEST_F(MetricsTest, JsonParserRejectsMalformedDocuments) {
  const std::string good = MetricsSnapshot{}.to_json();
  EXPECT_THROW((void)MetricsSnapshot::from_json(""), IoError);
  EXPECT_THROW((void)MetricsSnapshot::from_json("{}"), IoError);
  EXPECT_THROW((void)MetricsSnapshot::from_json(good + "x"), IoError);
  EXPECT_THROW(
      (void)MetricsSnapshot::from_json(good.substr(0, good.size() / 2)),
      IoError);
  std::string wrong_schema = good;
  wrong_schema.replace(wrong_schema.find("v1"), 2, "v9");
  EXPECT_THROW((void)MetricsSnapshot::from_json(wrong_schema), IoError);
  std::string unknown_name = good;
  unknown_name.replace(unknown_name.find("stream.nodes"), 12, "stream.bogus");
  EXPECT_THROW((void)MetricsSnapshot::from_json(unknown_name), IoError);
  // Whitespace, though never emitted, is tolerated on re-ingest.
  std::string spaced = good;
  for (std::size_t at = spaced.find("\":"); at != std::string::npos;
       at = spaced.find("\":", at + 3)) {
    spaced.replace(at, 2, "\": ");
  }
  EXPECT_EQ(MetricsSnapshot::from_json(spaced), MetricsSnapshot{});
}

TEST_F(MetricsTest, MetricNamesAreUniqueAndStable) {
  std::vector<std::string> names;
  for (int c = 0; c < kNumCounters; ++c) {
    names.emplace_back(counter_name(static_cast<Counter>(c)));
  }
  for (int g = 0; g < kNumGauges; ++g) {
    names.emplace_back(gauge_name(static_cast<Gauge>(g)));
  }
  for (int h = 0; h < kNumHists; ++h) {
    names.emplace_back(hist_name(static_cast<Hist>(h)));
  }
  for (std::size_t i = 0; i < names.size(); ++i) {
    EXPECT_FALSE(names[i].empty());
    for (std::size_t j = i + 1; j < names.size(); ++j) {
      EXPECT_NE(names[i], names[j]) << "duplicate metric name";
    }
  }
  EXPECT_STREQ(counter_name(Counter::kStreamNodes), "stream.nodes");
  EXPECT_STREQ(gauge_name(Gauge::kProgressTotalItems), "progress.total_items");
  EXPECT_STREQ(hist_name(Hist::kServiceRequest), "service.request_ns");
}

// --- every partition route reports through the same hooks -------------------

/// Each disk route (METIS one-pass, buffered, edge list; with and without
/// the reader thread) emits parse and assign spans and counts the streamed
/// items exactly once. In-memory runs publish their node count too. Every
/// route, the in-memory ones included, reads its file through the one
/// buffered reader, so each reports the file's bytes and lines.
/// Bytes and newline-terminated lines of a file.
std::pair<std::uint64_t, std::uint64_t> size_of(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  return {bytes.size(), static_cast<std::uint64_t>(
                            std::count(bytes.begin(), bytes.end(), '\n'))};
}

TEST(RouteTelemetry, EveryRouteEmitsSpansAndCountsItemsOnce) {
  const CsrGraph graph = gen::barabasi_albert(3000, 3, 5);
  const std::string metis = ::testing::TempDir() + "/oms_route_telemetry.graph";
  const std::string edges = ::testing::TempDir() + "/oms_route_telemetry.edgelist";
  write_metis(graph, metis);
  write_edge_list(graph, edges);

  struct Route {
    const std::string* path;
    const char* algo;
    bool from_disk;
    bool pipeline;
  };
  const Route routes[] = {
      {&metis, "fennel", true, false},   {&metis, "fennel", true, true},
      {&metis, "buffered", true, false}, {&metis, "buffered", true, true},
      {&edges, "hdrf", true, false},     {&edges, "hdrf", true, true},
      {&metis, "buffered", false, false}, {&metis, "fennel", false, false},
  };
  for (const Route& route : routes) {
    PartitionRequest req;
    req.graph_path = *route.path;
    req.algo = route.algo;
    req.k = 4;
    req.from_disk = route.from_disk;
    req.pipeline = route.pipeline;
    const std::string label = std::string(route.algo) +
                              (route.from_disk ? " disk" : " memory") +
                              (route.pipeline ? " pipelined" : "");
    MetricsRegistry registry;
    MetricsRegistry::arm(registry);
    (void)Partitioner().partition(req);
    MetricsRegistry::disarm();
    const MetricsSnapshot snap = registry.scrape();
    const bool edge_route = route.path == &edges;
    const std::uint64_t nodes = edge_route ? 0 : graph.num_nodes();
    const std::uint64_t edges = edge_route ? graph.num_edges() : 0;
    EXPECT_EQ(snap.counter(Counter::kStreamNodes), nodes) << label;
    EXPECT_EQ(snap.counter(Counter::kStreamEdges), edges) << label;
    const auto [bytes, lines] = size_of(*route.path);
    EXPECT_EQ(snap.counter(Counter::kStreamBytesRead), bytes) << label;
    EXPECT_EQ(snap.counter(Counter::kStreamLinesParsed), lines) << label;
    if (route.from_disk) {
      EXPECT_GT(snap.histogram(Hist::kStageParse).count, 0u) << label;
      EXPECT_GT(snap.histogram(Hist::kStageAssign).count, 0u) << label;
    }
  }
  std::remove(metis.c_str());
  std::remove(edges.c_str());
}

} // namespace
} // namespace oms::telemetry
