/// \file metrics.hpp
/// \brief The observability spine: a process-global MetricsRegistry of named
///        counters, gauges and fixed-bucket latency histograms, plus RAII
///        trace spans recording per-stage wall time into it.
///
/// The hooks (metric_add / gauge_* / hist_record / TraceSpan) are compiled
/// permanently into the hot paths — the pipeline core, the line reader, the
/// stream drivers, the service request loop — but cost exactly one relaxed
/// atomic pointer load and a predicted-not-taken branch while no registry is
/// armed, mirroring the fault-injection arming pattern (fault_injection.hpp).
/// The gated BM_* benches run with the hooks in and must not move;
/// BM_TelemetryOverhead pins the armed-vs-disarmed delta.
///
/// When a registry IS armed, updates land in per-thread shards (relaxed
/// atomics on thread-partitioned cache lines, so concurrent pipeline
/// consumers and service connections never contend) and are merged on
/// scrape(). Hot loops should still prefer batch-granularity updates — one
/// metric_add per parsed batch or processed buffer, not per node.
///
/// Arming is process-global and follows the fault-plan contract: arm before
/// the instrumented threads start, disarm after they joined (thread creation
/// and joining provide the ordering the relaxed hook load relies on). The
/// CLI tools (--metrics-out / --progress), oms_serve and the telemetry tests
/// are the intended users; library runs without one armed pay nothing.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <string>

#include "oms/util/work_counters.hpp"

namespace oms::telemetry {

/// Monotonic counters. Enum order is the stable JSON schema order.
enum class Counter : std::uint16_t {
  kStreamBytesRead = 0,  ///< raw bytes delivered by the buffered line reader
  kStreamReadRetries,    ///< transient raw-read failures retried with backoff
  kStreamLinesParsed,    ///< lines the reader handed to a parser
  kStreamNodes,          ///< nodes streamed (disk node streams)
  kStreamEdges,          ///< edges streamed (disk edge-list streams)
  kPipelineBatches,      ///< batches consumed by the pipeline
  kPipelineProducerStallNs, ///< producer blocked waiting for a recycled batch
  kPipelineConsumerWaitNs,  ///< consumers blocked waiting for a parsed batch
  kWorkScoreEvaluations, ///< WorkCounters: candidate block scores evaluated
  kWorkNeighborVisits,   ///< WorkCounters: neighbor inspections
  kWorkLayersTraversed,  ///< WorkCounters: tree layers descended
  kWorkCandidateEvaluations, ///< WorkCounters: blocks actually scored
  kBufferedBuffers,      ///< buffers the buffered core built and committed
  kMultilevelCommitsAccepted, ///< V-cycle results that beat the lp candidate
  kMultilevelCommitsRejected, ///< V-cycle results discarded (lp kept)
  kMultilevelBackoffSkips,    ///< buffers skipped by the V-cycle backoff
  kWindowEvictions,      ///< sliding-window delayed commits (ring evictions)
  kCheckpointSnapshots,  ///< checkpoint files written
  kCheckpointBytes,      ///< bytes written into checkpoint files
  kServiceReqWhere,      ///< service requests by opcode...
  kServiceReqRank,
  kServiceReqBatch,
  kServiceReqStats,
  kServiceReqSnapshot,
  kServiceReqShutdown,
  kServiceReqMetrics,
  kServiceReqInvalid,    ///< ...plus malformed frames / unknown opcodes
  kServiceConnsAccepted, ///< connections admitted to a worker slot
  kServiceConnsRejected, ///< connections shed with kOverloaded at accept
  kServiceTimeouts,      ///< connections closed by the idle/read deadline
  kServiceDrains,        ///< kShuttingDown replies sent while draining
  kCount
};

/// Last-value / high-watermark gauges.
enum class Gauge : std::uint16_t {
  kProgressTotalItems = 0, ///< announced stream size (0 = unknown), for ETA
  kPipelineQueueDepthMax,  ///< high watermark of the filled-batch queue
  kServiceConnsActive,     ///< connections currently owning a worker slot
  kQualityEdgeCut,         ///< edge cut of the last node partition
  kQualityMappingJ,        ///< mapping cost J of the last node mapping
  kCount
};

/// Fixed-bucket latency histograms (nanoseconds; log2 buckets). Trace spans
/// record into these, so each one doubles as a per-stage wall-time total
/// (sum) and invocation count.
enum class Hist : std::uint16_t {
  kStageParse = 0,       ///< pipeline producer: parsing one batch
  kStageAssign,          ///< pipeline consumer: assigning one batch
  kStageBufferBuild,     ///< buffered core: model build + greedy placement
  kStageBufferRefine,    ///< buffered core: active-set lp refinement
  kStageMultilevel,      ///< buffered core: multilevel V-cycle improve()
  kStageCheckpointWrite, ///< one checkpoint snapshot (serialize + fsync path)
  kPipelineQueueWait,    ///< distribution of consumer waits on the filled queue
  kServiceRequest,       ///< service: one handle() call, any opcode
  kCount
};

inline constexpr int kNumCounters = static_cast<int>(Counter::kCount);
inline constexpr int kNumGauges = static_cast<int>(Gauge::kCount);
inline constexpr int kNumHists = static_cast<int>(Hist::kCount);

/// Log2 buckets: bucket i counts values in [2^i, 2^(i+1)) ns (bucket 0 also
/// holds 0), the last bucket is open-ended. 40 buckets reach ~18 minutes.
inline constexpr int kHistogramBuckets = 40;

/// Stable wire/JSON names (index == enum value).
[[nodiscard]] const char* counter_name(Counter c) noexcept;
[[nodiscard]] const char* gauge_name(Gauge g) noexcept;
[[nodiscard]] const char* hist_name(Hist h) noexcept;

/// Bucket of \p value: floor(log2) clamped to the open-ended last bucket.
[[nodiscard]] constexpr int histogram_bucket(std::uint64_t value) noexcept {
  if (value < 2) {
    return 0;
  }
  const int b = 63 - std::countl_zero(value);
  return b < kHistogramBuckets ? b : kHistogramBuckets - 1;
}

/// Inclusive lower bound of bucket \p i (0 for bucket 0).
[[nodiscard]] constexpr std::uint64_t histogram_bucket_floor(int i) noexcept {
  return i == 0 ? 0 : std::uint64_t{1} << i;
}

struct HistogramSnapshot {
  std::uint64_t count = 0;
  std::uint64_t sum = 0; ///< sum of recorded values (ns for span histograms)
  std::array<std::uint64_t, kHistogramBuckets> buckets{};
  bool operator==(const HistogramSnapshot&) const = default;
};

/// A merged point-in-time view of a registry — what --metrics-out writes and
/// the METRICS opcode returns.
struct MetricsSnapshot {
  std::array<std::uint64_t, kNumCounters> counters{};
  std::array<std::uint64_t, kNumGauges> gauges{};
  std::array<HistogramSnapshot, kNumHists> histograms{};

  [[nodiscard]] std::uint64_t counter(Counter c) const noexcept {
    return counters[static_cast<std::size_t>(c)];
  }
  [[nodiscard]] std::uint64_t gauge(Gauge g) const noexcept {
    return gauges[static_cast<std::size_t>(g)];
  }
  [[nodiscard]] const HistogramSnapshot& histogram(Hist h) const noexcept {
    return histograms[static_cast<std::size_t>(h)];
  }

  /// Serialize as the stable "oms.metrics.v1" JSON document (all metrics
  /// always present, enum order, so downstream parsers can pin offsets).
  [[nodiscard]] std::string to_json() const;

  /// Parse a document produced by to_json(). Throws oms::IoError on
  /// malformed JSON, an unknown schema id, unknown metric names, or a
  /// histogram with the wrong bucket count.
  [[nodiscard]] static MetricsSnapshot from_json(const std::string& text);

  bool operator==(const MetricsSnapshot&) const = default;
};

/// The registry proper: per-thread shards of relaxed atomics, merged on
/// scrape. All update paths are thread-safe; arming is not (see file
/// comment). Destroying an armed registry disarms it first, so a scoped
/// registry can never dangle behind the global hook pointer.
class MetricsRegistry {
public:
  MetricsRegistry() = default;
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Install \p registry as the process-global sink / remove it.
  static void arm(MetricsRegistry& registry) noexcept;
  static void disarm() noexcept;
  [[nodiscard]] static MetricsRegistry* armed() noexcept;

  void add(Counter c, std::uint64_t delta) noexcept;
  void gauge_set(Gauge g, std::uint64_t value) noexcept;
  void gauge_max(Gauge g, std::uint64_t value) noexcept;
  void record(Hist h, std::uint64_t value) noexcept;

  /// Merge every shard into one consistent-enough view (concurrent updates
  /// may or may not be included; each slot is read atomically).
  [[nodiscard]] MetricsSnapshot scrape() const noexcept;

  /// Zero every metric (tests; not safe against concurrent updates).
  void reset() noexcept;

private:
  static constexpr int kShards = 16;

  struct alignas(64) Shard {
    std::array<std::atomic<std::uint64_t>, kNumCounters> counters{};
    std::array<std::atomic<std::uint64_t>, kNumHists> hist_count{};
    std::array<std::atomic<std::uint64_t>, kNumHists> hist_sum{};
    std::array<std::array<std::atomic<std::uint64_t>, kHistogramBuckets>,
               kNumHists>
        hist_buckets{};
  };

  /// Threads are spread round-robin over the shards on first use.
  [[nodiscard]] static int shard_index() noexcept;

  std::array<Shard, kShards> shards_{};
  std::array<std::atomic<std::uint64_t>, kNumGauges> gauges_{};
};

namespace detail {
/// The armed registry; null (the overwhelmingly common case) means every
/// hook is a no-op after one relaxed load.
extern std::atomic<MetricsRegistry*> g_metrics;
} // namespace detail

/// True iff a registry is armed — use it to skip clock reads and other
/// enabled-only work the hooks themselves cannot elide.
[[nodiscard]] inline bool enabled() noexcept {
  return detail::g_metrics.load(std::memory_order_relaxed) != nullptr;
}

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The hooks compiled into the hot paths: free when disarmed.

inline void metric_add(Counter c, std::uint64_t delta = 1) noexcept {
  MetricsRegistry* reg = detail::g_metrics.load(std::memory_order_relaxed);
  if (reg == nullptr) [[likely]] {
    return;
  }
  reg->add(c, delta);
}

inline void gauge_set(Gauge g, std::uint64_t value) noexcept {
  MetricsRegistry* reg = detail::g_metrics.load(std::memory_order_relaxed);
  if (reg == nullptr) [[likely]] {
    return;
  }
  reg->gauge_set(g, value);
}

inline void gauge_max(Gauge g, std::uint64_t value) noexcept {
  MetricsRegistry* reg = detail::g_metrics.load(std::memory_order_relaxed);
  if (reg == nullptr) [[likely]] {
    return;
  }
  reg->gauge_max(g, value);
}

inline void hist_record(Hist h, std::uint64_t value) noexcept {
  MetricsRegistry* reg = detail::g_metrics.load(std::memory_order_relaxed);
  if (reg == nullptr) [[likely]] {
    return;
  }
  reg->record(h, value);
}

/// Publish a run's merged WorkCounters into the registry — the single
/// aggregation point the drivers feed after their per-thread merge.
inline void publish_work(const WorkCounters& work) noexcept {
  if (!enabled()) [[likely]] {
    return;
  }
  metric_add(Counter::kWorkScoreEvaluations, work.score_evaluations);
  metric_add(Counter::kWorkNeighborVisits, work.neighbor_visits);
  metric_add(Counter::kWorkLayersTraversed, work.layers_traversed);
  metric_add(Counter::kWorkCandidateEvaluations, work.candidate_evaluations);
}

/// RAII stage timer: records the span's wall time into \p stage on
/// destruction. Costs one relaxed load (no clock read) while disarmed;
/// nests freely — each span records independently, so an outer stage's time
/// includes its inner stages'.
class TraceSpan {
public:
  explicit TraceSpan(Hist stage) noexcept
      : stage_(stage), start_ns_(enabled() ? now_ns() : 0) {}
  ~TraceSpan() {
    if (start_ns_ != 0) [[unlikely]] {
      hist_record(stage_, now_ns() - start_ns_);
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

private:
  Hist stage_;
  std::uint64_t start_ns_;
};

} // namespace oms::telemetry
