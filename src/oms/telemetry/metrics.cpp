/// \file metrics.cpp
/// \brief MetricsRegistry storage, scrape/merge, and the stable
///        "oms.metrics.v1" JSON serialization (writer + strict reader).

#include "oms/telemetry/metrics.hpp"

#include <cctype>
#include <cstddef>

#include "oms/util/io_error.hpp"

namespace oms::telemetry {

namespace detail {
std::atomic<MetricsRegistry*> g_metrics{nullptr};
} // namespace detail

namespace {

constexpr const char* kCounterNames[kNumCounters] = {
    "stream.bytes_read",
    "stream.read_retries",
    "stream.lines_parsed",
    "stream.nodes",
    "stream.edges",
    "pipeline.batches",
    "pipeline.producer_stall_ns",
    "pipeline.consumer_wait_ns",
    "work.score_evaluations",
    "work.neighbor_visits",
    "work.layers_traversed",
    "work.candidate_evaluations",
    "buffered.buffers",
    "multilevel.commits_accepted",
    "multilevel.commits_rejected",
    "multilevel.backoff_skips",
    "window.evictions",
    "checkpoint.snapshots",
    "checkpoint.bytes",
    "service.req.where",
    "service.req.rank",
    "service.req.batch",
    "service.req.stats",
    "service.req.snapshot",
    "service.req.shutdown",
    "service.req.metrics",
    "service.req.invalid",
    "service.conns_accepted",
    "service.conns_rejected",
    "service.timeouts",
    "service.drains",
};

constexpr const char* kGaugeNames[kNumGauges] = {
    "progress.total_items",
    "pipeline.queue_depth_max",
    "service.conns_active",
};

constexpr const char* kHistNames[kNumHists] = {
    "stage.parse_ns",
    "stage.assign_ns",
    "stage.buffer_build_place_ns",
    "stage.buffer_refine_ns",
    "stage.multilevel_ns",
    "stage.checkpoint_write_ns",
    "pipeline.queue_wait_ns",
    "service.request_ns",
};

} // namespace

const char* counter_name(Counter c) noexcept {
  return kCounterNames[static_cast<std::size_t>(c)];
}

const char* gauge_name(Gauge g) noexcept {
  return kGaugeNames[static_cast<std::size_t>(g)];
}

const char* hist_name(Hist h) noexcept {
  return kHistNames[static_cast<std::size_t>(h)];
}

MetricsRegistry::~MetricsRegistry() {
  // A scoped registry must never dangle behind the global hook pointer.
  if (armed() == this) {
    disarm();
  }
}

void MetricsRegistry::arm(MetricsRegistry& registry) noexcept {
  detail::g_metrics.store(&registry, std::memory_order_release);
}

void MetricsRegistry::disarm() noexcept {
  detail::g_metrics.store(nullptr, std::memory_order_release);
}

MetricsRegistry* MetricsRegistry::armed() noexcept {
  return detail::g_metrics.load(std::memory_order_acquire);
}

int MetricsRegistry::shard_index() noexcept {
  static std::atomic<unsigned> next{0};
  thread_local const int shard = static_cast<int>(
      next.fetch_add(1, std::memory_order_relaxed) % kShards);
  return shard;
}

void MetricsRegistry::add(Counter c, std::uint64_t delta) noexcept {
  shards_[static_cast<std::size_t>(shard_index())]
      .counters[static_cast<std::size_t>(c)]
      .fetch_add(delta, std::memory_order_relaxed);
}

void MetricsRegistry::gauge_set(Gauge g, std::uint64_t value) noexcept {
  gauges_[static_cast<std::size_t>(g)].store(value, std::memory_order_relaxed);
}

void MetricsRegistry::gauge_max(Gauge g, std::uint64_t value) noexcept {
  std::atomic<std::uint64_t>& slot = gauges_[static_cast<std::size_t>(g)];
  std::uint64_t seen = slot.load(std::memory_order_relaxed);
  while (value > seen &&
         !slot.compare_exchange_weak(seen, value, std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::record(Hist h, std::uint64_t value) noexcept {
  Shard& shard = shards_[static_cast<std::size_t>(shard_index())];
  const auto i = static_cast<std::size_t>(h);
  shard.hist_count[i].fetch_add(1, std::memory_order_relaxed);
  shard.hist_sum[i].fetch_add(value, std::memory_order_relaxed);
  shard.hist_buckets[i][static_cast<std::size_t>(histogram_bucket(value))]
      .fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot MetricsRegistry::scrape() const noexcept {
  MetricsSnapshot snap;
  for (const Shard& shard : shards_) {
    for (int c = 0; c < kNumCounters; ++c) {
      snap.counters[static_cast<std::size_t>(c)] +=
          shard.counters[static_cast<std::size_t>(c)].load(
              std::memory_order_relaxed);
    }
    for (int h = 0; h < kNumHists; ++h) {
      const auto i = static_cast<std::size_t>(h);
      snap.histograms[i].count +=
          shard.hist_count[i].load(std::memory_order_relaxed);
      snap.histograms[i].sum +=
          shard.hist_sum[i].load(std::memory_order_relaxed);
      for (int b = 0; b < kHistogramBuckets; ++b) {
        snap.histograms[i].buckets[static_cast<std::size_t>(b)] +=
            shard.hist_buckets[i][static_cast<std::size_t>(b)].load(
                std::memory_order_relaxed);
      }
    }
  }
  for (int g = 0; g < kNumGauges; ++g) {
    snap.gauges[static_cast<std::size_t>(g)] =
        gauges_[static_cast<std::size_t>(g)].load(std::memory_order_relaxed);
  }
  return snap;
}

void MetricsRegistry::reset() noexcept {
  for (Shard& shard : shards_) {
    for (auto& c : shard.counters) {
      c.store(0, std::memory_order_relaxed);
    }
    for (auto& c : shard.hist_count) {
      c.store(0, std::memory_order_relaxed);
    }
    for (auto& s : shard.hist_sum) {
      s.store(0, std::memory_order_relaxed);
    }
    for (auto& hist : shard.hist_buckets) {
      for (auto& b : hist) {
        b.store(0, std::memory_order_relaxed);
      }
    }
  }
  for (auto& g : gauges_) {
    g.store(0, std::memory_order_relaxed);
  }
}

// --- JSON writer -----------------------------------------------------------

namespace {

void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  int n = 0;
  do {
    buf[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  while (n > 0) {
    out.push_back(buf[--n]);
  }
}

void append_key(std::string& out, const char* name) {
  out.push_back('"');
  out += name; // metric names never need escaping
  out += "\":";
}

} // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out;
  out.reserve(4096);
  out += "{\"schema\":\"oms.metrics.v1\",\"counters\":{";
  for (int c = 0; c < kNumCounters; ++c) {
    if (c != 0) {
      out.push_back(',');
    }
    append_key(out, kCounterNames[c]);
    append_u64(out, counters[static_cast<std::size_t>(c)]);
  }
  out += "},\"gauges\":{";
  for (int g = 0; g < kNumGauges; ++g) {
    if (g != 0) {
      out.push_back(',');
    }
    append_key(out, kGaugeNames[g]);
    append_u64(out, gauges[static_cast<std::size_t>(g)]);
  }
  out += "},\"histograms\":{";
  for (int h = 0; h < kNumHists; ++h) {
    const HistogramSnapshot& hist = histograms[static_cast<std::size_t>(h)];
    if (h != 0) {
      out.push_back(',');
    }
    append_key(out, kHistNames[h]);
    out += "{\"count\":";
    append_u64(out, hist.count);
    out += ",\"sum\":";
    append_u64(out, hist.sum);
    out += ",\"buckets\":[";
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (b != 0) {
        out.push_back(',');
      }
      append_u64(out, hist.buckets[static_cast<std::size_t>(b)]);
    }
    out += "]}";
  }
  out += "}}";
  return out;
}

// --- JSON reader -----------------------------------------------------------
//
// A strict recursive-descent parser for exactly the documents to_json()
// emits (whitespace tolerated). Anything else — unknown keys, missing
// metrics, wrong bucket counts, trailing garbage — is an IoError, so a
// truncated or hand-mangled metrics file cannot round-trip silently.

namespace {

class JsonReader {
public:
  explicit JsonReader(const std::string& text) : text_(text) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != c) {
      fail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  [[nodiscard]] bool try_consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  [[nodiscard]] std::string string_value() {
    expect('"');
    std::string value;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      const char c = text_[pos_++];
      if (c == '\\' || static_cast<unsigned char>(c) < 0x20) {
        fail("unsupported escape in string");
      }
      value.push_back(c);
    }
    if (pos_ >= text_.size()) {
      fail("unterminated string");
    }
    ++pos_;
    return value;
  }

  [[nodiscard]] std::uint64_t u64_value() {
    skip_ws();
    if (pos_ >= text_.size() ||
        std::isdigit(static_cast<unsigned char>(text_[pos_])) == 0) {
      fail("expected integer");
    }
    std::uint64_t value = 0;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0) {
      const std::uint64_t digit =
          static_cast<std::uint64_t>(text_[pos_] - '0');
      if (value > (UINT64_MAX - digit) / 10) {
        fail("integer overflow");
      }
      value = value * 10 + digit;
      ++pos_;
    }
    return value;
  }

  void expect_end() {
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing bytes after document");
    }
  }

  [[noreturn]] void fail(const std::string& what) {
    throw IoError("metrics JSON: " + what + " at offset " +
                  std::to_string(pos_));
  }

private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

/// Look up \p name in a metric name table; IoError on unknown names.
template <std::size_t N>
std::size_t name_index(JsonReader& reader, const std::string& name,
                       const char* const (&table)[N]) {
  for (std::size_t i = 0; i < N; ++i) {
    if (name == table[i]) {
      return i;
    }
  }
  reader.fail("unknown metric name '" + name + "'");
}

/// Parse `{"name":<parse_value()>,...}`, dispatching each value by name.
template <typename ParseValue>
void parse_named_object(JsonReader& reader, ParseValue&& parse_value) {
  reader.expect('{');
  if (reader.try_consume('}')) {
    return;
  }
  do {
    const std::string name = reader.string_value();
    reader.expect(':');
    parse_value(name);
  } while (reader.try_consume(','));
  reader.expect('}');
}

} // namespace

MetricsSnapshot MetricsSnapshot::from_json(const std::string& text) {
  JsonReader reader(text);
  MetricsSnapshot snap;

  reader.expect('{');
  if (reader.string_value() != "schema") {
    reader.fail("expected \"schema\" first");
  }
  reader.expect(':');
  if (const std::string schema = reader.string_value();
      schema != "oms.metrics.v1") {
    reader.fail("unsupported schema '" + schema + "'");
  }

  reader.expect(',');
  if (reader.string_value() != "counters") {
    reader.fail("expected \"counters\"");
  }
  reader.expect(':');
  parse_named_object(reader, [&](const std::string& name) {
    snap.counters[name_index(reader, name, kCounterNames)] =
        reader.u64_value();
  });

  reader.expect(',');
  if (reader.string_value() != "gauges") {
    reader.fail("expected \"gauges\"");
  }
  reader.expect(':');
  parse_named_object(reader, [&](const std::string& name) {
    snap.gauges[name_index(reader, name, kGaugeNames)] = reader.u64_value();
  });

  reader.expect(',');
  if (reader.string_value() != "histograms") {
    reader.fail("expected \"histograms\"");
  }
  reader.expect(':');
  parse_named_object(reader, [&](const std::string& name) {
    HistogramSnapshot& hist =
        snap.histograms[name_index(reader, name, kHistNames)];
    reader.expect('{');
    if (reader.string_value() != "count") {
      reader.fail("expected \"count\"");
    }
    reader.expect(':');
    hist.count = reader.u64_value();
    reader.expect(',');
    if (reader.string_value() != "sum") {
      reader.fail("expected \"sum\"");
    }
    reader.expect(':');
    hist.sum = reader.u64_value();
    reader.expect(',');
    if (reader.string_value() != "buckets") {
      reader.fail("expected \"buckets\"");
    }
    reader.expect(':');
    reader.expect('[');
    for (int b = 0; b < kHistogramBuckets; ++b) {
      if (b != 0) {
        reader.expect(',');
      }
      hist.buckets[static_cast<std::size_t>(b)] = reader.u64_value();
    }
    reader.expect(']');
    reader.expect('}');
  });

  reader.expect('}');
  reader.expect_end();
  return snap;
}

} // namespace oms::telemetry
