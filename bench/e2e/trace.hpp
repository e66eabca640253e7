/// \file trace.hpp
/// \brief The bench-side tracer of bench_e2e: spans recorded around each
///        call the benchmark makes into a layer's public functions.
///
/// A span has a name, a start and an end on the steady clock (ns), the span
/// that caused it and a run id shared by every span of one rep or one lookup.
/// Spans stay in memory; a child process prints its spans in its report and
/// the parent absorbs them under the span that spawned the child. At exit
/// the spans are written once as Chrome trace-event JSON (chrome://tracing,
/// Perfetto). A span's self time is its duration minus the part of that
/// interval its children cover.
///
/// One Tracer per thread: it takes no lock. Threads that trace concurrently
/// each own one and are merged after they joined; span ids are unique
/// across every tracer of the process.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "oms/util/io_error.hpp"

namespace oms::e2e {

/// CLOCK_MONOTONIC on Linux: one timeline shared by every process, so a
/// child's timestamps compare directly with the parent's.
[[nodiscard]] inline std::uint64_t steady_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0; ///< 0 = root
  std::uint64_t run = 0;    ///< rep or request id shared by related spans
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t tid = 0;
};

/// Total and self time of every span with one name.
struct SpanTotals {
  double total_s = 0.0;
  double self_s = 0.0;
  std::uint64_t count = 0;
};

class Tracer {
public:
  /// \p tid labels the spans' thread in the trace file.
  explicit Tracer(std::uint32_t tid = 0) : tid_(tid) {}

  [[nodiscard]] std::uint64_t begin(std::string name, std::uint64_t run,
                                    std::uint64_t parent = 0) {
    return record(std::move(name), run, parent, steady_ns(), 0);
  }

  void end(std::uint64_t id) {
    const auto it = index_.find(id);
    if (it != index_.end()) {
      spans_[it->second].end_ns = steady_ns();
    }
  }

  /// Add a completed span (or an open one, end_ns 0); returns its id.
  std::uint64_t record(std::string name, std::uint64_t run, std::uint64_t parent,
                       std::uint64_t start_ns, std::uint64_t end_ns) {
    const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
    index_.emplace(id, spans_.size());
    spans_.push_back(
        SpanRecord{std::move(name), id, parent, run, start_ns, end_ns, tid_});
    return id;
  }

  /// Take over every span of \p other.
  void absorb(const Tracer& other) {
    for (const SpanRecord& s : other.spans_) {
      index_.emplace(s.id, spans_.size());
      spans_.push_back(s);
    }
  }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const noexcept {
    return spans_;
  }

  /// Total and self time per span name. Self time subtracts the union of
  /// the children's intervals, clipped to the parent, so concurrent children
  /// (two client threads under one session) are not subtracted twice.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const {
    std::unordered_map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
        children;
    for (const SpanRecord& s : spans_) {
      if (s.parent != 0 && s.end_ns >= s.start_ns) {
        children[s.parent].emplace_back(s.start_ns, s.end_ns);
      }
    }
    std::map<std::string, SpanTotals> out;
    for (const SpanRecord& s : spans_) {
      if (s.end_ns < s.start_ns) {
        continue; // never closed
      }
      std::uint64_t covered = 0;
      const auto it = children.find(s.id);
      if (it != children.end()) {
        auto intervals = it->second;
        std::sort(intervals.begin(), intervals.end());
        std::uint64_t reach = s.start_ns;
        for (const auto& [lo_raw, hi_raw] : intervals) {
          const std::uint64_t lo = std::max(lo_raw, reach);
          const std::uint64_t hi = std::min(hi_raw, s.end_ns);
          if (hi > lo) {
            covered += hi - lo;
            reach = hi;
          }
        }
      }
      const std::uint64_t duration = s.end_ns - s.start_ns;
      SpanTotals& t = out[s.name];
      t.total_s += static_cast<double>(duration) * 1e-9;
      t.self_s += static_cast<double>(duration - std::min(covered, duration)) * 1e-9;
      ++t.count;
    }
    return out;
  }

  /// Write every closed span as a Chrome trace-event "complete" event.
  void write_chrome_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    for (const SpanRecord& s : spans_) {
      if (s.end_ns < s.start_ns) {
        continue;
      }
      out << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name
          << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
          << ",\"ts\":" << static_cast<double>(s.start_ns) * 1e-3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
          << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"run\":" << s.run << "}}";
      first = false;
    }
    out << "\n]}\n";
    out.flush();
    if (!out.good()) {
      throw IoError("cannot write trace file '" + path + "'");
    }
  }

private:
  static inline std::atomic<std::uint64_t> next_id_{1};
  std::uint32_t tid_;
  std::vector<SpanRecord> spans_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
};

/// RAII span on an optional tracer: a null tracer records nothing and reads
/// no clock, which is how untraced reps run the same code.
class Span {
public:
  Span(Tracer* tracer, std::string name, std::uint64_t run, std::uint64_t parent = 0)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->begin(std::move(name), run, parent) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->end(id_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

private:
  Tracer* tracer_;
  std::uint64_t id_;
};

} // namespace oms::e2e
