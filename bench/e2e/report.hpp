/// \file report.hpp
/// \brief Sample summaries and the result document of bench_e2e: a table for
///        people, a result file for compare.py, and the one-line JSON
///        result the benchmark prints last.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace oms::e2e {

/// Median, quartiles (linear interpolation between order statistics), range
/// and count of a sample; all zero for an empty sample.
struct Summary {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t n = 0;
};

/// Quantile \p p in [0, 1] of an ascending sample, interpolated.
[[nodiscard]] inline double quantile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

[[nodiscard]] inline Summary summarize(std::vector<double> sample) {
  Summary s;
  if (sample.empty()) {
    return s;
  }
  std::sort(sample.begin(), sample.end());
  s.median = quantile_sorted(sample, 0.5);
  s.q1 = quantile_sorted(sample, 0.25);
  s.q3 = quantile_sorted(sample, 0.75);
  s.min = sample.front();
  s.max = sample.back();
  s.n = sample.size();
  return s;
}

/// Nearest-rank percentile \p p in (0, 1] of an ascending sample.
[[nodiscard]] inline double percentile_sorted(std::span<const double> sorted, double p) {
  if (sorted.empty()) {
    return 0.0;
  }
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(sorted.size())));
  return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
}

[[nodiscard]] inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

struct MetricDef {
  const char* name;
  const char* unit;
};

/// One metric of a run: its value and, for timings over reps, the sample it
/// was taken from.
struct MetricValue {
  double value = 0.0;
  Summary sample; ///< n == 0 for values that are not a median of reps
};

[[nodiscard]] inline std::string json_escape(const std::string& text) {
  std::string out;
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

[[nodiscard]] inline std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Everything one workload run produced.
struct RunResult {
  std::string workload;
  std::uint64_t seed = 1;
  bool trace = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors; ///< verification failures, in order
  std::map<std::string, MetricValue> values;
  /// Facts printed beside the metrics: the assignment hash, the quality
  /// numbers behind cost_per_edge, rep counts. Values are JSON literals.
  std::vector<std::pair<std::string, std::string>> detail;

  [[nodiscard]] bool correct() const noexcept { return errors.empty() && failed == 0; }

  void set(const std::string& name, double value, const Summary& sample = {}) {
    if (!std::isfinite(value)) {
      errors.push_back("metric " + name + " is not finite");
    }
    values[name] = MetricValue{value, sample};
  }

  /// Set \p name to the median of \p sample, keeping its summary; returns
  /// the median.
  double set_median(const std::string& name, std::vector<double> sample) {
    const Summary s = summarize(std::move(sample));
    set(name, s.median, s);
    return s.median;
  }

  void fail(const std::string& why) {
    errors.push_back(why);
  }

  /// Value of \p name; a metric this workload never set reads 0, the
  /// documented "layer not on this workload's path" value.
  [[nodiscard]] MetricValue get(const std::string& name) const {
    const auto it = values.find(name);
    return it == values.end() ? MetricValue{} : it->second;
  }
};

/// The human-readable table of one run.
inline void print_table(std::ostream& os, const RunResult& r, std::span<const MetricDef> defs) {
  char line[256];
  std::snprintf(line, sizeof line, "%-34s %-10s %14s %12s %12s %12s %5s\n", "metric", "unit",
                "value", "q1", "q3", "max", "n");
  os << line;
  for (const MetricDef& d : defs) {
    const MetricValue v = r.get(d.name);
    if (v.sample.n > 0) {
      std::snprintf(line, sizeof line, "%-34s %-10s %14.6g %12.6g %12.6g %12.6g %5zu\n", d.name,
                    d.unit, v.value, v.sample.q1, v.sample.q3, v.sample.max, v.sample.n);
    } else {
      std::snprintf(line, sizeof line, "%-34s %-10s %14.6g\n", d.name, d.unit, v.value);
    }
    os << line;
  }
  for (const auto& [key, value] : r.detail) {
    os << "  " << key << ": " << value << "\n";
  }
  for (const std::string& e : r.errors) {
    os << "  VIOLATION: " << e << "\n";
  }
}

/// {"value": v, "unit": u} plus, when \p with_sample, the sample summary.
inline void write_metric_json(std::ostream& os, const MetricDef& d, const MetricValue& v,
                              bool with_sample) {
  os << "{\"value\": " << json_number(v.value) << ", \"unit\": \"" << d.unit << "\"";
  if (with_sample && v.sample.n > 0) {
    os << ", \"median\": " << json_number(v.sample.median)
       << ", \"q1\": " << json_number(v.sample.q1) << ", \"q3\": " << json_number(v.sample.q3)
       << ", \"min\": " << json_number(v.sample.min)
       << ", \"max\": " << json_number(v.sample.max) << ", \"n\": " << v.sample.n;
  }
  os << "}";
}

/// One run as an object of the result file compare.py reads.
inline void write_run_json(std::ostream& os, const RunResult& r, std::span<const MetricDef> defs) {
  os << "{\"workload\": \"" << r.workload << "\", \"seed\": " << r.seed
     << ", \"trace\": " << (r.trace ? 1 : 0) << ", \"correct\": "
     << (r.correct() ? "true" : "false") << ", \"attempted\": " << r.attempted
     << ", \"failed\": " << r.failed << ",\n  \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    os << (first ? "\n    \"" : ",\n    \"") << d.name << "\": ";
    write_metric_json(os, d, r.get(d.name), true);
    first = false;
  }
  os << "},\n  \"detail\": {";
  first = true;
  for (const auto& [key, value] : r.detail) {
    os << (first ? "" : ", ") << "\"" << key << "\": " << value;
    first = false;
  }
  os << "},\n  \"errors\": [";
  first = true;
  for (const std::string& e : r.errors) {
    os << (first ? "" : ", ") << "\"" << json_escape(e) << "\"";
    first = false;
  }
  os << "]}";
}

/// The final result line: the end-to-end metrics of untraced runs, the
/// per-layer metrics of traced ones. One run: its metrics by name. Several:
/// each metric named "<workload>/<metric>".
inline void write_result_line(std::ostream& os, std::span<const RunResult> runs,
                              std::span<const MetricDef> end_to_end,
                              std::span<const MetricDef> per_layer) {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const RunResult& r : runs) {
    correct = correct && r.correct();
    attempted += r.attempted;
    failed += r.failed;
  }
  os << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  bool first = true;
  for (const RunResult& r : runs) {
    for (const MetricDef& d : r.trace ? per_layer : end_to_end) {
      const std::string name = runs.size() == 1 ? d.name : r.workload + "/" + d.name;
      os << (first ? "\"" : ", \"") << name << "\": ";
      write_metric_json(os, d, r.get(d.name), false);
      first = false;
    }
  }
  os << "}}\n";
}

} // namespace oms::e2e
