/// \file bench_common.hpp
/// \brief Shared plumbing for the per-figure/table bench binaries: env-driven
///        scale/repetitions, the paper's k sweeps, and a standard preamble.
///
/// Environment knobs (all optional):
///   OMS_BENCH_SCALE = small | medium | large   (instance sizes; default small)
///   OMS_BENCH_REPS  = N >= 1                   (repetitions; default 3)
///   OMS_BENCH_THREADS = N in [0, 1024]         (threads for timed runs; default 1,
///                                               0 = all hardware threads)
/// Any other value prints the usage and exits 2 before an experiment runs.
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "oms/api/partition_request.hpp"
#include "oms/benchlib/algorithms.hpp"
#include "oms/benchlib/instances.hpp"
#include "oms/util/env.hpp"
#include "oms/util/table.hpp"

namespace oms::bench {

struct BenchEnv {
  Scale scale = Scale::kSmall;
  int repetitions = 3;
  int threads = 1;

  [[nodiscard]] static BenchEnv from_env() {
    BenchEnv env;
    env.scale = scale_from_env();
    // scale_from_env reads every unknown name as small.
    if (env_or("OMS_BENCH_SCALE", "small") != scale_name(env.scale)) {
      reject("OMS_BENCH_SCALE");
    }
    env.repetitions = int_knob("OMS_BENCH_REPS", 3, 1, std::numeric_limits<int>::max());
    env.threads = int_knob("OMS_BENCH_THREADS", 1, 0, kMaxThreads);
    return env;
  }

private:
  [[noreturn]] static void reject(const char* name) {
    std::cerr << "error: " << name << "='" << env_or(name, "") << "' is invalid\n"
              << "usage: OMS_BENCH_SCALE=small|medium|large OMS_BENCH_REPS=<n >= 1> "
                 "OMS_BENCH_THREADS=<0.."
              << kMaxThreads << ", 0 = all hardware threads>\n";
    std::exit(2);
  }

  /// Integer knob in [lo, hi], or \p fallback when unset or empty.
  static int int_knob(const char* name, int fallback, int lo, int hi) {
    const std::string value = env_or(name, "");
    if (value.empty()) {
      return fallback;
    }
    int parsed = 0;
    const char* end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
    if (ec != std::errc{} || ptr != end || parsed < lo || parsed > hi) {
      reject(name);
    }
    return parsed;
  }
};

/// The r values of the paper's S = 4:16:r sweep, scaled down so the default
/// bench run finishes in minutes (paper: r in 1..128 -> k = 64..8192).
[[nodiscard]] inline std::vector<std::int64_t> r_sweep(Scale scale) {
  switch (scale) {
    case Scale::kSmall: return {1, 4, 16};
    case Scale::kMedium: return {1, 4, 16, 64};
    case Scale::kLarge: return {1, 4, 16, 64, 128};
  }
  return {1, 4, 16};
}

/// k values for the general-partitioning experiments (paper: k = 64s).
[[nodiscard]] inline std::vector<BlockId> k_sweep(Scale scale) {
  std::vector<BlockId> ks;
  for (const std::int64_t r : r_sweep(scale)) {
    ks.push_back(static_cast<BlockId>(64 * r));
  }
  return ks;
}

inline void preamble(const char* experiment, const BenchEnv& env) {
  std::cout << "=====================================================\n"
            << experiment << "\n"
            << "scale=" << scale_name(env.scale) << " reps=" << env.repetitions
            << " threads=" << env.threads
            << "  (env: OMS_BENCH_SCALE / OMS_BENCH_REPS / OMS_BENCH_THREADS)\n"
            << "=====================================================\n";
}

} // namespace oms::bench
