/// \file env.hpp
/// \brief Environment-variable configuration knobs for the bench harness
///        (OMS_BENCH_SCALE, OMS_BENCH_THREADS, ...).
#pragma once

#include <cstdlib>
#include <string>
#include <string_view>

namespace oms {

/// Value of an environment variable, or \p fallback when unset/empty.
[[nodiscard]] inline std::string env_or(const char* name, std::string_view fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return std::string(fallback);
  }
  return std::string(value);
}

} // namespace oms
