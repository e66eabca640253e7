#include "oms/cli/parse_request.hpp"

#include <cstdint>
#include <limits>

#include "oms/types.hpp"

namespace oms::cli {
namespace {

/// Shared numeric validation: a typo'd value must become a UsageError naming
/// the flag, not an uncaught exception or a silently accepted partial parse
/// ("1O").
template <typename Parse>
auto parsed_value(const std::string& flag, const ValueFn& value, Parse parse) {
  const std::string text = value();
  try {
    std::size_t pos = 0;
    const auto parsed = parse(text, pos);
    if (pos != text.size()) {
      throw std::invalid_argument("trailing characters");
    }
    return parsed;
  } catch (const UsageError&) {
    throw;
  } catch (const std::exception&) {
    throw UsageError("invalid value '" + text + "' for " + flag);
  }
}

long long_value(const std::string& flag, const ValueFn& value) {
  return parsed_value(flag, value, [](const std::string& s, std::size_t& p) {
    return std::stol(s, &p);
  });
}

double double_value(const std::string& flag, const ValueFn& value) {
  return parsed_value(flag, value, [](const std::string& s, std::size_t& p) {
    return std::stod(s, &p);
  });
}

int int_value(const std::string& flag, const ValueFn& value) {
  return parsed_value(flag, value, [](const std::string& s, std::size_t& p) {
    const long parsed = std::stol(s, &p);
    if (parsed < std::numeric_limits<int>::min() ||
        parsed > std::numeric_limits<int>::max()) {
      throw std::out_of_range("beyond int");
    }
    return static_cast<int>(parsed);
  });
}

std::uint64_t u64_value(const std::string& flag, const ValueFn& value) {
  return parsed_value(flag, value,
                      [](const std::string& s, std::size_t& p) -> std::uint64_t {
    // stoull silently wraps negative input; only bare digits qualify.
    if (s.empty() || s[0] < '0' || s[0] > '9') {
      throw std::invalid_argument("not a decimal uint64");
    }
    return static_cast<std::uint64_t>(std::stoull(s, &p));
  });
}

} // namespace

CliRequest parse_request(int argc, char** argv, const ExtraFlag& extra) {
  CliRequest cli;
  if (argc < 2) {
    throw UsageError("missing input graph");
  }
  int i = 1;
  if (argv[1][0] != '-') {
    cli.request.graph_path = argv[1];
    i = 2;
  }
  const ValueFn value = [&]() -> std::string {
    if (i + 1 >= argc) {
      throw UsageError(std::string("missing value for ") + argv[i]);
    }
    return argv[++i];
  };
  PartitionRequest& req = cli.request;
  for (; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--k") {
      req.k = static_cast<BlockId>(int_value(arg, value));
    } else if (arg == "--algo") {
      req.algo = value();
    } else if (arg == "--format") {
      req.format = value();
    } else if (arg == "--lambda") {
      req.lambda = double_value(arg, value);
    } else if (arg == "--hierarchy") {
      req.hierarchy = value();
    } else if (arg == "--distances") {
      req.distances = value();
    } else if (arg == "--epsilon") {
      req.epsilon = double_value(arg, value);
    } else if (arg == "--threads") {
      req.threads = int_value(arg, value);
    } else if (arg == "--seed") {
      req.seed = u64_value(arg, value);
    } else if (arg == "--buffer-size") {
      req.buffer_size = long_value(arg, value);
    } else if (arg == "--buffered-engine") {
      req.buffered_engine = value();
    } else if (arg == "--refine-iters") {
      req.refine_iters = long_value(arg, value);
    } else if (arg == "--window-size") {
      req.window_size = long_value(arg, value);
    } else if (arg == "--output") {
      cli.output = value();
    } else if (arg == "--metrics-out") {
      cli.metrics_out = value();
    } else if (arg == "--progress") {
      cli.progress = true;
    } else if (arg == "--from-disk") {
      req.from_disk = true;
    } else if (arg == "--pipeline") {
      req.pipeline = true; // normalize() makes it imply from_disk
    } else if (arg == "--io-threads") {
      req.io_threads = int_value(arg, value);
    } else if (arg == "--watchdog-ms") {
      req.watchdog_ms = u64_value(arg, value);
    } else if (arg == "--checkpoint") {
      req.checkpoint = value();
    } else if (arg == "--checkpoint-every") {
      req.checkpoint_every = u64_value(arg, value);
    } else if (arg == "--resume") {
      req.resume = value();
    } else if (arg == "--on-error") {
      req.on_error = value();
    } else if (arg == "--error-budget") {
      req.error_budget = u64_value(arg, value);
    } else if (arg == "--help" || arg == "-h") {
      cli.help = true;
      return cli;
    } else if (extra && extra(arg, value)) {
      // tool-specific flag, consumed by the hook
    } else {
      throw UsageError("unknown option '" + arg + "'");
    }
  }
  return cli;
}

} // namespace oms::cli
