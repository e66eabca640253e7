/// \file inputs.hpp
/// \brief The generated inputs of bench_e2e and their on-disk cache.
///
/// Every input is a graph from graph/generators.hpp, fixed by (generator,
/// parameters, seed). The parent generates it in memory on every run — that
/// copy is the ground truth outputs are verified against, independent of the
/// parsers under test — and keeps the file form the system reads in the
/// input directory with a manifest: generator, parameters, seed, format,
/// byte size and CRC-32. A manifest that does not match the request, or a
/// file whose size or CRC differs from it, makes the input be written again.
/// One file per input name is kept, so a new seed replaces the old file.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "oms/graph/csr_graph.hpp"
#include "oms/graph/generators.hpp"
#include "oms/graph/io.hpp"
#include "oms/util/crc32.hpp"
#include "oms/util/io_error.hpp"
#include "oms/util/timer.hpp"

namespace oms::e2e {

enum class Family { kBarabasiAlbert, kRandomGeometric, kDelaunay };

struct InputSpec {
  Family family;
  int log2_nodes;
  bool edge_list = false; ///< SNAP edge list instead of METIS
};

/// Edges per arriving node of the Barabasi-Albert inputs.
inline constexpr NodeId kEdgesPerNode = 8;

[[nodiscard]] inline const char* generator_name(Family f) {
  switch (f) {
  case Family::kBarabasiAlbert: return "barabasi_albert";
  case Family::kRandomGeometric: return "random_geometric";
  case Family::kDelaunay: return "delaunay";
  }
  return "?";
}

[[nodiscard]] inline std::string input_params(const InputSpec& s) {
  const std::string n = "n=" + std::to_string(NodeId{1} << s.log2_nodes);
  return s.family == Family::kBarabasiAlbert
             ? n + " edges_per_node=" + std::to_string(kEdgesPerNode)
             : n;
}

/// File name, e.g. "barabasi_albert-18.metis".
[[nodiscard]] inline std::string input_file_name(const InputSpec& s) {
  return std::string(generator_name(s.family)) + "-" + std::to_string(s.log2_nodes) +
         (s.edge_list ? ".edgelist" : ".metis");
}

[[nodiscard]] inline CsrGraph generate(const InputSpec& s, std::uint64_t seed) {
  const NodeId n = NodeId{1} << s.log2_nodes;
  switch (s.family) {
  case Family::kBarabasiAlbert: return gen::barabasi_albert(n, kEdgesPerNode, seed);
  case Family::kRandomGeometric: return gen::random_geometric(n, seed);
  case Family::kDelaunay: return gen::delaunay(n, seed);
  }
  throw IoError("unknown input family");
}

struct FileDigest {
  std::uint64_t bytes = 0;
  std::uint32_t crc = 0;
};

[[nodiscard]] inline FileDigest digest_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw IoError("cannot read input file '" + path + "'");
  }
  std::vector<char> buf(1 << 20);
  FileDigest d;
  std::uint32_t crc = crc32_init();
  while (in) {
    in.read(buf.data(), static_cast<std::streamsize>(buf.size()));
    const auto got = static_cast<std::size_t>(in.gcount());
    crc = crc32_update(crc, buf.data(), got);
    d.bytes += got;
  }
  d.crc = crc32_final(crc);
  return d;
}

/// An input ready for a run: the file the system reads and the in-memory
/// ground truth.
struct Input {
  std::string path;
  CsrGraph graph;
  double generate_s = 0.0; ///< in-memory generation (printed, not a metric)
  double write_s = 0.0;    ///< file write; 0 when the cached file was reused
  FileDigest digest;
};

[[nodiscard]] inline std::map<std::string, std::string> read_manifest(const std::string& path) {
  std::map<std::string, std::string> fields;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    const auto space = line.find(' ');
    if (space != std::string::npos) {
      fields[line.substr(0, space)] = line.substr(space + 1);
    }
  }
  return fields;
}

/// Generate the input for \p seed and make sure its file in \p dir matches.
[[nodiscard]] inline Input prepare_input(const std::string& dir, const InputSpec& spec,
                                         std::uint64_t seed) {
  std::filesystem::create_directories(dir);
  Input input;
  input.path = dir + "/" + input_file_name(spec);
  const std::string manifest_path = input.path + ".manifest";

  Timer timer;
  input.graph = generate(spec, seed);
  input.generate_s = timer.elapsed_s();

  std::map<std::string, std::string> want = {
      {"generator", generator_name(spec.family)},
      {"params", input_params(spec)},
      {"seed", std::to_string(seed)},
      {"format", spec.edge_list ? "edgelist" : "metis"},
  };
  std::map<std::string, std::string> have = read_manifest(manifest_path);
  bool cached = std::filesystem::is_regular_file(input.path);
  for (const auto& [key, value] : want) {
    cached = cached && have[key] == value;
  }
  if (cached) {
    input.digest = digest_file(input.path);
    cached = have["bytes"] == std::to_string(input.digest.bytes) &&
             have["crc32"] == std::to_string(input.digest.crc);
  }
  if (!cached) {
    timer.restart();
    const std::string tmp = input.path + ".tmp";
    if (spec.edge_list) {
      write_edge_list(input.graph, tmp);
    } else {
      write_metis(input.graph, tmp);
    }
    std::filesystem::rename(tmp, input.path);
    input.digest = digest_file(input.path);
    want["bytes"] = std::to_string(input.digest.bytes);
    want["crc32"] = std::to_string(input.digest.crc);
    std::ofstream out(manifest_path + ".tmp");
    for (const auto& [key, value] : want) {
      out << key << ' ' << value << '\n';
    }
    out.close();
    if (!out) {
      throw IoError("cannot write manifest '" + manifest_path + "'");
    }
    std::filesystem::rename(manifest_path + ".tmp", manifest_path);
    input.write_s = timer.elapsed_s();
  }
  return input;
}

} // namespace oms::e2e
