#include "oms/api/partition_artifact.hpp"

#include <cstdint>
#include <span>

#include "oms/stream/checkpoint.hpp"
#include "oms/util/assert.hpp"
#include "oms/util/io_error.hpp"
#include "oms/util/sealed_file.hpp"

namespace oms {
namespace {

// "OMSPART1": partition artifact snapshot, version 1 — a sealed file
// (util/sealed_file.hpp) with an empty head.
constexpr std::uint64_t kArtifactMagic = 0x4f4d5350'41525431ULL;

// The artifact payload rides the bounds-checked CheckpointWriter/Reader pair
// so truncated or mismatched payloads surface as clean IoError, never as
// out-of-bounds reads.
void put_artifact(CheckpointWriter& w, const PartitionArtifact& a) {
  w.put_string(a.algo);
  w.put_u32(a.edge_partition ? 1 : 0);
  w.put_u32(static_cast<std::uint32_t>(a.k));
  w.put_u64(a.num_nodes);
  w.put_u64(a.num_edges);
  w.put_u64(a.self_loops_skipped);
  w.put_u64(a.seed);
  w.put_f64(a.elapsed_s);
  w.put_u32(a.hierarchy.has_value() ? 1 : 0);
  if (a.hierarchy.has_value()) {
    const auto& extents = a.hierarchy->extents();
    const auto& distances = a.hierarchy->distances();
    w.put_u32(static_cast<std::uint32_t>(extents.size()));
    for (std::size_t i = 0; i < extents.size(); ++i) {
      w.put_i64(extents[i]);
      w.put_i64(distances[i]);
    }
  }
  w.put_f64(a.metrics.edge_cut);
  w.put_f64(a.metrics.imbalance);
  w.put_f64(a.metrics.mapping_j);
  w.put_f64(a.metrics.replication_factor);
  w.put_f64(a.metrics.edge_imbalance);
  w.put_f64(a.metrics.replica_cost);
  w.put_u64(a.assignment.size());
  for (const BlockId b : a.assignment) {
    w.put_u32(static_cast<std::uint32_t>(b));
  }
}

[[nodiscard]] PartitionArtifact get_artifact(CheckpointReader& r,
                                             const std::string& path) {
  PartitionArtifact a;
  a.algo = r.get_string();
  a.edge_partition = r.get_u32() != 0;
  a.k = static_cast<BlockId>(r.get_u32());
  a.num_nodes = r.get_u64();
  a.num_edges = r.get_u64();
  a.self_loops_skipped = r.get_u64();
  a.seed = r.get_u64();
  a.elapsed_s = r.get_f64();
  if (a.k < 1) {
    throw IoError(path + ": artifact has no blocks (k < 1)");
  }
  if (r.get_u32() != 0) {
    const std::uint32_t levels = r.get_u32();
    if (levels == 0 || levels > 64) {
      throw IoError(path + ": implausible hierarchy depth in artifact");
    }
    std::vector<std::int64_t> extents;
    std::vector<std::int64_t> distances;
    extents.reserve(levels);
    distances.reserve(levels);
    for (std::uint32_t i = 0; i < levels; ++i) {
      extents.push_back(r.get_i64());
      distances.push_back(r.get_i64());
    }
    a.hierarchy.emplace(std::move(extents), std::move(distances));
    if (a.hierarchy->num_pes() != a.k) {
      throw IoError(path + ": artifact hierarchy PE count disagrees with k");
    }
  }
  a.metrics.edge_cut = r.get_f64();
  a.metrics.imbalance = r.get_f64();
  a.metrics.mapping_j = r.get_f64();
  a.metrics.replication_factor = r.get_f64();
  a.metrics.edge_imbalance = r.get_f64();
  a.metrics.replica_cost = r.get_f64();
  const std::uint64_t count = r.get_u64();
  // The bounds-checked reader would catch an oversized count too, but only
  // after a giant allocation; 4 bytes per entry caps it cheaply up front.
  if (count * 4 > r.remaining()) {
    throw IoError(path + ": artifact assignment longer than the file");
  }
  a.assignment.reserve(static_cast<std::size_t>(count));
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto b = static_cast<BlockId>(r.get_u32());
    if (b < 0 || b >= a.k) {
      throw IoError(path + ": artifact assignment entry out of [0, k)");
    }
    a.assignment.push_back(b);
  }
  r.expect_end();
  return a;
}

} // namespace

void PartitionArtifact::rebuild_tree() {
  OMS_ASSERT_MSG(k >= 1, "artifact needs k >= 1 before building its tree");
  if (hierarchy.has_value()) {
    const std::vector<std::int64_t> extents = hierarchy->extents_top_down();
    tree_ = MultisectionTree::regular(extents);
  } else {
    // The default b-section base of OmsConfig; for non-OMS algorithms the
    // tree is purely an address scheme, so any fixed base works as long as
    // save/restore agree on it.
    tree_ = MultisectionTree::b_section(k, 4);
  }
}

void write_artifact(const PartitionArtifact& artifact, const std::string& path) {
  CheckpointWriter payload;
  put_artifact(payload, artifact);
  write_sealed_file(path, kArtifactMagic, {}, payload.bytes(), "artifact");
}

PartitionArtifact read_artifact(const std::string& path) {
  const SealedFile file = read_sealed_file(path, kArtifactMagic, "artifact");
  const std::span<const char> payload = file.payload(0);
  CheckpointReader reader(payload.data(), payload.size());
  PartitionArtifact artifact = get_artifact(reader, path);
  artifact.rebuild_tree();
  return artifact;
}

} // namespace oms
