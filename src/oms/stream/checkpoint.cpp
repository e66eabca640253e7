#include "oms/stream/checkpoint.hpp"

#include <cstring>
#include <span>

#include "oms/stream/block_weights.hpp"
#include "oms/telemetry/metrics.hpp"
#include "oms/util/assignment_array.hpp"
#include "oms/util/io_error.hpp"
#include "oms/util/sealed_file.hpp"

namespace oms {

namespace {

/// "OMSCKPT1" little-endian.
constexpr std::uint64_t kCheckpointMagic = 0x3154504B43534D4FULL;
constexpr std::uint32_t kCheckpointVersion = 1;

void put_meta(CheckpointWriter& w, const CheckpointMeta& meta) {
  w.put_string(meta.algo);
  w.put_u64(meta.k);
  w.put_u64(meta.seed);
  w.put_u64(meta.num_nodes);
  w.put_u64(meta.nodes_streamed);
  w.put_u64(meta.input_offset);
  w.put_u64(meta.input_line_no);
}

[[nodiscard]] CheckpointMeta get_meta(CheckpointReader& r) {
  CheckpointMeta meta;
  meta.algo = r.get_string();
  meta.k = r.get_u64();
  meta.seed = r.get_u64();
  meta.num_nodes = r.get_u64();
  meta.nodes_streamed = r.get_u64();
  meta.input_offset = r.get_u64();
  meta.input_line_no = r.get_u64();
  return meta;
}

} // namespace

void CheckpointWriter::put_string(const std::string& s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_raw(s.data(), s.size());
}

void CheckpointWriter::put_raw(const void* data, std::size_t bytes) {
  const char* p = static_cast<const char*>(data);
  buf_.insert(buf_.end(), p, p + bytes);
}

std::string CheckpointReader::get_string() {
  const std::uint32_t len = get_u32();
  if (len > remaining()) {
    throw IoError("checkpoint: truncated string field");
  }
  std::string s(cur_, len);
  cur_ += len;
  return s;
}

void CheckpointReader::get_raw(void* out, std::size_t bytes) {
  if (bytes > remaining()) {
    throw IoError("checkpoint: truncated payload");
  }
  if (bytes == 0) {
    return; // an empty payload's data() may be null, and memcpy(null, ...) is UB
  }
  std::memcpy(out, cur_, bytes);
  cur_ += bytes;
}

void CheckpointReader::expect_end() const {
  if (cur_ != end_) {
    throw IoError("checkpoint: " + std::to_string(remaining()) +
                  " unexpected trailing payload bytes");
  }
}

void write_checkpoint_file(const std::string& path, const CheckpointMeta& meta,
                           const std::vector<char>& payload) {
  const telemetry::TraceSpan span(telemetry::Hist::kStageCheckpointWrite);
  CheckpointWriter head;
  head.put_u32(kCheckpointVersion);
  put_meta(head, meta);
  const std::uint64_t bytes =
      write_sealed_file(path, kCheckpointMagic, head.bytes(), payload, "checkpoint");
  telemetry::metric_add(telemetry::Counter::kCheckpointSnapshots);
  telemetry::metric_add(telemetry::Counter::kCheckpointBytes, bytes);
}

CheckpointState read_checkpoint_file(const std::string& path) {
  const SealedFile file = read_sealed_file(path, kCheckpointMagic, "checkpoint");
  CheckpointReader r(file.body().data(), file.body().size());
  if (const std::uint32_t version = r.get_u32(); version != kCheckpointVersion) {
    throw IoError("checkpoint '" + path + "': unsupported version " +
                  std::to_string(version) + " (expected " +
                  std::to_string(kCheckpointVersion) + ")");
  }
  CheckpointState state;
  state.meta = get_meta(r);
  const std::span<const char> payload = file.payload(file.body().size() - r.remaining());
  state.payload.assign(payload.begin(), payload.end());
  return state;
}

void validate_resume(const CheckpointMeta& meta, const std::string& algo,
                     std::uint64_t k, std::uint64_t seed, std::uint64_t num_nodes) {
  if (meta.algo != algo) {
    throw IoError("checkpoint was written by algorithm '" + meta.algo +
                  "', this run uses '" + algo + "'");
  }
  if (meta.k != k) {
    throw IoError("checkpoint has k=" + std::to_string(meta.k) +
                  ", this run uses k=" + std::to_string(k));
  }
  if (meta.seed != seed) {
    throw IoError("checkpoint has seed=" + std::to_string(meta.seed) +
                  ", this run uses seed=" + std::to_string(seed));
  }
  if (meta.num_nodes != num_nodes) {
    throw IoError("checkpoint input has " + std::to_string(meta.num_nodes) +
                  " nodes, this input has " + std::to_string(num_nodes));
  }
}

void save_assignment(CheckpointWriter& w, const AssignmentArray& assignment) {
  w.put_u64(assignment.size());
  for (std::size_t u = 0; u < assignment.size(); ++u) {
    const BlockId b = assignment.load(static_cast<NodeId>(u));
    w.put_raw(&b, sizeof b);
  }
}

void load_assignment(CheckpointReader& r, AssignmentArray& assignment) {
  if (r.get_u64() != assignment.size()) {
    throw IoError("checkpoint: assignment size mismatch");
  }
  for (std::size_t u = 0; u < assignment.size(); ++u) {
    BlockId b = kInvalidBlock;
    r.get_raw(&b, sizeof b);
    assignment.store(static_cast<NodeId>(u), b);
  }
}

void save_assignment(CheckpointWriter& w, const std::vector<BlockId>& assignment) {
  w.put_u64(assignment.size());
  w.put_raw(assignment.data(), assignment.size() * sizeof(BlockId));
}

void load_assignment(CheckpointReader& r, std::vector<BlockId>& assignment) {
  if (r.get_u64() != assignment.size()) {
    throw IoError("checkpoint: assignment size mismatch");
  }
  r.get_raw(assignment.data(), assignment.size() * sizeof(BlockId));
}

void save_block_weights(CheckpointWriter& w, const BlockWeights& weights) {
  w.put_u64(weights.size());
  for (std::size_t b = 0; b < weights.size(); ++b) {
    w.put_i64(weights.load(b));
  }
}

void load_block_weights(CheckpointReader& r, BlockWeights& weights) {
  if (r.get_u64() != weights.size()) {
    throw IoError("checkpoint: block weight count mismatch");
  }
  weights.reset();
  for (std::size_t b = 0; b < weights.size(); ++b) {
    weights.add(b, r.get_i64());
  }
}

} // namespace oms
