/// \file checkpoint.hpp
/// \brief Crash-safe checkpoint/resume for streaming partitioning runs.
///
/// A checkpoint is a binary snapshot of everything a streaming pass needs to
/// continue as if it had never stopped: the input position (byte offset +
/// line number of the next unparsed line), the stream progress (nodes
/// delivered), and the partitioner's cross-node state (assignment prefix,
/// block weights, algorithm-specific extras). Because every supported
/// algorithm derives all remaining state deterministically from its config,
/// a killed-and-resumed run is bit-identical to an uninterrupted one — the
/// chaos suite pins that with golden hashes.
///
/// File format (little-endian, all integers fixed-width):
///
///     u64  magic   "OMSCKPT1"
///     u32  version (currently 1)
///     meta: u32 len + algo id bytes, then u64 k, seed, num_nodes,
///           nodes_streamed, input_offset, input_line_no
///     u64  payload length + payload bytes (partitioner-specific)
///     u32  CRC-32 (IEEE) over every preceding byte
///
/// Files are written to `<path>.tmp` and renamed into place, so a crash
/// *during* a checkpoint write leaves the previous snapshot intact. Readers
/// validate magic, version and CRC before touching any field and raise
/// oms::IoError on any mismatch — a corrupt or truncated checkpoint can
/// never silently resume wrong state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "oms/types.hpp"

namespace oms {

class AssignmentArray;
class BlockWeights;

/// Append-only byte buffer with typed put_* helpers; the payload side of a
/// partitioner's save_stream_state().
class CheckpointWriter {
public:
  void put_u32(std::uint32_t v) { put_raw(&v, sizeof v); }
  void put_u64(std::uint64_t v) { put_raw(&v, sizeof v); }
  void put_i64(std::int64_t v) { put_raw(&v, sizeof v); }
  void put_f64(double v) { put_raw(&v, sizeof v); }
  void put_string(const std::string& s);
  void put_raw(const void* data, std::size_t bytes);

  [[nodiscard]] const std::vector<char>& bytes() const noexcept { return buf_; }

private:
  std::vector<char> buf_;
};

/// Bounds-checked cursor over a checkpoint payload. Every get_* throws
/// oms::IoError when the payload is shorter than the reader expects, so a
/// payload/algorithm mismatch surfaces as a clean error.
class CheckpointReader {
public:
  CheckpointReader(const char* data, std::size_t size) : cur_(data), end_(data + size) {}
  explicit CheckpointReader(const std::vector<char>& bytes)
      : CheckpointReader(bytes.data(), bytes.size()) {}

  [[nodiscard]] std::uint32_t get_u32() { return get<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t get_u64() { return get<std::uint64_t>(); }
  [[nodiscard]] std::int64_t get_i64() { return get<std::int64_t>(); }
  [[nodiscard]] double get_f64() { return get<double>(); }
  [[nodiscard]] std::string get_string();
  void get_raw(void* out, std::size_t bytes);

  [[nodiscard]] std::size_t remaining() const noexcept {
    return static_cast<std::size_t>(end_ - cur_);
  }
  /// Throws unless the payload was consumed exactly — trailing bytes mean the
  /// payload belongs to a different (likely newer) serialization.
  void expect_end() const;

private:
  template <typename T>
  [[nodiscard]] T get() {
    T v;
    get_raw(&v, sizeof v);
    return v;
  }

  const char* cur_;
  const char* end_;
};

/// The validated header fields of a checkpoint file.
struct CheckpointMeta {
  std::string algo;                 ///< "oms", "fennel", "ldg", "hashing", "buffered:lp", ...
  std::uint64_t k = 0;
  std::uint64_t seed = 0;
  std::uint64_t num_nodes = 0;      ///< header node count of the input graph
  std::uint64_t nodes_streamed = 0; ///< nodes fully assigned before the snapshot
  std::uint64_t input_offset = 0;   ///< byte offset of the next unparsed line
  std::uint64_t input_line_no = 0;  ///< 1-based line number matching input_offset
};

struct CheckpointState {
  CheckpointMeta meta;
  std::vector<char> payload;
};

/// Atomically (write-then-rename) persist a checkpoint. Throws IoError on any
/// filesystem failure.
void write_checkpoint_file(const std::string& path, const CheckpointMeta& meta,
                           const std::vector<char>& payload);

/// Load and fully validate (magic, version, CRC, structure) a checkpoint.
/// Throws IoError naming the defect otherwise.
[[nodiscard]] CheckpointState read_checkpoint_file(const std::string& path);

/// Throws IoError unless \p meta matches the run being resumed: same
/// algorithm id, k, seed and input node count. Callers decide the exit
/// policy (the CLI maps this to a usage error, exit 2).
void validate_resume(const CheckpointMeta& meta, const std::string& algo,
                     std::uint64_t k, std::uint64_t seed, std::uint64_t num_nodes);

// --- serialization helpers shared by the partitioners' save/load ----------

void save_assignment(CheckpointWriter& w, const AssignmentArray& assignment);
void load_assignment(CheckpointReader& r, AssignmentArray& assignment);
void save_assignment(CheckpointWriter& w, const std::vector<BlockId>& assignment);
void load_assignment(CheckpointReader& r, std::vector<BlockId>& assignment);
void save_block_weights(CheckpointWriter& w, const BlockWeights& weights);
void load_block_weights(CheckpointReader& r, BlockWeights& weights);

// --- checkpoint policy (PipelineConfig::checkpoint) -------------------------

struct CheckpointConfig {
  std::string path;                   ///< empty = checkpointing disabled
  std::uint64_t every_nodes = 65536;  ///< snapshot cadence in streamed nodes
};

} // namespace oms
