#include "oms/stream/checkpoint.hpp"

#include <cstdio>
#include <cstring>
#include <memory>

#include "oms/stream/block_weights.hpp"
#include "oms/telemetry/metrics.hpp"
#include "oms/util/assignment_array.hpp"
#include "oms/util/crc32.hpp"
#include "oms/util/io_error.hpp"

namespace oms {

namespace {

/// "OMSCKPT1" little-endian.
constexpr std::uint64_t kCheckpointMagic = 0x3154504B43534D4FULL;
constexpr std::uint32_t kCheckpointVersion = 1;

struct FileCloser {
  void operator()(std::FILE* f) const noexcept { std::fclose(f); }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

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
  CheckpointWriter w;
  w.put_u64(kCheckpointMagic);
  w.put_u32(kCheckpointVersion);
  put_meta(w, meta);
  w.put_u64(payload.size());
  w.put_raw(payload.data(), payload.size());
  const std::uint32_t crc = crc32(w.bytes().data(), w.bytes().size());

  // tmp + rename: a crash mid-write can only lose the snapshot in progress,
  // never corrupt the previous one.
  const std::string tmp = path + ".tmp";
  {
    const FilePtr file(std::fopen(tmp.c_str(), "wb"));
    if (file == nullptr) {
      throw IoError("cannot open checkpoint file '" + tmp + "' for writing");
    }
    if (std::fwrite(w.bytes().data(), 1, w.bytes().size(), file.get()) !=
            w.bytes().size() ||
        std::fwrite(&crc, 1, sizeof crc, file.get()) != sizeof crc ||
        std::fflush(file.get()) != 0) {
      throw IoError("write error on checkpoint file '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    throw IoError("cannot move checkpoint into place at '" + path + "'");
  }
  telemetry::metric_add(telemetry::Counter::kCheckpointSnapshots);
  telemetry::metric_add(telemetry::Counter::kCheckpointBytes,
                        w.bytes().size() + sizeof crc);
}

CheckpointState read_checkpoint_file(const std::string& path) {
  const FilePtr file(std::fopen(path.c_str(), "rb"));
  if (file == nullptr) {
    throw IoError("cannot open checkpoint file '" + path + "'");
  }
  std::vector<char> bytes;
  char chunk[1 << 16];
  while (true) {
    const std::size_t got = std::fread(chunk, 1, sizeof chunk, file.get());
    bytes.insert(bytes.end(), chunk, chunk + got);
    if (got < sizeof chunk) {
      if (std::ferror(file.get()) != 0) {
        throw IoError("read error on checkpoint file '" + path + "'");
      }
      break;
    }
  }

  if (bytes.size() < sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t)) {
    throw IoError("checkpoint '" + path + "': file too short to be a checkpoint");
  }
  std::uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - sizeof stored_crc,
              sizeof stored_crc);
  const std::size_t body = bytes.size() - sizeof stored_crc;

  CheckpointReader r(bytes.data(), body);
  if (r.get_u64() != kCheckpointMagic) {
    throw IoError("checkpoint '" + path + "': bad magic (not a checkpoint file)");
  }
  if (const std::uint32_t version = r.get_u32(); version != kCheckpointVersion) {
    throw IoError("checkpoint '" + path + "': unsupported version " +
                  std::to_string(version) + " (expected " +
                  std::to_string(kCheckpointVersion) + ")");
  }
  if (crc32(bytes.data(), body) != stored_crc) {
    throw IoError("checkpoint '" + path + "': CRC mismatch (truncated or corrupt)");
  }

  CheckpointState state;
  state.meta = get_meta(r);
  const std::uint64_t payload_len = r.get_u64();
  if (payload_len != r.remaining()) {
    throw IoError("checkpoint '" + path + "': payload length mismatch");
  }
  state.payload.resize(payload_len);
  r.get_raw(state.payload.data(), payload_len);
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
