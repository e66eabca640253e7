/// \file one_pass_driver.hpp
/// \brief The streaming loop shared by every one-pass algorithm: iterate the
///        nodes in stream order and ask an assigner for a permanent block.
///
/// run_one_pass streams an in-memory graph through run_stream
/// (stream/pipeline.hpp), sequentially or with one contiguous chunk of nodes
/// per thread (vertex-centric, paper Section 3.4). Assigners must be
/// thread-compatible: assign() may be called concurrently for different
/// nodes; all shared state they keep must be atomic (see BlockWeights).
#pragma once

#include <vector>

#include "oms/graph/csr_graph.hpp"
#include "oms/stream/error_policy.hpp"
#include "oms/stream/streamed_node.hpp"
#include "oms/types.hpp"
#include "oms/util/work_counters.hpp"

namespace oms {

class CheckpointWriter;
class CheckpointReader;
struct CheckpointMeta;

/// Interface implemented by Hashing, LDG, Fennel and the online recursive
/// multi-section. One instance handles one pass over one graph.
class OnePassAssigner {
public:
  virtual ~OnePassAssigner() = default;

  /// Called once before the pass with the number of worker threads, so the
  /// assigner can size per-thread scratch buffers.
  virtual void prepare(int num_threads) = 0;

  /// Permanently place \p node; thread_id indexes the scratch buffers.
  /// Returns the chosen block in [0, k).
  virtual BlockId assign(const StreamedNode& node, int thread_id,
                         WorkCounters& counters) = 0;

  /// Current assignment of a node (kInvalidBlock if not yet streamed).
  [[nodiscard]] virtual BlockId block_of(NodeId u) const = 0;

  /// Number of target blocks k.
  [[nodiscard]] virtual BlockId num_blocks() const = 0;

  /// Release the final assignment vector (assigner is done afterwards).
  [[nodiscard]] virtual std::vector<BlockId> take_assignment() = 0;

  /// Checkpoint support (stream/checkpoint.hpp): serialize / restore every
  /// piece of state that is not derivable from the construction config, so a
  /// resumed pass continues bit-identically. Both default to "unsupported"
  /// (return false); run_stream turns that into a clean IoError.
  /// load_stream_state is called after prepare() on a freshly constructed
  /// assigner with identical config.
  [[nodiscard]] virtual bool save_stream_state(CheckpointWriter& /*writer*/) const {
    return false;
  }
  [[nodiscard]] virtual bool load_stream_state(CheckpointReader& /*reader*/) {
    return false;
  }
  /// The identity a snapshot of this assigner carries: sets \p meta.algo
  /// ("oms", "fennel", ...) and \p meta.seed, which validate_resume checks
  /// before a resume. Assigners without checkpoint support leave it alone.
  virtual void stamp_checkpoint(CheckpointMeta& /*meta*/) const {}
};

/// Result of a streaming pass.
struct StreamResult {
  std::vector<BlockId> assignment;
  double elapsed_s = 0.0;
  WorkCounters work;
  StreamErrorStats skipped; ///< malformed lines skipped (disk, --on-error skip)
};

/// Stream \p graph in node-id order through \p assigner: run_stream over the
/// graph with no reader thread when sequential, and otherwise one batch of
/// ceil(n / threads) consecutive nodes per consumer thread.
/// \param num_threads 1 = sequential (deterministic); 0 = all hardware
///        threads; >1 = that many consumer threads. For other batch sizes,
///        call run_stream with PipelineConfig::batch_nodes.
[[nodiscard]] StreamResult run_one_pass(const CsrGraph& graph, OnePassAssigner& assigner,
                                        int num_threads = 1);

} // namespace oms
