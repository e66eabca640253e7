#include "oms/multilevel/buffer_multilevel.hpp"

#include <algorithm>
#include <numeric>

#include "oms/telemetry/metrics.hpp"
#include "oms/util/assert.hpp"

namespace oms {

/// Stop coarsening once a level has at most max(kCoarseFloor,
/// kCoarseningFactor * k) nodes, or after kMaxLevels levels.
constexpr NodeId kCoarseFloor = 128;
constexpr std::int64_t kCoarseningFactor = 2;
constexpr int kMaxLevels = 20;
/// Clustering sweeps per coarsening level.
constexpr int kClusteringIterations = 1;
/// Independent BFS-band seeds tried at the coarsest level of the *first*
/// buffer (the projected incoming greedy partition is always an additional
/// candidate, and the only one on later buffers).
constexpr int kInitialAttempts = 3;
/// Per-node visit budget of the active-set refinement on each level.
constexpr std::uint8_t kRefinementVisits = 2;

BufferMultilevel::BufferMultilevel(BlockId k, std::uint64_t seed)
    : k_(k),
      seed_(seed),
      base_(static_cast<std::size_t>(k), 0),
      cur_weight_(static_cast<std::size_t>(k), 0),
      gather_nodes_(0),
      gather_blocks_(static_cast<std::size_t>(k)) {
  OMS_ASSERT(k >= 1);
}

BufferMultilevel::GraphView BufferMultilevel::view_of(const Level& level) {
  return {level.n, level.xadj.data(), level.adjncy.data(), level.adjwgt.data(),
          level.vwgt.data()};
}

BufferMultilevel::AffinityView BufferMultilevel::affinity_of(const Level& level) {
  return {level.aff_offset.data(), level.aff_block.data(),
          level.aff_weight.data()};
}

void BufferMultilevel::contract_level(const GraphView& fine,
                                      const AffinityView& aff,
                                      const std::vector<NodeId>& cluster,
                                      NodeId num_clusters,
                                      const std::vector<BlockId>& part,
                                      Level& out) {
  const std::uint32_t n = fine.n;

  // Bucket fine nodes by coarse id so each coarse node's aggregates come from
  // one contiguous member scan.
  member_offset_.assign(num_clusters + 1, 0);
  for (std::uint32_t u = 0; u < n; ++u) {
    ++member_offset_[cluster[u] + 1];
  }
  for (NodeId c = 0; c < num_clusters; ++c) {
    member_offset_[c + 1] += member_offset_[c];
  }
  member_cursor_.assign(member_offset_.begin(), member_offset_.end());
  member_.resize(n);
  for (std::uint32_t u = 0; u < n; ++u) {
    member_[member_cursor_[cluster[u]]++] = u;
  }

  out.n = num_clusters;
  out.xadj.resize(num_clusters + 1);
  out.xadj[0] = 0;
  out.adjncy.clear();
  out.adjwgt.clear();
  out.aff_offset.resize(num_clusters + 1);
  out.aff_offset[0] = 0;
  out.aff_block.clear();
  out.aff_weight.clear();
  out.vwgt.assign(num_clusters, 0);
  out.cluster_of_fine.assign(cluster.begin(), cluster.end());
  next_part_.resize(num_clusters);

  gather_nodes_.ensure_universe(num_clusters);
  gather_blocks_.ensure_universe(static_cast<std::size_t>(k_));

  for (NodeId c = 0; c < num_clusters; ++c) {
    const std::uint32_t begin = member_offset_[c];
    const std::uint32_t end = member_offset_[c + 1];

    // Coarse adjacency: merge parallel edges, drop intra-cluster arcs.
    NodeWeight vw = 0;
    for (std::uint32_t idx = begin; idx < end; ++idx) {
      const std::uint32_t u = member_[idx];
      vw += fine.node_weight(u);
      const auto neigh = fine.neighbors(u);
      const auto arc_w = fine.incident_weights(u);
      for (std::size_t i = 0; i < neigh.size(); ++i) {
        const NodeId cv = cluster[neigh[i]];
        if (cv != c) {
          gather_nodes_.add(cv, arc_w[i]);
        }
      }
    }
    out.vwgt[c] = vw;
    for (const std::size_t t : gather_nodes_.touched()) {
      out.adjncy.push_back(static_cast<std::uint32_t>(t));
      out.adjwgt.push_back(gather_nodes_.get(t));
    }
    out.xadj[c + 1] = static_cast<std::uint32_t>(out.adjncy.size());
    gather_nodes_.clear();

    // Coarse affinities: sum the members' per-block super-edges.
    for (std::uint32_t idx = begin; idx < end; ++idx) {
      const std::uint32_t u = member_[idx];
      for (std::uint32_t e = aff.offset[u]; e < aff.offset[u + 1]; ++e) {
        gather_blocks_.add(static_cast<std::size_t>(aff.block[e]),
                           aff.weight[e]);
      }
    }
    for (const std::size_t t : gather_blocks_.touched()) {
      out.aff_block.push_back(static_cast<BlockId>(t));
      out.aff_weight.push_back(gather_blocks_.get(t));
    }
    out.aff_offset[c + 1] = static_cast<std::uint32_t>(out.aff_block.size());
    gather_blocks_.clear();

    // Project the fine partition up by node-weight plurality (ties to the
    // smallest block id, independent of gather insertion order).
    for (std::uint32_t idx = begin; idx < end; ++idx) {
      const std::uint32_t u = member_[idx];
      gather_blocks_.add(static_cast<std::size_t>(part[u]),
                         fine.node_weight(u));
    }
    std::size_t best_block = static_cast<std::size_t>(k_);
    EdgeWeight best_votes = -1;
    for (const std::size_t t : gather_blocks_.touched()) {
      const EdgeWeight votes = gather_blocks_.get(t);
      if (votes > best_votes || (votes == best_votes && t < best_block)) {
        best_block = t;
        best_votes = votes;
      }
    }
    next_part_[c] = static_cast<BlockId>(best_block);
    gather_blocks_.clear();
  }
}

void BufferMultilevel::reset_weights(const GraphView& graph,
                                     const std::vector<BlockId>& part) {
  cur_weight_ = base_;
  for (std::uint32_t u = 0; u < graph.n; ++u) {
    cur_weight_[static_cast<std::size_t>(part[u])] += graph.node_weight(u);
  }
}

void BufferMultilevel::refine_level(const GraphView& graph,
                                    const AffinityView& aff,
                                    std::vector<BlockId>& part,
                                    NodeWeight bound, const std::int64_t* dist,
                                    Rng& rng) {
  const std::uint32_t n = graph.n;
  gather_blocks_.ensure_universe(static_cast<std::size_t>(k_));

  // Active-set sweep (the lp engine's trick, ported to the V-cycle): only
  // boundary nodes — some neighbor or affinity in another block — can gain
  // from a move, and after the seeding pass a node re-enters only when an
  // in-level neighbor moved. On mesh-like levels the boundary is a small
  // fraction of the level, which is where the full-sweep variant burned most
  // of its time. The seed order is shuffled once for symmetry breaking;
  // processing is FIFO and deterministic.
  order_.clear();
  for (std::uint32_t u = 0; u < n; ++u) {
    const BlockId current = part[u];
    bool boundary = false;
    for (const std::uint32_t v : graph.neighbors(u)) {
      if (part[v] != current) {
        boundary = true;
        break;
      }
    }
    if (!boundary) {
      for (std::uint32_t e = aff.offset[u]; e < aff.offset[u + 1]; ++e) {
        if (aff.block[e] != current) {
          boundary = true;
          break;
        }
      }
    }
    if (boundary) {
      order_.push_back(u);
    }
  }
  rng.shuffle(order_);

  queue_.resize(n);
  in_queue_.assign(n, 0);
  visits_left_.assign(n, kRefinementVisits);
  std::size_t head = 0;
  std::size_t count = order_.size();
  std::size_t tail = count % n;
  std::copy(order_.begin(), order_.end(), queue_.begin());
  if (count == n) {
    tail = 0;
  }
  for (const std::uint32_t u : order_) {
    in_queue_[u] = 1;
  }

  while (count > 0) {
    const std::uint32_t u = queue_[head];
    head = head + 1 == n ? 0 : head + 1;
    --count;
    in_queue_[u] = 0;
    --visits_left_[u];

    {
      const auto neigh = graph.neighbors(u);
      const auto arc_w = graph.incident_weights(u);
      for (std::size_t i = 0; i < neigh.size(); ++i) {
        gather_blocks_.add(static_cast<std::size_t>(part[neigh[i]]), arc_w[i]);
      }
      for (std::uint32_t e = aff.offset[u]; e < aff.offset[u + 1]; ++e) {
        gather_blocks_.add(static_cast<std::size_t>(aff.block[e]),
                           aff.weight[e]);
      }
      const auto& touched = gather_blocks_.touched();
      if (touched.empty()) {
        gather_blocks_.clear();
        continue; // isolated within the model: nothing to gain anywhere
      }
      const BlockId current = part[u];
      const NodeWeight u_weight = graph.node_weight(u);
      BlockId best = current;

      if (dist == nullptr) {
        // Edge-cut mode: only connected blocks can win; zero-gain moves break
        // ties towards the lighter post-move block.
        EdgeWeight best_connection =
            gather_blocks_.get(static_cast<std::size_t>(current));
        NodeWeight best_weight = cur_weight_[static_cast<std::size_t>(current)];
        for (const std::size_t candidate : touched) {
          const auto b = static_cast<BlockId>(candidate);
          if (b == current) {
            continue;
          }
          const NodeWeight candidate_weight = cur_weight_[candidate] + u_weight;
          if (candidate_weight > bound) {
            continue;
          }
          const EdgeWeight connection = gather_blocks_.get(candidate);
          if (connection > best_connection ||
              (connection == best_connection &&
               candidate_weight < best_weight)) {
            best = b;
            best_connection = connection;
            best_weight = candidate_weight;
          }
        }
      } else {
        // Mapping mode: every block is a candidate — a block with no direct
        // connection can still be best when it sits close (cheap distance) to
        // the blocks u communicates with. gain(b) = sum over connected b' of
        // conn(b') * (dist_max - d(b, b')); maximizing it minimizes J.
        const auto gain_of = [&](BlockId b) {
          const std::int64_t* row =
              dist + static_cast<std::size_t>(b) * static_cast<std::size_t>(k_);
          std::int64_t gain = 0;
          for (const std::size_t t : touched) {
            gain += gather_blocks_.get(t) * (dist_max_ - row[t]);
          }
          return gain;
        };
        std::int64_t best_gain = gain_of(current);
        NodeWeight best_weight = cur_weight_[static_cast<std::size_t>(current)];
        for (BlockId b = 0; b < k_; ++b) {
          if (b == current) {
            continue;
          }
          const NodeWeight candidate_weight =
              cur_weight_[static_cast<std::size_t>(b)] + u_weight;
          if (candidate_weight > bound) {
            continue;
          }
          const std::int64_t gain = gain_of(b);
          if (gain > best_gain ||
              (gain == best_gain && candidate_weight < best_weight)) {
            best = b;
            best_gain = gain;
            best_weight = candidate_weight;
          }
        }
      }

      gather_blocks_.clear();
      if (best != current) {
        cur_weight_[static_cast<std::size_t>(current)] -= u_weight;
        cur_weight_[static_cast<std::size_t>(best)] += u_weight;
        part[u] = best;
        // The move invalidated the neighbors' cached local optimum: revisit
        // them (bounded by the per-node budget).
        for (const std::uint32_t v : graph.neighbors(u)) {
          if (in_queue_[v] == 0 && visits_left_[v] > 0) {
            in_queue_[v] = 1;
            queue_[tail] = v;
            tail = tail + 1 == n ? 0 : tail + 1;
            ++count;
          }
        }
      }
    }
  }
}

Cost BufferMultilevel::model_cost(const GraphView& graph,
                                  const AffinityView& aff,
                                  const std::vector<BlockId>& part,
                                  const std::int64_t* dist) const {
  Cost total = 0;
  for (std::uint32_t u = 0; u < graph.n; ++u) {
    const BlockId bu = part[u];
    const std::int64_t* row =
        dist != nullptr
            ? dist + static_cast<std::size_t>(bu) * static_cast<std::size_t>(k_)
            : nullptr;
    const auto neigh = graph.neighbors(u);
    const auto arc_w = graph.incident_weights(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const std::uint32_t v = neigh[i];
      if (v <= u) {
        continue; // symmetric intra arcs: count each edge once
      }
      if (dist != nullptr) {
        total += arc_w[i] * row[static_cast<std::size_t>(part[v])];
      } else if (part[v] != bu) {
        total += arc_w[i];
      }
    }
    for (std::uint32_t e = aff.offset[u]; e < aff.offset[u + 1]; ++e) {
      const BlockId b = aff.block[e];
      if (dist != nullptr) {
        total += aff.weight[e] * row[static_cast<std::size_t>(b)];
      } else if (b != bu) {
        total += aff.weight[e];
      }
    }
  }
  return total;
}

std::pair<Cost, Cost> BufferMultilevel::model_cost_pair(
    const GraphView& graph, const AffinityView& aff,
    const std::vector<BlockId>& part_a, const std::vector<BlockId>& part_b,
    const std::int64_t* dist) const {
  // One traversal of the model scores both partitions: the adjacency and
  // affinity arrays are the expensive reads, and they are shared.
  Cost total_a = 0;
  Cost total_b = 0;
  for (std::uint32_t u = 0; u < graph.n; ++u) {
    const BlockId au = part_a[u];
    const BlockId bu = part_b[u];
    const std::int64_t* row_a =
        dist != nullptr
            ? dist + static_cast<std::size_t>(au) * static_cast<std::size_t>(k_)
            : nullptr;
    const std::int64_t* row_b =
        dist != nullptr
            ? dist + static_cast<std::size_t>(bu) * static_cast<std::size_t>(k_)
            : nullptr;
    const auto neigh = graph.neighbors(u);
    const auto arc_w = graph.incident_weights(u);
    for (std::size_t i = 0; i < neigh.size(); ++i) {
      const std::uint32_t v = neigh[i];
      if (v <= u) {
        continue; // symmetric intra arcs: count each edge once
      }
      if (dist != nullptr) {
        total_a += arc_w[i] * row_a[static_cast<std::size_t>(part_a[v])];
        total_b += arc_w[i] * row_b[static_cast<std::size_t>(part_b[v])];
      } else {
        if (part_a[v] != au) {
          total_a += arc_w[i];
        }
        if (part_b[v] != bu) {
          total_b += arc_w[i];
        }
      }
    }
    for (std::uint32_t e = aff.offset[u]; e < aff.offset[u + 1]; ++e) {
      const BlockId b = aff.block[e];
      if (dist != nullptr) {
        total_a += aff.weight[e] * row_a[static_cast<std::size_t>(b)];
        total_b += aff.weight[e] * row_b[static_cast<std::size_t>(b)];
      } else {
        if (b != au) {
          total_a += aff.weight[e];
        }
        if (b != bu) {
          total_b += aff.weight[e];
        }
      }
    }
  }
  return {total_a, total_b};
}

void BufferMultilevel::improve(const BufferModelView& model,
                               std::span<BlockId> partition,
                               std::span<NodeWeight> block_weight,
                               NodeWeight lmax, const std::int64_t* dist,
                               std::uint64_t salt) {
  const std::uint32_t n = model.num_nodes;
  if (n == 0 || k_ <= 1) {
    return;
  }
  // Adaptive backoff: on streams where the V-cycle keeps failing to beat the
  // lp-refined incoming partition (weakly structured graphs), stop paying for
  // it — skip upcoming buffers, retrying periodically in case the stream's
  // character changes. The state advances identically for identical buffer
  // sequences, so entry-point parity is preserved.
  if (salt < skip_until_) {
    telemetry::metric_add(telemetry::Counter::kMultilevelBackoffSkips);
    return;
  }
  OMS_ASSERT(partition.size() == n);
  OMS_ASSERT(block_weight.size() == static_cast<std::size_t>(k_));

  const GraphView finest{n, model.intra_offset, model.intra_target,
                         model.intra_weight, model.node_weight};
  const AffinityView finest_aff{model.super_offset, model.super_block,
                                model.super_weight};

  // Committed base weights: what the earlier buffers put into each block.
  base_.assign(block_weight.begin(), block_weight.end());
  NodeWeight buffer_weight = 0;
  for (std::uint32_t u = 0; u < n; ++u) {
    const NodeWeight w = finest.node_weight(u);
    base_[static_cast<std::size_t>(partition[u])] -= w;
    buffer_weight += w;
  }

  if (dist != nullptr) {
    dist_max_ = 0;
    const std::size_t kk =
        static_cast<std::size_t>(k_) * static_cast<std::size_t>(k_);
    for (std::size_t i = 0; i < kk; ++i) {
      dist_max_ = std::max(dist_max_, dist[i]);
    }
  }

  const std::uint64_t run_seed = hash_combine(seed_, salt);
  Rng rng(run_seed);

  incoming_.assign(partition.begin(), partition.end());
  cur_part_.assign(partition.begin(), partition.end());

  // --- Coarsening ---------------------------------------------------------
  const NodeId target = std::max<NodeId>(
      kCoarseFloor,
      static_cast<NodeId>(std::min<std::int64_t>(
          kCoarseningFactor * k_,
          static_cast<std::int64_t>(n))));
  // Cap derived from the coarsening target (cf. multilevel_partitioner.cpp):
  // clustering then cannot overshoot the target for unit node weights.
  const NodeWeight max_cluster_weight =
      std::max<NodeWeight>(1, buffer_weight / std::max<NodeId>(1, target));

  int num_levels = 0;
  GraphView cur = finest;
  AffinityView cur_aff = finest_aff;
  while (num_levels < kMaxLevels && cur.n > target) {
    const std::vector<NodeId> cluster = lp_cluster_impl(
        cur, max_cluster_weight, kClusteringIterations,
        hash_combine(run_seed, static_cast<std::uint64_t>(num_levels) + 1));
    const NodeId num_clusters =
        *std::max_element(cluster.begin(), cluster.end()) + 1;
    if (num_clusters >= cur.n || num_clusters < target / 2 + 1) {
      break; // no progress, or overshooting the target by more than 2x
    }
    if (levels_.size() <= static_cast<std::size_t>(num_levels)) {
      levels_.emplace_back();
    }
    Level& out = levels_[static_cast<std::size_t>(num_levels)];
    contract_level(cur, cur_aff, cluster, num_clusters, cur_part_, out);
    cur_part_.swap(next_part_); // projected incoming partition, coarse side
    cur = view_of(out);
    cur_aff = affinity_of(out);
    ++num_levels;
  }

  // Coarse nodes can be heavy, so a strict Lmax may be unachievable above the
  // finest level (bin-packing granularity); relax by the heaviest node there.
  const auto bound_for = [lmax](const GraphView& g) {
    NodeWeight heaviest = 1;
    for (std::uint32_t u = 0; u < g.n; ++u) {
      heaviest = std::max(heaviest, g.node_weight(u));
    }
    return heaviest <= 1 ? lmax : lmax + heaviest;
  };

  // --- Initial partitioning at the coarsest level -------------------------
  // Candidates: the incoming greedy placement projected up (never start from
  // worse than what the stream already has), plus a few BFS-band partitions
  // seeded over the committed base weights. Each candidate is refined, and
  // the best under the active objective wins.
  const NodeWeight coarse_bound =
      num_levels == 0 ? lmax : bound_for(cur);
  cand_part_ = cur_part_;
  reset_weights(cur, cand_part_);
  refine_level(cur, cur_aff, cand_part_, coarse_bound, dist, rng);
  Cost best_cost = model_cost(cur, cur_aff, cand_part_, dist);
  best_part_ = cand_part_;
  // From-scratch BFS candidates only make sense on the first buffer, where
  // the greedy placement had no committed structure to anchor to. On later
  // buffers a from-scratch repartition can win the *local* model objective
  // by a hair while scrambling the global block geometry the stream has been
  // building — every future buffer then pays for the incoherence.
  const int attempts = salt == 0 ? kInitialAttempts : 0;
  for (int attempt = 0; attempt < attempts; ++attempt) {
    cand_part_ = bfs_band_impl(
        cur, k_, coarse_bound, base_,
        hash_combine(run_seed, 0x1000 + static_cast<std::uint64_t>(attempt)));
    reset_weights(cur, cand_part_);
    refine_level(cur, cur_aff, cand_part_, coarse_bound, dist, rng);
    const Cost cost = model_cost(cur, cur_aff, cand_part_, dist);
    if (cost < best_cost) {
      best_cost = cost;
      best_part_.swap(cand_part_);
    }
  }
  cur_part_ = best_part_;

  // --- Uncoarsening -------------------------------------------------------
  for (int li = num_levels - 1; li >= 0; --li) {
    const Level& coarse = levels_[static_cast<std::size_t>(li)];
    const GraphView fine =
        li == 0 ? finest : view_of(levels_[static_cast<std::size_t>(li - 1)]);
    const AffinityView fine_aff =
        li == 0 ? finest_aff
                : affinity_of(levels_[static_cast<std::size_t>(li - 1)]);
    next_part_.resize(fine.n);
    for (std::uint32_t u = 0; u < fine.n; ++u) {
      next_part_[u] = cur_part_[coarse.cluster_of_fine[u]];
    }
    cur_part_.swap(next_part_);
    const NodeWeight bound = li == 0 ? lmax : bound_for(fine);
    reset_weights(fine, cur_part_);
    refine_level(fine, fine_aff, cur_part_, bound, dist, rng);
  }

  // --- Finest-level balance repair ----------------------------------------
  // Coarse levels ran with a relaxed bound, so blocks can exceed Lmax here.
  // Evict buffer nodes from overweight blocks into the best connected (or
  // lightest) block with room; best-effort, like the lp engine's fallback.
  reset_weights(finest, cur_part_); // cur_weight_ may track a losing candidate
  for (int pass = 0; pass < 2; ++pass) {
    bool any_overweight = false;
    for (std::uint32_t u = 0; u < n; ++u) {
      const BlockId current = cur_part_[u];
      if (cur_weight_[static_cast<std::size_t>(current)] <= lmax) {
        continue;
      }
      any_overweight = true;
      const NodeWeight u_weight = finest.node_weight(u);
      const auto neigh = finest.neighbors(u);
      const auto arc_w = finest.incident_weights(u);
      for (std::size_t i = 0; i < neigh.size(); ++i) {
        gather_blocks_.add(static_cast<std::size_t>(cur_part_[neigh[i]]),
                           arc_w[i]);
      }
      for (std::uint32_t e = finest_aff.offset[u]; e < finest_aff.offset[u + 1];
           ++e) {
        gather_blocks_.add(static_cast<std::size_t>(finest_aff.block[e]),
                           finest_aff.weight[e]);
      }
      BlockId target_block = kInvalidBlock;
      EdgeWeight target_connection = -1;
      NodeWeight target_weight = 0;
      for (BlockId b = 0; b < k_; ++b) {
        if (b == current) {
          continue;
        }
        const NodeWeight candidate_weight =
            cur_weight_[static_cast<std::size_t>(b)] + u_weight;
        if (candidate_weight > lmax) {
          continue;
        }
        const EdgeWeight connection =
            gather_blocks_.get(static_cast<std::size_t>(b));
        if (target_block == kInvalidBlock || connection > target_connection ||
            (connection == target_connection &&
             candidate_weight < target_weight)) {
          target_block = b;
          target_connection = connection;
          target_weight = candidate_weight;
        }
      }
      gather_blocks_.clear();
      if (target_block != kInvalidBlock) {
        cur_weight_[static_cast<std::size_t>(current)] -= u_weight;
        cur_weight_[static_cast<std::size_t>(target_block)] += u_weight;
        cur_part_[u] = target_block;
      }
    }
    if (!any_overweight) {
      break;
    }
  }

  // --- Never-worse guarantee and write-back -------------------------------
  // Commit only substantive improvements (~1.6% of the incoming model cost):
  // a marginal win on the buffer-local model is noise relative to what the
  // model cannot see (edges to future nodes), and committing it reshuffles
  // the global block geometry later buffers anchor to. Marginal/failed
  // buffers feed the backoff counter instead.
  const auto [final_cost, incoming_cost] =
      model_cost_pair(finest, finest_aff, cur_part_, incoming_, dist);
  const bool commit = final_cost < incoming_cost - incoming_cost / 64;
  telemetry::metric_add(commit ? telemetry::Counter::kMultilevelCommitsAccepted
                               : telemetry::Counter::kMultilevelCommitsRejected);
  if (commit) {
    fail_streak_ = 0;
  } else {
    ++fail_streak_;
    if (fail_streak_ >= 2) {
      const int exponent = std::min(fail_streak_ - 2, 2);
      skip_until_ = salt + 1 + (std::uint64_t{1} << exponent);
    }
  }
  const std::vector<BlockId>& winner = commit ? cur_part_ : incoming_;
  reset_weights(finest, winner);
  std::copy(winner.begin(), winner.end(), partition.begin());
  std::copy(cur_weight_.begin(), cur_weight_.end(), block_weight.begin());
}

} // namespace oms
