// solve_workspace.h — per-solve scratch state for the deployable pipeline.
//
// The paper's Figure 7 result rests on the inference pass having a fixed,
// traffic-independent compute shape. A SolveWorkspace makes the *memory*
// shape equally fixed: it owns every buffer a TealScheme::solve() touches —
// the capacity snapshot, the model's forward caches, the softmax splits and
// the ADMM primal/dual state — so repeated solves on the same problem
// allocate nothing after the first call (verified by the allocation-counting
// tests and the cold/warm micro-benchmark).
//
// Workspaces share no mutable state with each other or with the scheme's
// read-only model, so independent traffic matrices can be solved
// concurrently, one workspace per worker — the interface-level
// commutativity that lets solve_batch() scale across the thread pool.
//
// Memory model (DESIGN.md "Memory model"): every buffer is a plain heap
// std::vector (directly or inside an nn::Mat). The first solve on a fresh
// workspace grows them; warm solves reuse their capacity.
#pragma once

#include <vector>

#include "core/admm.h"
#include "core/model.h"
#include "core/shard.h"

namespace teal::core {

struct SolveWorkspace {
  std::vector<double> caps;  // capacity snapshot for this solve
  ModelForward fwd;          // f64 model forward caches (owner-tagged)
  // Float mirror of the forward caches for the narrowed (Precision::f32)
  // solves. Its cache holds the model's f32 activations
  // (TealModel::ForwardF32) while its logits/mask members are the double
  // widenings the rest of the pipeline consumes. Only the precision actually
  // used grows warm buffers, so an f64-only workspace pays nothing for the
  // mirror.
  ModelForward fwd32;
  nn::Mat splits;            // (D, k) masked-softmax split ratios
  Admm::Workspace admm;      // ADMM primal/dual state

  // Intra-solve demand sharding state: the plan the last solve ran with and
  // one cache-line-aligned accounting slot per shard (busy seconds / stage
  // counts — the load-balance telemetry bench_shard_scaling reports).
  // Shards write only their own slot, so they never false-share; everything
  // else they touch is disjoint *rows* of the matrices above.
  ShardPlan plan;
  std::vector<ShardStat> shard_stats;

  // Sizes and zeroes the per-shard scratch for a solve under `p`. Reuses the
  // vector's capacity, so warm solves with a stable plan allocate nothing.
  void prepare_shards(const ShardPlan& p) {
    plan = p;
    if (shard_stats.size() < static_cast<std::size_t>(p.n_shards)) {
      shard_stats.resize(static_cast<std::size_t>(p.n_shards));
    }
    for (auto& s : shard_stats) s.reset();
  }

  void clear() { *this = SolveWorkspace{}; }
};

}  // namespace teal::core
