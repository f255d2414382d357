// flow_gnn.h — the FlowGNN feature extractor (§3.2, §4).
//
// FlowGNN is a flow-centric GNN: the *graph attributes* are not WAN sites but
// flow-related entities — one EdgeNode per directed link and one PathNode per
// preconfigured path. An EdgeNode and a PathNode are adjacent iff the edge
// lies on the path. The network alternates between
//   * GNN layers (bipartite message passing EdgeNodes <-> PathNodes) that
//     capture capacity constraints, and
//   * DNN layers (a shared fully-connected layer applied per demand to the
//     concatenation of that demand's PathNode embeddings) that capture demand
//     constraints — PathNodes of the same demand are not otherwise connected.
//
// Initialization follows §3.2: EdgeNode embeddings start from the link
// capacity, PathNode embeddings from the demand volume (both normalized by
// the mean link capacity). Per §4 the embedding starts at one element and is
// widened by one element after every block, refilled with the initialization
// value (the expressiveness technique of Nair et al.); with the default 6
// blocks the final embeddings have 6 elements.
//
// Everything is implemented with explicit forward caches and hand-written
// backward passes — the model is small enough that a full autograd engine
// would be pure overhead.
#pragma once

#include <vector>

#include "core/shard.h"
#include "nn/module.h"
#include "te/problem.h"

namespace teal::core {

struct FlowGnnConfig {
  int n_blocks = 6;   // GNN+DNN blocks (Fig 15a sweeps 4/6/8/10)
  int final_dim = 0;  // final embedding elements; 0 = n_blocks, the paper's
                      // default of +1 element per layer (Fig 15b sweeps 6/12/24)
  double leaky_alpha = 0.01;
};

// Resolved final embedding dimension for a config.
inline int effective_final_dim(const FlowGnnConfig& cfg) {
  return cfg.final_dim > 0 ? cfg.final_dim : cfg.n_blocks;
}

class FlowGnn {
 public:
  FlowGnn() = default;  // empty shell; assign a properly constructed one

  // The layer shapes depend on k_paths (DNN layers act on k concatenated
  // path embeddings), so construction takes the problem's k.
  FlowGnn(const FlowGnnConfig& cfg, int k_paths, util::Rng& rng);

  // Forward caches double as a reusable workspace: run forward() into the
  // same Forward object repeatedly and every Mat resizes in place, so steady-
  // state passes perform no heap allocation.
  //
  // Precision-parameterized: ForwardT<double> (alias Forward) is the
  // reference/training cache, ForwardT<float> (alias ForwardF) the narrowed
  // f32 inference mirror driven by forward_f32(). Only the f64 cache feeds
  // backward().
  template <typename T>
  struct ForwardT {
    // Per-block caches needed by backward.
    struct Block {
      nn::BasicMat<T> edge_in, path_in;    // block inputs (N_e x d), (N_p x d)
      nn::BasicMat<T> edge_cat, path_cat;  // [self | neighbor mean] inputs to the linears;
                                           // the gathers write the mean half in place
      nn::BasicMat<T> edge_pre, path_pre;  // pre-activations
      nn::BasicMat<T> edge_act, path_act;  // post-activations (edge output of block)
      nn::BasicMat<T> dnn_in, dnn_pre;     // per-demand concat (D x k*d) and pre-act
      nn::BasicMat<T> path_out;            // paths after the DNN layer (N_p x d)
    };
    std::vector<Block> blocks;
    nn::BasicMat<T> edge_feat0, path_feat0;  // initial 1-dim features (for widening)
    nn::BasicMat<T> final_paths;             // (N_p x n_blocks) final path embeddings

    // Scratch reused across blocks (not needed by backward).
    nn::BasicMat<T> dnn_act;                 // DNN-layer activation
    std::vector<double> caps;  // capacity snapshot when none is passed (always f64)
  };
  using Forward = ForwardT<double>;
  using ForwardF = ForwardT<float>;

  // Runs the GNN over the problem structure with the given per-interval
  // inputs, writing into (and reusing) the caller-owned Forward workspace.
  // `capacities` may override the graph's (link failures, §5.3).
  // Uses an auto demand-shard plan (core::auto_shard_count).
  void forward(const te::Problem& pb, const te::TrafficMatrix& tm,
               const std::vector<double>* capacities, Forward& fwd) const;

  // Sharded forward. Each block runs as two fused passes: an edge pass
  // (per-edge aggregation + dense update, the coupled link-level step,
  // parallelized over edge rows) and a demand pass fanned over `shards` —
  // each shard runs the whole path/DNN pipeline for its demand slice
  // [begin, end), writing disjoint rows of the shared Forward workspace.
  // Results are bit-identical for every shard plan; `stats` (optional,
  // shards.n_shards entries) accumulates per-shard busy time.
  void forward(const te::Problem& pb, const te::TrafficMatrix& tm,
               const std::vector<double>* capacities, Forward& fwd,
               const ShardPlan& shards, ShardStat* stats = nullptr) const;

  // Convenience wrapper allocating a fresh Forward per call.
  Forward forward(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* capacities = nullptr) const;

  // Narrowed f32 inference forward over the same sharding contract as the
  // sharded forward() above (identical pass structure; per-shard row writes
  // stay disjoint, reductions sequential — so any shard plan produces
  // bit-identical f32 results too). Requires prepare_f32(); throws
  // std::logic_error otherwise. Mean-capacity normalization is computed in
  // double and narrowed once, so only the per-row NN arithmetic changes
  // precision.
  void forward_f32(const te::Problem& pb, const te::TrafficMatrix& tm,
                   const std::vector<double>* capacities, ForwardF& fwd,
                   const ShardPlan& shards, ShardStat* stats = nullptr) const;

  // Snapshots the current parameters into blocked f32 mirrors for
  // forward_f32(). Not thread-safe against concurrent forwards; call before
  // inference starts and re-call after any parameter update.
  void prepare_f32();
  bool f32_ready() const { return !edge_f32_.empty(); }

  // Backpropagates `grad_final_paths` (same shape as Forward::final_paths),
  // accumulating parameter gradients.
  void backward(const te::Problem& pb, const Forward& fwd, const nn::Mat& grad_final_paths);

  // Workspace backward for batched training: same arithmetic as backward(),
  // with every per-block grad temporary owned by `ws` (allocation-free once
  // warm) and the parameter grads accumulated into `grads` — num_params()
  // entries in params() order — instead of Param::g. const: concurrent
  // calls with distinct ws/grads are safe.
  struct BackwardWs {
    nn::Mat g_path_out, g_edge_out;          // running output grads per block
    nn::Mat g_dnn_act, g_dnn_pre, g_dnn_in;  // DNN-layer backward
    nn::Mat g_path_act, g_path_pre, g_path_cat;
    nn::Mat g_edge_pre, g_edge_cat;
    nn::Mat g_path_in, g_edge_in;            // concat-split self halves
    nn::Mat g_agg_edges, g_agg_paths;        // concat-split aggregation halves
  };
  void backward_ws(const te::Problem& pb, const Forward& fwd,
                   const nn::Mat& grad_final_paths, BackwardWs& ws,
                   nn::GradRefs grads) const;

  std::vector<nn::Param*> params();
  // Appends the same pointers into a caller-reserved vector without the
  // per-layer temporaries params() composition would cost.
  void append_params(std::vector<nn::Param*>& out);
  // Layout of params()/backward_ws grads: per layer-kind blocks of (weight,
  // bias) pairs — edge layers first, then path layers, then DNN layers.
  std::size_t num_params() const {
    return (edge_linear_.size() + path_linear_.size() + dnn_linear_.size()) * 2;
  }

  int final_dim() const { return dims_.empty() ? 0 : dims_.back(); }
  // Working embedding dimension of block l.
  int block_dim(int l) const { return dims_[static_cast<std::size_t>(l)]; }
  const FlowGnnConfig& config() const { return cfg_; }
  int k_paths() const { return k_paths_; }

 private:
  // Fused per-row passes of one block (see forward), generic over the
  // element type T and the layer type Lin (nn::Linear for f64, a blocked
  // nn::PackedLinear for the narrowed path): the edge pass covers edge rows
  // [e_begin, e_end), the demand pass covers demands [d_begin, d_end) —
  // aggregation gather, concat, dense update, activation and widening for
  // the slice, all reading only buffers stable during the block.
  template <typename T, typename Lin>
  void edge_pass_rows(const te::Problem& pb, ForwardT<T>& fwd,
                      const std::vector<Lin>& edge_lin, int l, int e_begin,
                      int e_end) const;
  template <typename T, typename Lin>
  void demand_pass_rows(const te::Problem& pb, ForwardT<T>& fwd,
                        const std::vector<Lin>& path_lin, const std::vector<Lin>& dnn_lin,
                        int l, int d_begin, int d_end) const;
  // Shared body of the f64 and f32 forwards.
  template <typename T, typename Lin>
  void forward_impl(const te::Problem& pb, const te::TrafficMatrix& tm,
                    const std::vector<double>* capacities, ForwardT<T>& fwd,
                    const ShardPlan& shards, ShardStat* stats,
                    const std::vector<Lin>& edge_lin, const std::vector<Lin>& path_lin,
                    const std::vector<Lin>& dnn_lin) const;

  // Backward message-passing transposes.
  void scatter_grad_edges_from_paths(const te::Problem& pb, const nn::Mat& g_agg,
                                     nn::Mat& g_paths) const;
  void scatter_grad_paths_from_edges(const te::Problem& pb, const nn::Mat& g_agg,
                                     nn::Mat& g_edges) const;

  FlowGnnConfig cfg_;
  int k_paths_ = 0;
  // Working dim per block: interpolated from 1 up to effective_final_dim by
  // widening (appending init-value columns) between blocks (§4).
  std::vector<int> dims_;
  // Per block: edge-update, path-update (input 2d -> d) and DNN (k*d -> k*d).
  std::vector<nn::Linear> edge_linear_, path_linear_, dnn_linear_;
  // Narrowed f32 inference mirrors of the same layers, stored as lane-blocked
  // panels (nn::PackedLinear) so the forward runs the broadcast-FMA kernel;
  // empty until prepare_f32().
  std::vector<nn::PackedLinear> edge_f32_, path_f32_, dnn_f32_;
};

}  // namespace teal::core
