#include "core/flow_gnn.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/thread_pool.h"

namespace teal::core {

FlowGnn::FlowGnn(const FlowGnnConfig& cfg, int k_paths, util::Rng& rng)
    : cfg_(cfg), k_paths_(k_paths) {
  if (cfg.n_blocks < 1) throw std::invalid_argument("FlowGnn: n_blocks < 1");
  if (k_paths < 1) throw std::invalid_argument("FlowGnn: k_paths < 1");
  // Working dims interpolate from 1 to the final dimension; with the default
  // final_dim == n_blocks this is exactly the paper's +1-per-layer widening.
  const int final_dim = effective_final_dim(cfg);
  dims_.resize(static_cast<std::size_t>(cfg.n_blocks));
  for (int l = 0; l < cfg.n_blocks; ++l) {
    dims_[static_cast<std::size_t>(l)] =
        cfg.n_blocks == 1
            ? final_dim
            : 1 + static_cast<int>(std::lround(static_cast<double>(l) *
                                               (final_dim - 1) / (cfg.n_blocks - 1)));
  }
  for (int l = 0; l < cfg.n_blocks; ++l) {
    const int d = dims_[static_cast<std::size_t>(l)];
    edge_linear_.emplace_back(2 * d, d, rng);
    path_linear_.emplace_back(2 * d, d, rng);
    dnn_linear_.emplace_back(k_paths * d, k_paths * d, rng);
  }
}

void FlowGnn::prepare_f32() {
  edge_f32_.clear();
  path_f32_.clear();
  dnn_f32_.clear();
  edge_f32_.reserve(edge_linear_.size());
  path_f32_.reserve(path_linear_.size());
  dnn_f32_.reserve(dnn_linear_.size());
  for (const auto& l : edge_linear_) edge_f32_.push_back(l.snapshot_packed_f32());
  for (const auto& l : path_linear_) path_f32_.push_back(l.snapshot_packed_f32());
  for (const auto& l : dnn_linear_) dnn_f32_.push_back(l.snapshot_packed_f32());
}

void FlowGnn::prepare_bf16() {
  edge_bf16_.clear();
  path_bf16_.clear();
  dnn_bf16_.clear();
  edge_bf16_.reserve(edge_linear_.size());
  path_bf16_.reserve(path_linear_.size());
  dnn_bf16_.reserve(dnn_linear_.size());
  for (const auto& l : edge_linear_) edge_bf16_.push_back(l.snapshot_bf16());
  for (const auto& l : path_linear_) path_bf16_.push_back(l.snapshot_bf16());
  for (const auto& l : dnn_linear_) dnn_bf16_.push_back(l.snapshot_bf16());
}

namespace {
// Widens `m` to `target` columns by appending copies of the 1-dim init
// feature (§4's expressiveness technique). `out` must not alias `m`.
template <typename T>
void widen_into(const nn::BasicMat<T>& m, const nn::BasicMat<T>& feat0, int target,
                nn::BasicMat<T>& out) {
  out.resize(m.rows(), target);
  for (int r = 0; r < m.rows(); ++r) {
    std::copy(m.row_ptr(r), m.row_ptr(r) + m.cols(), out.row_ptr(r));
    for (int c = m.cols(); c < target; ++c) out.at(r, c) = feat0.at(r, 0);
  }
}

// Row body of widen_into for sharded callers; `out` must be pre-sized.
template <typename T>
inline void widen_row(const nn::BasicMat<T>& m, const nn::BasicMat<T>& feat0, int r,
                      nn::BasicMat<T>& out) {
  const int target = out.cols();
  std::copy(m.row_ptr(r), m.row_ptr(r) + m.cols(), out.row_ptr(r));
  for (int c = m.cols(); c < target; ++c) out.at(r, c) = feat0.at(r, 0);
}

// Mean over a neighbor list into one output row, for a width fixed at
// compile time: each column accumulates in a register, in list order, and is
// scaled once — per column the same additions and multiplication as the
// runtime-width loop below, so both produce identical bits.
template <int D, typename T, typename List>
inline void mean_gather_fixed(const nn::BasicMat<T>& src, const List& neighbors, T* out) {
  if (neighbors.empty()) {
    for (int c = 0; c < D; ++c) out[c] = T(0);
    return;
  }
  T acc[D] = {};
  for (auto n : neighbors) {
    const T* nr = src.row_ptr(static_cast<int>(n));
    for (int c = 0; c < D; ++c) acc[c] += nr[c];
  }
  const T inv = T(1) / static_cast<T>(neighbors.size());
  for (int c = 0; c < D; ++c) out[c] = acc[c] * inv;
}

// Mean over a neighbor list into one pre-sized output row of width d.
// Accumulation order follows the list, so any row partition is
// bit-identical. Widths up to 8 (every default-config block) take the
// fixed-width body; wider configs (Fig 15b) accumulate through `out`.
template <typename T, typename List>
inline void mean_gather_row(const nn::BasicMat<T>& src, const List& neighbors, T* out,
                            int d) {
  switch (d) {
    case 1: return mean_gather_fixed<1>(src, neighbors, out);
    case 2: return mean_gather_fixed<2>(src, neighbors, out);
    case 3: return mean_gather_fixed<3>(src, neighbors, out);
    case 4: return mean_gather_fixed<4>(src, neighbors, out);
    case 5: return mean_gather_fixed<5>(src, neighbors, out);
    case 6: return mean_gather_fixed<6>(src, neighbors, out);
    case 7: return mean_gather_fixed<7>(src, neighbors, out);
    case 8: return mean_gather_fixed<8>(src, neighbors, out);
    default: break;
  }
  for (int c = 0; c < d; ++c) out[c] = T(0);
  if (neighbors.empty()) return;
  for (auto n : neighbors) {
    const T* nr = src.row_ptr(static_cast<int>(n));
    for (int c = 0; c < d; ++c) out[c] += nr[c];
  }
  const T inv = T(1) / static_cast<T>(neighbors.size());
  for (int c = 0; c < d; ++c) out[c] *= inv;
}

// GNN-layer input row r = [self row r | mean of the neighbors' rows],
// gathered straight into the concat matrix `cat` (pre-sized, 2d wide).
template <typename T, typename List>
inline void self_and_mean_row(const nn::BasicMat<T>& self, const nn::BasicMat<T>& src,
                              const List& neighbors, int r, int d, nn::BasicMat<T>& cat) {
  T* out = cat.row_ptr(r);
  std::copy(self.row_ptr(r), self.row_ptr(r) + d, out);
  mean_gather_row(src, neighbors, out + d, d);
}
}  // namespace

void FlowGnn::scatter_grad_edges_from_paths(const te::Problem& pb, const nn::Mat& g_agg,
                                            nn::Mat& g_paths) const {
  // Transpose of aggregate_paths_to_edges: each path on edge e receives
  // g_agg(e) / |paths_on_edge(e)|. Parallelized over paths (gather form) to
  // stay race-free.
  const int np = pb.total_paths();
  const int d = g_agg.cols();
  util::ThreadPool::global().parallel_chunks(
      static_cast<std::size_t>(np), [&](std::size_t b, std::size_t e) {
        for (std::size_t pi = b; pi < e; ++pi) {
          double* out = g_paths.row_ptr(static_cast<int>(pi));
          for (topo::EdgeId ei : pb.path_edges(static_cast<int>(pi))) {
            const auto cnt = static_cast<double>(pb.paths_on_edge(ei).size());
            const double* gr = g_agg.row_ptr(ei);
            for (int c = 0; c < d; ++c) out[c] += gr[c] / cnt;
          }
        }
      });
}

void FlowGnn::scatter_grad_paths_from_edges(const te::Problem& pb, const nn::Mat& g_agg,
                                            nn::Mat& g_edges) const {
  const int ne = pb.graph().num_edges();
  const int d = g_agg.cols();
  util::ThreadPool::global().parallel_chunks(
      static_cast<std::size_t>(ne), [&](std::size_t b, std::size_t e) {
        for (std::size_t ei = b; ei < e; ++ei) {
          double* out = g_edges.row_ptr(static_cast<int>(ei));
          // Gather from each path traversing this edge: that path's agg
          // divided by the path's own edge count.
          for (int p : pb.paths_on_edge(static_cast<topo::EdgeId>(ei))) {
            const auto cnt = static_cast<double>(pb.path_edges(p).size());
            const double* gr = g_agg.row_ptr(p);
            for (int c = 0; c < d; ++c) out[c] += gr[c] / cnt;
          }
        }
      });
}

template <typename T, typename Lin>
void FlowGnn::edge_pass_rows(const te::Problem& pb, ForwardT<T>& fwd,
                             const std::vector<Lin>& edge_lin, int l, int e_begin,
                             int e_end) const {
  // Fused edge side of block l for rows [e_begin, e_end): bipartite
  // aggregation gather (the coupled link-level step — it reads *all* path
  // rows of the block input, which is why blocks need a barrier), concat,
  // dense update, activation and widening toward the next block. Every
  // write lands in this slice's rows only.
  auto& blk = fwd.blocks[static_cast<std::size_t>(l)];
  const int d = dims_[static_cast<std::size_t>(l)];
  const auto& lin = edge_lin[static_cast<std::size_t>(l)];
  const bool last = l + 1 >= cfg_.n_blocks;
  nn::BasicMat<T>* next_in =
      last ? nullptr : &fwd.blocks[static_cast<std::size_t>(l) + 1].edge_in;
  for (int e = e_begin; e < e_end; ++e) {
    self_and_mean_row(blk.edge_in, blk.path_in, pb.paths_on_edge(static_cast<topo::EdgeId>(e)),
                      e, d, blk.edge_cat);
  }
  lin.forward_rows(blk.edge_cat, blk.edge_pre, e_begin, e_end);
  nn::leaky_relu_forward_rows(blk.edge_pre, blk.edge_act, e_begin, e_end, cfg_.leaky_alpha);
  if (next_in != nullptr) {
    for (int e = e_begin; e < e_end; ++e) widen_row(blk.edge_act, fwd.edge_feat0, e, *next_in);
  }
}

template <typename T, typename Lin>
void FlowGnn::demand_pass_rows(const te::Problem& pb, ForwardT<T>& fwd,
                               const std::vector<Lin>& path_lin,
                               const std::vector<Lin>& dnn_lin, int l, int d_begin,
                               int d_end) const {
  // Fused demand side of block l for demands [d_begin, d_end): per-path
  // aggregation/dense update, then the per-demand DNN layer, then widening
  // (or the final-embedding copy). Paths of a demand are contiguous, so the
  // slice touches only its own rows of every matrix.
  auto& blk = fwd.blocks[static_cast<std::size_t>(l)];
  const int d = dims_[static_cast<std::size_t>(l)];
  const int k = k_paths_;
  const auto& p_lin = path_lin[static_cast<std::size_t>(l)];
  const auto& dnn = dnn_lin[static_cast<std::size_t>(l)];
  const bool last = l + 1 >= cfg_.n_blocks;
  nn::BasicMat<T>* next_in =
      last ? nullptr : &fwd.blocks[static_cast<std::size_t>(l) + 1].path_in;
  if (d_begin >= d_end) return;
  // The slice's paths are contiguous (demands own contiguous path ranges),
  // so every dense kernel runs once over the whole slice.
  const int p_begin = pb.path_begin(d_begin);
  const int p_end = pb.path_end(d_end - 1);
  // --- GNN layer, path side.
  for (int p = p_begin; p < p_end; ++p) {
    self_and_mean_row(blk.path_in, blk.edge_in, pb.path_edges(p), p, d, blk.path_cat);
  }
  p_lin.forward_rows(blk.path_cat, blk.path_pre, p_begin, p_end);
  nn::leaky_relu_forward_rows(blk.path_pre, blk.path_act, p_begin, p_end, cfg_.leaky_alpha);
  // --- DNN layer: coordinate the k paths of each demand. Demands with
  // fewer than k paths keep zero padding in their trailing slots.
  for (int dem = d_begin; dem < d_end; ++dem) {
    T* row = blk.dnn_in.row_ptr(dem);
    std::fill(row, row + k * d, T(0));
    int slot = 0;
    for (int p = pb.path_begin(dem); p < pb.path_end(dem); ++p, ++slot) {
      std::copy(blk.path_act.row_ptr(p), blk.path_act.row_ptr(p) + d, row + slot * d);
    }
  }
  dnn.forward_rows(blk.dnn_in, blk.dnn_pre, d_begin, d_end);
  nn::leaky_relu_forward_rows(blk.dnn_pre, fwd.dnn_act, d_begin, d_end, cfg_.leaky_alpha);
  for (int dem = d_begin; dem < d_end; ++dem) {
    const T* act = fwd.dnn_act.row_ptr(dem);
    int slot = 0;
    for (int p = pb.path_begin(dem); p < pb.path_end(dem); ++p, ++slot) {
      std::copy(act + slot * d, act + (slot + 1) * d, blk.path_out.row_ptr(p));
    }
  }
  // --- Widen toward the next block's dimension, refilled with the
  // initialization value (§4), or copy out the final embeddings.
  for (int p = p_begin; p < p_end; ++p) {
    if (next_in != nullptr) {
      widen_row(blk.path_out, fwd.path_feat0, p, *next_in);
    } else {
      std::copy(blk.path_out.row_ptr(p), blk.path_out.row_ptr(p) + d,
                fwd.final_paths.row_ptr(p));
    }
  }
}

template <typename T, typename Lin>
void FlowGnn::forward_impl(const te::Problem& pb, const te::TrafficMatrix& tm,
                           const std::vector<double>* capacities, ForwardT<T>& fwd,
                           const ShardPlan& shards, ShardStat* stats,
                           const std::vector<Lin>& edge_lin,
                           const std::vector<Lin>& path_lin,
                           const std::vector<Lin>& dnn_lin) const {
  const int ne = pb.graph().num_edges();
  const int np = pb.total_paths();
  const int nd = pb.num_demands();
  const int k = k_paths_;

  fwd.blocks.resize(static_cast<std::size_t>(cfg_.n_blocks));

  // Initial 1-dim features, normalized by the mean link capacity so both
  // entities live on comparable scales (§3.2). The mean is a cross-demand
  // reduction, computed sequentially — and always in double, even on the
  // f32 path — so every shard plan sees identical bits and the narrowed
  // path loses precision only in the per-row NN arithmetic.
  if (capacities == nullptr) {
    pb.capacities_into(fwd.caps);
    capacities = &fwd.caps;
  }
  const std::vector<double>& caps = *capacities;
  double mean_cap = 1e-9;
  for (double c : caps) mean_cap += c;
  mean_cap /= std::max<std::size_t>(1, caps.size());
  fwd.edge_feat0.resize(ne, 1);
  for (int e = 0; e < ne; ++e) {
    fwd.edge_feat0.at(e, 0) = static_cast<T>(caps[static_cast<std::size_t>(e)] / mean_cap);
  }
  fwd.path_feat0.resize(np, 1);
  for (int p = 0; p < np; ++p) {
    fwd.path_feat0.at(p, 0) = static_cast<T>(
        tm.volume[static_cast<std::size_t>(pb.demand_of_path(p))] / mean_cap);
  }

  widen_into(fwd.edge_feat0, fwd.edge_feat0, dims_[0], fwd.blocks[0].edge_in);
  widen_into(fwd.path_feat0, fwd.path_feat0, dims_[0], fwd.blocks[0].path_in);

  for (int l = 0; l < cfg_.n_blocks; ++l) {
    auto& blk = fwd.blocks[static_cast<std::size_t>(l)];
    const int d = dims_[static_cast<std::size_t>(l)];

    // Size every buffer of the block before fanning out — resize must never
    // run concurrently, and pre-sizing keeps warm passes allocation-free
    // exactly as before.
    blk.edge_cat.resize(ne, 2 * d);
    blk.path_cat.resize(np, 2 * d);
    blk.edge_pre.resize(ne, d);
    blk.path_pre.resize(np, d);
    blk.edge_act.resize(ne, d);
    blk.path_act.resize(np, d);
    blk.dnn_in.resize(nd, k * d);
    blk.dnn_pre.resize(nd, k * d);
    fwd.dnn_act.resize(nd, k * d);
    blk.path_out.resize(np, d);
    if (l + 1 < cfg_.n_blocks) {
      const int next = dims_[static_cast<std::size_t>(l) + 1];
      auto& nxt = fwd.blocks[static_cast<std::size_t>(l) + 1];
      nxt.edge_in.resize(ne, next);
      nxt.path_in.resize(np, next);
    } else {
      fwd.final_paths.resize(np, d);
    }

    // Edge pass (coupled link-level step): parallel over edge rows through
    // the pool — deterministic per row, so identical under any chunking.
    util::ThreadPool::global().parallel_chunks(
        static_cast<std::size_t>(ne), [&](std::size_t b, std::size_t e) {
          edge_pass_rows(pb, fwd, edge_lin, l, static_cast<int>(b), static_cast<int>(e));
        });
    // Demand pass: fanned over the shard plan, each shard writing its own
    // demand slice of the shared workspace.
    run_sharded(shards, stats, [&](int /*shard*/, int d0, int d1) {
      demand_pass_rows(pb, fwd, path_lin, dnn_lin, l, d0, d1);
    });
  }
}

void FlowGnn::forward(const te::Problem& pb, const te::TrafficMatrix& tm,
                      const std::vector<double>* capacities, Forward& fwd,
                      const ShardPlan& shards, ShardStat* stats) const {
  forward_impl(pb, tm, capacities, fwd, shards, stats, edge_linear_, path_linear_,
               dnn_linear_);
}

void FlowGnn::forward_f32(const te::Problem& pb, const te::TrafficMatrix& tm,
                          const std::vector<double>* capacities, ForwardF& fwd,
                          const ShardPlan& shards, ShardStat* stats) const {
  if (!f32_ready()) {
    throw std::logic_error(
        "FlowGnn::forward_f32: prepare_f32() has not been called (use "
        "TealScheme::set_precision, which snapshots the weights)");
  }
  forward_impl(pb, tm, capacities, fwd, shards, stats, edge_f32_, path_f32_, dnn_f32_);
}

void FlowGnn::forward_bf16(const te::Problem& pb, const te::TrafficMatrix& tm,
                           const std::vector<double>* capacities, ForwardF& fwd,
                           const ShardPlan& shards, ShardStat* stats) const {
  if (!bf16_ready()) {
    throw std::logic_error(
        "FlowGnn::forward_bf16: prepare_bf16() has not been called (use "
        "TealScheme::set_precision, which snapshots the weights)");
  }
  forward_impl(pb, tm, capacities, fwd, shards, stats, edge_bf16_, path_bf16_, dnn_bf16_);
}

void FlowGnn::forward(const te::Problem& pb, const te::TrafficMatrix& tm,
                      const std::vector<double>* capacities, Forward& fwd) const {
  forward(pb, tm, capacities, fwd,
          ShardPlan::make(pb.num_demands(),
                          auto_shard_count(pb.num_demands(), pb.total_paths())));
}

FlowGnn::Forward FlowGnn::forward(const te::Problem& pb, const te::TrafficMatrix& tm,
                                  const std::vector<double>* capacities) const {
  Forward fwd;
  forward(pb, tm, capacities, fwd);
  return fwd;
}

void FlowGnn::backward(const te::Problem& pb, const Forward& fwd,
                       const nn::Mat& grad_final_paths) {
  const int ne = pb.graph().num_edges();
  const int np = pb.total_paths();
  const int nd = pb.num_demands();
  const int k = k_paths_;

  nn::Mat g_path_out = grad_final_paths;            // d(loss)/d(block path_out)
  nn::Mat g_edge_out(ne, dims_.back());             // last block's edge output unused

  for (int l = cfg_.n_blocks - 1; l >= 0; --l) {
    const auto& blk = fwd.blocks[static_cast<std::size_t>(l)];
    const int d = dims_[static_cast<std::size_t>(l)];

    // --- DNN layer backward.
    nn::Mat g_dnn_act(nd, k * d);
    for (int dem = 0; dem < nd; ++dem) {
      double* row = g_dnn_act.row_ptr(dem);
      int slot = 0;
      for (int p = pb.path_begin(dem); p < pb.path_end(dem); ++p, ++slot) {
        std::copy(g_path_out.row_ptr(p), g_path_out.row_ptr(p) + d, row + slot * d);
      }
    }
    nn::Mat g_dnn_pre, g_dnn_in;
    nn::leaky_relu_backward(blk.dnn_pre, g_dnn_act, g_dnn_pre, cfg_.leaky_alpha);
    dnn_linear_[static_cast<std::size_t>(l)].backward(blk.dnn_in, g_dnn_pre, g_dnn_in);
    nn::Mat g_path_act(np, d);
    for (int dem = 0; dem < nd; ++dem) {
      const double* row = g_dnn_in.row_ptr(dem);
      int slot = 0;
      for (int p = pb.path_begin(dem); p < pb.path_end(dem); ++p, ++slot) {
        std::copy(row + slot * d, row + (slot + 1) * d, g_path_act.row_ptr(p));
      }
    }

    // --- GNN layer backward (edge and path updates are independent given the
    // block inputs, because message passing is synchronous).
    nn::Mat g_path_pre, g_path_cat;
    nn::leaky_relu_backward(blk.path_pre, g_path_act, g_path_pre, cfg_.leaky_alpha);
    path_linear_[static_cast<std::size_t>(l)].backward(blk.path_cat, g_path_pre, g_path_cat);

    nn::Mat g_edge_pre, g_edge_cat;
    nn::leaky_relu_backward(blk.edge_pre, g_edge_out, g_edge_pre, cfg_.leaky_alpha);
    edge_linear_[static_cast<std::size_t>(l)].backward(blk.edge_cat, g_edge_pre, g_edge_cat);

    // Split the concat grads: [self | agg].
    nn::Mat g_path_in(np, d), g_edge_in(ne, d);
    nn::Mat g_agg_edges(np, d);  // grad of aggregate_edges_to_paths output
    for (int p = 0; p < np; ++p) {
      const double* src = g_path_cat.row_ptr(p);
      std::copy(src, src + d, g_path_in.row_ptr(p));
      std::copy(src + d, src + 2 * d, g_agg_edges.row_ptr(p));
    }
    nn::Mat g_agg_paths(ne, d);  // grad of aggregate_paths_to_edges output
    for (int e = 0; e < ne; ++e) {
      const double* src = g_edge_cat.row_ptr(e);
      std::copy(src, src + d, g_edge_in.row_ptr(e));
      std::copy(src + d, src + 2 * d, g_agg_paths.row_ptr(e));
    }
    // Aggregation transposes.
    scatter_grad_paths_from_edges(pb, g_agg_edges, g_edge_in);
    scatter_grad_edges_from_paths(pb, g_agg_paths, g_path_in);

    // --- Widening backward: the previous block's outputs are the leading
    // columns of this block's inputs (appended init columns are constants).
    if (l > 0) {
      const int prev = dims_[static_cast<std::size_t>(l) - 1];
      g_path_out = nn::Mat(np, prev);
      for (int p = 0; p < np; ++p) {
        std::copy(g_path_in.row_ptr(p), g_path_in.row_ptr(p) + prev, g_path_out.row_ptr(p));
      }
      g_edge_out = nn::Mat(ne, prev);
      for (int e = 0; e < ne; ++e) {
        std::copy(g_edge_in.row_ptr(e), g_edge_in.row_ptr(e) + prev, g_edge_out.row_ptr(e));
      }
    }
  }
}

void FlowGnn::backward_ws(const te::Problem& pb, const Forward& fwd,
                          const nn::Mat& grad_final_paths, BackwardWs& ws,
                          nn::GradRefs grads) const {
  if (grads.size() != num_params()) {
    throw std::invalid_argument("FlowGnn::backward_ws: grads size mismatch");
  }
  const int ne = pb.graph().num_edges();
  const int np = pb.total_paths();
  const int nd = pb.num_demands();
  const int k = k_paths_;
  const std::size_t n_layers = edge_linear_.size();
  // (weight, bias) accumulator pair of layer l within a layer-kind block.
  auto pair_of = [&](std::size_t block, std::size_t l) {
    return std::pair<nn::Mat&, nn::Mat&>(*grads[(block * n_layers + l) * 2],
                                         *grads[(block * n_layers + l) * 2 + 1]);
  };

  ws.g_path_out.resize(np, grad_final_paths.cols());
  std::copy(grad_final_paths.data().begin(), grad_final_paths.data().end(),
            ws.g_path_out.data().begin());
  ws.g_edge_out.resize(ne, dims_.back());
  ws.g_edge_out.zero();  // the last block's edge output feeds nothing

  for (int l = cfg_.n_blocks - 1; l >= 0; --l) {
    const auto& blk = fwd.blocks[static_cast<std::size_t>(l)];
    const int d = dims_[static_cast<std::size_t>(l)];
    const auto ls = static_cast<std::size_t>(l);

    // --- DNN layer backward. Demands with fewer than k paths leave their
    // trailing slots untouched, so the gather buffer must start zeroed.
    ws.g_dnn_act.resize(nd, k * d);
    ws.g_dnn_act.zero();
    for (int dem = 0; dem < nd; ++dem) {
      double* row = ws.g_dnn_act.row_ptr(dem);
      int slot = 0;
      for (int p = pb.path_begin(dem); p < pb.path_end(dem); ++p, ++slot) {
        std::copy(ws.g_path_out.row_ptr(p), ws.g_path_out.row_ptr(p) + d, row + slot * d);
      }
    }
    nn::leaky_relu_backward(blk.dnn_pre, ws.g_dnn_act, ws.g_dnn_pre, cfg_.leaky_alpha);
    {
      auto [gw, gb] = pair_of(2, ls);
      dnn_linear_[ls].backward_acc(blk.dnn_in, ws.g_dnn_pre, ws.g_dnn_in, gw, gb);
    }
    ws.g_path_act.resize(np, d);
    ws.g_path_act.zero();
    for (int dem = 0; dem < nd; ++dem) {
      const double* row = ws.g_dnn_in.row_ptr(dem);
      int slot = 0;
      for (int p = pb.path_begin(dem); p < pb.path_end(dem); ++p, ++slot) {
        std::copy(row + slot * d, row + (slot + 1) * d, ws.g_path_act.row_ptr(p));
      }
    }

    // --- GNN layer backward (edge and path updates independent given the
    // block inputs, exactly as in backward()).
    nn::leaky_relu_backward(blk.path_pre, ws.g_path_act, ws.g_path_pre, cfg_.leaky_alpha);
    {
      auto [gw, gb] = pair_of(1, ls);
      path_linear_[ls].backward_acc(blk.path_cat, ws.g_path_pre, ws.g_path_cat, gw, gb);
    }
    nn::leaky_relu_backward(blk.edge_pre, ws.g_edge_out, ws.g_edge_pre, cfg_.leaky_alpha);
    {
      auto [gw, gb] = pair_of(0, ls);
      edge_linear_[ls].backward_acc(blk.edge_cat, ws.g_edge_pre, ws.g_edge_cat, gw, gb);
    }

    // Split the concat grads: [self | agg].
    ws.g_path_in.resize(np, d);
    ws.g_agg_edges.resize(np, d);
    for (int p = 0; p < np; ++p) {
      const double* src = ws.g_path_cat.row_ptr(p);
      std::copy(src, src + d, ws.g_path_in.row_ptr(p));
      std::copy(src + d, src + 2 * d, ws.g_agg_edges.row_ptr(p));
    }
    ws.g_edge_in.resize(ne, d);
    ws.g_agg_paths.resize(ne, d);
    for (int e = 0; e < ne; ++e) {
      const double* src = ws.g_edge_cat.row_ptr(e);
      std::copy(src, src + d, ws.g_edge_in.row_ptr(e));
      std::copy(src + d, src + 2 * d, ws.g_agg_paths.row_ptr(e));
    }
    // Aggregation transposes (accumulate on top of the self halves).
    scatter_grad_paths_from_edges(pb, ws.g_agg_edges, ws.g_edge_in);
    scatter_grad_edges_from_paths(pb, ws.g_agg_paths, ws.g_path_in);

    // --- Widening backward: the previous block's outputs are the leading
    // columns of this block's inputs (appended init columns are constants).
    if (l > 0) {
      const int prev = dims_[ls - 1];
      ws.g_path_out.resize(np, prev);
      for (int p = 0; p < np; ++p) {
        std::copy(ws.g_path_in.row_ptr(p), ws.g_path_in.row_ptr(p) + prev,
                  ws.g_path_out.row_ptr(p));
      }
      ws.g_edge_out.resize(ne, prev);
      for (int e = 0; e < ne; ++e) {
        std::copy(ws.g_edge_in.row_ptr(e), ws.g_edge_in.row_ptr(e) + prev,
                  ws.g_edge_out.row_ptr(e));
      }
    }
  }
}

std::vector<nn::Param*> FlowGnn::params() {
  std::vector<nn::Param*> ps;
  ps.reserve(num_params());
  append_params(ps);
  return ps;
}

void FlowGnn::append_params(std::vector<nn::Param*>& out) {
  for (auto& l : edge_linear_) l.append_params(out);
  for (auto& l : path_linear_) l.append_params(out);
  for (auto& l : dnn_linear_) l.append_params(out);
}

}  // namespace teal::core
