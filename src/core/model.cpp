#include "core/model.h"

namespace teal::core {

TealModel::TealModel(const TealModelConfig& cfg, int k_paths, std::uint64_t seed)
    : cfg_(cfg), k_(k_paths), init_rng_(seed),
      gnn_(cfg.gnn, k_paths, init_rng_),
      policy_(cfg.policy, k_paths * effective_final_dim(cfg.gnn), k_paths, init_rng_) {}

void TealModel::run_pipeline(const te::Problem& pb, const te::TrafficMatrix& tm,
                             const std::vector<double>* capacities, Forward& fwd,
                             const ShardPlan& shards, ShardStat* stats) const {
  gnn_.forward(pb, tm, capacities, fwd.gnn, shards, stats);
  // Size the policy buffers on this thread, then run policy-input assembly
  // and the policy network as one fused per-demand pass.
  const int nd = pb.num_demands();
  fwd.policy.input.resize(nd, k_ * fwd.gnn.final_paths.cols());
  fwd.mask.resize(nd, k_);
  policy_.prepare_forward(fwd.policy);
  run_sharded(shards, stats, [&](int /*shard*/, int d0, int d1) {
    build_policy_input_rows(pb, fwd.gnn.final_paths, k_, fwd.policy.input, fwd.mask, d0, d1);
    policy_.forward_rows(fwd.policy, d0, d1);
  });
}

void TealModel::prepare(te::Precision p) {
  if (p == te::Precision::f32) {
    gnn_.prepare_f32();
    policy_.prepare_f32();
  }
}

void TealModel::forward_ws_narrowed(const te::Problem& pb, const te::TrafficMatrix& tm,
                                    const std::vector<double>* capacities, ModelForward& out,
                                    const ShardPlan& shards, ShardStat* stats) const {
  // Same cache-reuse contract as the f64 path, under the narrowed owner tag
  // (a narrowed cache is a ForwardF32; the f64 path must never reinterpret
  // it).
  auto* typed = &claim_cache<ForwardF32>(out, &f32_owner_tag_);
  gnn_.forward_f32(pb, tm, capacities, typed->gnn, shards, stats);
  // Fused per-demand tail: input assembly (float), policy forward (float),
  // and the logit widening back to the caller's f64 matrices — each shard
  // touches only its own demand rows, so the fan-out stays race-free.
  const int nd = pb.num_demands();
  typed->policy.input.resize(nd, k_ * typed->gnn.final_paths.cols());
  out.mask.resize(nd, k_);
  policy_.prepare_forward(typed->policy);
  out.logits.resize(nd, k_);
  run_sharded(shards, stats, [&](int /*shard*/, int d0, int d1) {
    build_policy_input_rows(pb, typed->gnn.final_paths, k_, typed->policy.input, out.mask,
                            d0, d1);
    policy_.forward_rows(typed->policy, d0, d1);
    for (int d = d0; d < d1; ++d) {
      const float* lr = typed->policy.logits.row_ptr(d);
      double* outr = out.logits.row_ptr(d);
      for (int c = 0; c < k_; ++c) outr[c] = static_cast<double>(lr[c]);
    }
  });
}

void TealModel::forward(const te::Problem& pb, const te::TrafficMatrix& tm,
                        const std::vector<double>* capacities, Forward& fwd) const {
  const int nd = pb.num_demands();
  run_pipeline(pb, tm, capacities, fwd,
               ShardPlan::make(nd, auto_shard_count(nd, pb.total_paths())));
  fwd.logits = fwd.policy.logits;
}

TealModel::Forward TealModel::forward(const te::Problem& pb, const te::TrafficMatrix& tm,
                                      const std::vector<double>* capacities) const {
  Forward fwd;
  forward(pb, tm, capacities, fwd);
  return fwd;
}

void TealModel::backward(const te::Problem& pb, const Forward& fwd,
                         const nn::Mat& grad_logits) {
  nn::Mat grad_input;
  policy_.backward(fwd.policy, grad_logits, grad_input);
  nn::Mat grad_paths(pb.total_paths(), gnn_.final_dim());
  scatter_policy_input_grad(pb, grad_input, k_, gnn_.final_dim(), grad_paths);
  gnn_.backward(pb, fwd.gnn, grad_paths);
}

std::vector<nn::Param*> TealModel::params() {
  std::vector<nn::Param*> ps;
  ps.reserve(gnn_.num_params() + policy_.num_params());
  gnn_.append_params(ps);
  policy_.append_params(ps);
  return ps;
}

void TealModel::forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                           const std::vector<double>* capacities, ModelForward& out,
                           const ShardPlan& shards, ShardStat* stats,
                           te::Precision precision) const {
  if (precision != te::Precision::f64) {
    forward_ws_narrowed(pb, tm, capacities, out, shards, stats);
    return;
  }
  Forward& typed = claim_cache<Forward>(out, this);
  // run_pipeline (not forward) to skip the typed-API Forward::logits copy:
  // the solve path reads logits from the ModelForward only.
  run_pipeline(pb, tm, capacities, typed, shards, stats);
  out.logits = typed.policy.logits;  // capacity-reusing copies
  out.mask = typed.mask;
}

void TealModel::backward_ws(const te::Problem& pb, const ModelForward& fwd,
                            const nn::Mat& grad_logits, TrainBackward& bws,
                            nn::GradRefs grads) const {
  const auto& typed = owned_cache<Forward>(fwd, this, "TealModel::backward_ws");
  if (grads.size() != gnn_.num_params() + policy_.num_params()) {
    throw std::invalid_argument("TealModel::backward_ws: grads size mismatch");
  }
  auto& ws = claim_cache<BackwardCache>(bws, this);
  policy_.backward_ws(typed.policy, grad_logits, ws.policy, ws.grad_input,
                      grads.subspan(gnn_.num_params()));
  ws.grad_paths.resize(pb.total_paths(), gnn_.final_dim());
  ws.grad_paths.zero();  // scatter accumulates per path slot
  scatter_policy_input_grad(pb, ws.grad_input, k_, gnn_.final_dim(), ws.grad_paths);
  gnn_.backward_ws(pb, typed.gnn, ws.grad_paths, ws.gnn,
                   grads.subspan(0, gnn_.num_params()));
}

nn::Mat splits_from_logits(const nn::Mat& logits, const nn::Mat& mask) {
  nn::Mat splits;
  nn::softmax_rows(logits, mask, splits);
  return splits;
}

te::Allocation allocation_from_splits(const te::Problem& pb, const nn::Mat& splits) {
  te::Allocation a;
  allocation_from_splits_into(pb, splits, a);
  return a;
}

void allocation_from_splits_into(const te::Problem& pb, const nn::Mat& splits,
                                 te::Allocation& a) {
  a.split.resize(static_cast<std::size_t>(pb.total_paths()));
  allocation_from_splits_rows(pb, splits, a, 0, pb.num_demands());
}

void allocation_from_splits_rows(const te::Problem& pb, const nn::Mat& splits,
                                 te::Allocation& a, int d_begin, int d_end) {
  for (int d = d_begin; d < d_end; ++d) {
    int slot = 0;
    for (int p = pb.path_begin(d); p < pb.path_end(d); ++p, ++slot) {
      a.split[static_cast<std::size_t>(p)] =
          slot < splits.cols() ? splits.at(d, slot) : 0.0;
    }
  }
}

}  // namespace teal::core
