#include "core/direct_loss.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "core/train_context.h"
#include "lp/path_lp.h"
#include "util/alloc_hook.h"

namespace teal::core {

DirectLossStats train_direct_loss(Model& model, const te::Problem& pb,
                                  const traffic::Trace& train, te::Objective obj,
                                  const DirectLossConfig& cfg) {
  if (obj == te::Objective::kMinMaxLinkUtil) {
    // The surrogate is defined for flow objectives (Appendix A); identifying
    // one for MLU is exactly the difficulty §3.3 cites.
    throw std::invalid_argument("train_direct_loss: no surrogate defined for MLU");
  }
  const int k = model.k_paths();
  const int nd = pb.num_demands();
  nn::Adam adam(model.params(), cfg.lr);
  const std::vector<double> caps = pb.capacities();
  std::vector<double> weight(static_cast<std::size_t>(pb.total_paths()), 1.0);
  if (obj == te::Objective::kLatencyPenalizedFlow) {
    weight = lp::latency_penalty_weights(pb, cfg.latency_penalty);
  }

  TrainContext ctx;
  ctx.prepare(model, cfg.rollout_batch, cfg.workers);
  const int batch = ctx.rollout_batch();
  // Axis composition, same rule as the COMA trainer: concurrent rollouts run
  // sequential inners; a lone rollout fans its per-demand stages over the
  // idle pool. Bit-identical either way (disjoint rows, no randomness).
  const ShardPlan inner_auto =
      ShardPlan::make(nd, auto_shard_count(nd, pb.total_paths()));
  const ShardPlan inner_seq = ShardPlan::sequential(nd);

  DirectLossStats stats;
  int step_index = 0;
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    double surrogate_sum = 0.0;
    for (int t0 = 0; t0 < train.size(); t0 += batch) {
      const int n_active = std::min(batch, train.size() - t0);
      const ShardPlan& plan = ctx.chunks_for(n_active) > 1 ? inner_seq : inner_auto;
      util::AllocCounter step_allocs;

      adam.zero_grad();
      ctx.for_slots(n_active, [&](int s, int chunk) {
        const int t = t0 + s;
        const te::TrafficMatrix& tm = train.at(t);
        auto& slot = ctx.slot(s);

        model.forward_ws(pb, tm, &caps, slot.ws.fwd, plan, nullptr);
        const nn::Mat& logits = slot.ws.fwd.logits;
        const nn::Mat& mask = slot.ws.fwd.mask;

        // Splits + flat allocation, fused per demand slice.
        slot.ws.splits.resize(nd, k);
        slot.alloc.split.resize(static_cast<std::size_t>(pb.total_paths()));
        run_sharded(plan, nullptr, [&](int /*shard*/, int d0, int d1) {
          nn::softmax_rows_range(logits, mask, slot.ws.splits, d0, d1);
          allocation_from_splits_rows(pb, slot.ws.splits, slot.alloc, d0, d1);
        });

        // Intended loads + violated-edge indicator (cross-demand reductions,
        // sequential on the rollout's thread).
        te::edge_loads_into(pb, tm, slot.alloc, slot.load);
        slot.violated.assign(slot.load.size(), 0);
        for (std::size_t e = 0; e < slot.load.size(); ++e) {
          slot.violated[e] = slot.load[e] > caps[e] ? 1 : 0;
        }
        // Surrogate S = intended flow - total overutilization (Appendix A),
        // through the shared evaluation form on the loads already at hand.
        slot.stat = te::surrogate_loss_value_from_loads(pb, tm, slot.alloc, caps, slot.load) /
                    std::max(1e-9, tm.total());

        // dS/dsplit(d, slot) = vol * (w_p - #violated edges on p); minimize -S.
        slot.grad_splits.resize(nd, k);
        slot.grad_splits.zero();
        run_sharded(plan, nullptr, [&](int /*shard*/, int d0, int d1) {
          for (int d = d0; d < d1; ++d) {
            const double vol = tm.volume[static_cast<std::size_t>(d)];
            int pslot = 0;
            for (int p = pb.path_begin(d); p < pb.path_end(d) && pslot < k;
                 ++p, ++pslot) {
              int n_viol = 0;
              for (topo::EdgeId e : pb.path_edges(p)) {
                n_viol += slot.violated[static_cast<std::size_t>(e)];
              }
              slot.grad_splits.at(d, pslot) =
                  -vol *
                  (weight[static_cast<std::size_t>(p)] - static_cast<double>(n_viol));
            }
          }
        });
        nn::softmax_rows_backward(slot.ws.splits, slot.grad_splits, slot.grad_logits);

        slot.grads.zero();
        model.backward_ws(pb, slot.ws.fwd, slot.grad_logits, ctx.bws(chunk),
                          slot.grads.refs());
      });

      ctx.reduce(n_active);
      adam.clip_grad_norm(cfg.grad_clip);
      adam.step();
      for (int s = 0; s < n_active; ++s) surrogate_sum += ctx.slot(s).stat;

      if (step_index > 0) stats.warm_step_allocs += step_allocs.count();
      ++step_index;
    }
    double mean_surrogate = surrogate_sum / std::max(1, train.size());
    stats.epoch_surrogate.push_back(mean_surrogate);
    if (cfg.verbose) {
      std::printf("[direct] epoch %d mean normalized surrogate %.4f\n", epoch,
                  mean_surrogate);
    }
  }
  return stats;
}

}  // namespace teal::core
