#include "core/teal_scheme.h"

#include <algorithm>
#include <stdexcept>

#include "lp/path_lp.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace teal::core {

namespace {

AdmmConfig make_admm_config(const te::Problem& pb, const TealSchemeConfig& cfg) {
  AdmmConfig ac;
  ac.iterations = cfg.admm_iterations > 0 ? cfg.admm_iterations
                                          : default_admm_iterations(pb.graph().num_nodes());
  if (cfg.objective == te::Objective::kLatencyPenalizedFlow) {
    ac.path_weight = lp::latency_penalty_weights(pb, cfg.latency_penalty);
  }
  return ac;
}

}  // namespace

TealScheme::TealScheme(const te::Problem& pb, std::unique_ptr<Model> model,
                       const TealSchemeConfig& cfg, std::string name)
    : hub_(std::shared_ptr<Model>(std::move(model))), cfg_(cfg),
      admm_(pb, make_admm_config(pb, cfg)), name_(std::move(name)) {}

namespace {

// Readies `m` to solve at precision `p` (weight snapshots for the narrowed
// precisions); throws std::invalid_argument naming `who` when `m` cannot.
void prepare_for(Model& m, te::Precision p, const char* who) {
  if (!m.supports(p)) {
    throw std::invalid_argument(std::string(who) + ": model does not support precision " +
                                te::precision_name(p));
  }
  m.prepare(p);
}

}  // namespace

void TealScheme::set_precision(te::Precision p) {
  prepare_for(*hub_.acquire().model, p, "TealScheme::set_precision");
  precision_ = p;
}

std::uint64_t TealScheme::publish_model(std::unique_ptr<Model> m) {
  if (!m) throw std::invalid_argument("TealScheme::publish_model: model is null");
  // Mutation-before-visibility: narrowed weight mirrors matching the current
  // precision are built on the new model while it is still private to this
  // call. Once published the model is immutable (replicas may be reading it
  // from any thread).
  prepare_for(*m, precision_, "TealScheme::publish_model");
  return hub_.publish(std::shared_ptr<Model>(std::move(m)));
}

ShardPlan TealScheme::plan_shards(const te::Problem& pb, int shard_count) const {
  const int nd = pb.num_demands();
  const int n = shard_count != 0 ? shard_count
                                 : auto_shard_count(nd, pb.total_paths());
  return ShardPlan::make(nd, n);
}

void TealScheme::solve_with(SolveWorkspace& ws, const te::Problem& pb,
                            const te::TrafficMatrix& tm, te::Allocation& out,
                            double* seconds_out, int shard_count) const {
  util::Timer timer;
  // Pin one model version for the whole solve: a publish_model() landing
  // mid-solve changes nothing here — the snapshot's shared_ptr keeps the old
  // version alive and this solve finishes bit-identically on it.
  const ModelSnapshot snap = hub_.acquire();
  const Model& model = *snap.model;
  const ShardPlan plan = plan_shards(pb, shard_count);
  ws.prepare_shards(plan);
  ShardStat* stats = ws.shard_stats.data();
  pb.capacities_into(ws.caps);
  // The narrowed (f32) precision runs the NN forward through the
  // float mirror workspace and widen logits/mask back to double, so
  // everything from the softmax down is precision-oblivious.
  ModelForward& fwd = precision_ == te::Precision::f64 ? ws.fwd : ws.fwd32;
  model.forward_ws(pb, tm, &ws.caps, fwd, plan, stats, precision_);
  // Masked softmax + allocation writeback, fused per demand slice (sized on
  // this thread first — resize must not run under the fan-out). The mask
  // guard enforces the policy-boundary contract: a demand with paths but a
  // fully-zero mask row would otherwise flow into ADMM as a silent all-zero
  // allocation.
  ws.splits.resize(fwd.logits.rows(), fwd.logits.cols());
  out.split.resize(static_cast<std::size_t>(pb.total_paths()));
  run_sharded(plan, stats, [&](int /*shard*/, int d0, int d1) {
    check_policy_mask_rows(pb, fwd.mask, d0, d1);
    nn::softmax_rows_range(fwd.logits, fwd.mask, ws.splits, d0, d1);
    allocation_from_splits_rows(pb, ws.splits, out, d0, d1);
  });
  if (cfg_.use_admm) {
    admm_.fine_tune(tm, ws.caps, out, ws.admm, plan, stats);
  }
  if (seconds_out != nullptr) *seconds_out = timer.seconds();
}

te::Allocation TealScheme::solve(const te::Problem& pb, const te::TrafficMatrix& tm) {
  te::Allocation a;
  solve_into(pb, tm, a);
  return a;
}

void TealScheme::solve_into(const te::Problem& pb, const te::TrafficMatrix& tm,
                            te::Allocation& out) {
  te::validate_traffic_matrix(pb, tm);
  solve_with(ws_, pb, tm, out, &last_seconds_, shard_count_);
}

te::BatchSolve TealScheme::solve_batch(const te::Problem& pb,
                                       std::span<const te::TrafficMatrix> tms) {
  // Every matrix is checked before any solve starts, so one bad matrix
  // throws on this thread instead of inside a fan-out.
  for (const auto& tm : tms) te::validate_traffic_matrix(pb, tm);
  auto& pool = util::ThreadPool::global();
  const std::size_t n_threads = pool.size() + 1;  // workers + caller
  // Composition cost model for the two parallelism axes. With two or more
  // matrices, across-matrix fan-out solves up to n_threads of them
  // concurrently (batch wall ≈ one solve-time) — a sequential loop of
  // sharded solves would need shard speedup > tms.size() to beat that, and
  // shard speedup is sublinear (fork-join barriers; ~1.5-2x at 4 shards on
  // the shard_scaling ledger), so the batch axis wins. A *single* matrix is
  // the case batching cannot touch: the sequential fallback below runs it
  // through solve_into(), where the shard count fans its demand slices over
  // the otherwise-idle pool. Inside a pool worker (or inline scope) nested
  // fan-out of either axis is impossible and the fallback runs fully
  // sequential.
  if (std::min(tms.size(), n_threads) <= 1 || util::ThreadPool::in_pool_worker()) {
    return te::Scheme::solve_batch(pb, tms);
  }
  // Across-matrix fan-out: contiguous chunks, one persistent workspace per
  // chunk (chunk 0 uses the scheme's own, chunk c uses batch_ws_[c - 1]),
  // one fork-join region iteration per chunk. Every solve runs with one
  // shard and inline kernels — a region chunk runs nested regions inline,
  // and the batch already owns all the threads. The region rethrows the
  // first chunk error only after every chunk finished, so no solve is still
  // writing into `out` when it unwinds.
  util::Timer wall;
  te::BatchSolve out;
  out.allocs.resize(tms.size());
  out.solve_seconds.resize(tms.size());
  const util::ChunkPlan plan = util::chunk_plan(tms.size(), n_threads);
  if (batch_ws_.size() + 1 < plan.n_chunks) batch_ws_.resize(plan.n_chunks - 1);
  pool.parallel_for(plan.n_chunks, [&](std::size_t c) {
    SolveWorkspace& ws = c == 0 ? ws_ : batch_ws_[c - 1];
    const std::size_t end = std::min(tms.size(), (c + 1) * plan.chunk);
    for (std::size_t t = c * plan.chunk; t < end; ++t) {
      solve_with(ws, pb, tms[t], out.allocs[t], &out.solve_seconds[t], /*shard_count=*/1);
    }
  });
  // Keep the documented last_solve_seconds() semantics ("the batch's final
  // solve"), matching the sequential loop.
  if (!out.solve_seconds.empty()) last_seconds_ = out.solve_seconds.back();
  out.wall_seconds = wall.seconds();
  return out;
}

void TealScheme::reset_workspace() {
  ws_.clear();
  batch_ws_.clear();
}

void train_or_load_model(Model& model, const te::Problem& pb, const traffic::Trace& train,
                         te::Objective objective, const TealTrainOptions& opts) {
  if (!opts.cache_path.empty() && model.load(opts.cache_path)) return;
  if (opts.trainer == Trainer::kComaStar) {
    train_coma(model, pb, train, objective, opts.coma);
  } else {
    train_direct_loss(model, pb, train, objective, opts.direct);
  }
  if (!opts.cache_path.empty()) {
    model.save(opts.cache_path);
  }
}

std::unique_ptr<TealScheme> make_teal_scheme(const te::Problem& pb,
                                             const traffic::Trace& train,
                                             const TealSchemeConfig& cfg,
                                             const TealTrainOptions& opts) {
  auto model = std::make_unique<TealModel>(cfg.model, pb.k_paths());
  train_or_load_model(*model, pb, train, cfg.objective, opts);
  return std::make_unique<TealScheme>(pb, std::move(model), cfg);
}

}  // namespace teal::core
