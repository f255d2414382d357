#include <algorithm>
#include <cstdio>
#include <cstring>
#include <optional>
#include <span>

#include "bench.h"
#include "util/alloc_hook.h"
#include "util/thread_pool.h"

namespace teal_bench {

namespace {

// Holds ThreadPool::ScopedInline for a one-thread plan.
struct PlanScope {
  explicit PlanScope(Plan p) {
    if (p.one_thread) scope.emplace();
  }
  std::optional<util::ThreadPool::ScopedInline> scope;
};

// Shard plan a solve under `plan` runs with. Resolved on the calling thread
// before any inline scope, exactly as TealScheme resolves its knob.
core::ShardPlan shard_plan(const te::Problem& pb, Plan plan) {
  const int nd = pb.num_demands();
  return core::ShardPlan::make(
      nd, plan.shards != 0 ? plan.shards : core::auto_shard_count(nd, pb.total_paths()));
}

double p50(const std::vector<double>& v) { return percentile(v, 50); }

template <typename T>
bool same_bytes(const nn::BasicMat<T>& a, const nn::BasicMat<T>& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.rows() * a.cols() == 0 ||
          std::memcmp(a.row_ptr(0), b.row_ptr(0),
                      static_cast<std::size_t>(a.rows()) * static_cast<std::size_t>(a.cols()) *
                          sizeof(T)) == 0);
}

// Same-shape twin of the scheme's TealModel: built in TealModel's order from
// the same seed, so it holds the same weights, and its forward can be timed
// stage by stage where TealModel::forward_ws fuses them.
struct Twin {
  explicit Twin(int k)
      : rng(kModelSeed),
        gnn(cfg.model.gnn, k, rng),
        policy(cfg.model.policy, k * core::effective_final_dim(cfg.model.gnn), k, rng) {}
  core::TealSchemeConfig cfg;
  util::Rng rng;
  core::FlowGnn gnn;
  core::PolicyNet policy;
};

}  // namespace

OpSamples run_solves(core::TealScheme& scheme, const Inputs& in, Plan plan, double seconds) {
  scheme.set_shard_count(plan.shards);
  const PlanScope scope(plan);
  OpSamples r;
  te::Allocation out;
  const std::size_t n = in.refs.size();
  const auto start = Clock::now();
  const auto end = after(start, seconds);
  for (std::uint64_t i = 0;; ++i) {
    const auto t0 = Clock::now();
    if (t0 >= end) break;
    const std::size_t m = i % n;
    scheme.solve_into(in.pb, in.trace.matrices[m], out);
    r.ms.push_back(ms_since(t0));
    ++r.attempted;
    if (!output_ok(in.pb, in.refs[m], out)) ++r.failed;
  }
  r.window_s = seconds_between(start, Clock::now());
  return r;
}

OpSamples run_batches(core::TealScheme& scheme, const Inputs& in, double seconds) {
  // The trace twice over, so every batch of consecutive matrices is one span
  // even where the cycle wraps.
  std::vector<te::TrafficMatrix> stream = in.trace.matrices;
  stream.insert(stream.end(), in.trace.matrices.begin(), in.trace.matrices.end());
  const std::size_t n = in.refs.size();
  OpSamples r;
  const auto start = Clock::now();
  const auto end = after(start, seconds);
  for (std::size_t b = 0; Clock::now() < end; ++b) {
    const std::size_t off = (b * kBatchSize) % n;
    const te::BatchSolve res =
        scheme.solve_batch(in.pb, std::span(stream).subspan(off, kBatchSize));
    for (std::size_t j = 0; j < kBatchSize; ++j) {
      r.ms.push_back(res.solve_seconds[j] * 1e3);
      ++r.attempted;
      if (!output_ok(in.pb, in.refs[(off + j) % n], res.allocs[j])) ++r.failed;
    }
  }
  r.window_s = seconds_between(start, Clock::now());
  return r;
}

CoreProbe probe_core(core::TealScheme& scheme, const Inputs& in, Plan plan, double seconds,
                     Tracer& tracer, Metrics& out, std::uint64_t& attempted,
                     std::uint64_t& failed) {
  const te::Problem& pb = in.pb;
  const std::size_t n = in.refs.size();
  const int nd = pb.num_demands();
  const int k = pb.k_paths();
  const core::ShardPlan sp = shard_plan(pb, plan);
  scheme.set_shard_count(plan.shards);
  std::optional<PlanScope> scope(std::in_place, plan);
  const core::Model& model = scheme.model();
  const core::Admm& admm = scheme.admm();

  // The scheme's solve decomposed into the public calls TealScheme makes,
  // each under its own span: model forward, masked softmax + writeback, ADMM.
  core::SolveWorkspace ws;
  te::Allocation alloc;
  auto traced_solve = [&](Tracer* t, std::uint64_t i) {
    const te::TrafficMatrix& tm = in.trace.matrices[i % n];
    const auto req = static_cast<std::int64_t>(i);
    const Scope solve(t, "core.solve", -1, req);
    ws.prepare_shards(sp);
    core::ShardStat* stats = ws.shard_stats.data();
    pb.capacities_into(ws.caps);
    {
      const Scope s(t, "core.forward", solve.slot(), req);
      model.forward_ws(pb, tm, &ws.caps, ws.fwd, sp, stats);
    }
    {
      const Scope s(t, "core.softmax", solve.slot(), req);
      ws.splits.resize(ws.fwd.logits.rows(), ws.fwd.logits.cols());
      alloc.split.resize(static_cast<std::size_t>(pb.total_paths()));
      core::run_sharded(sp, stats, [&](int /*shard*/, int d0, int d1) {
        core::check_policy_mask_rows(pb, ws.fwd.mask, d0, d1);
        nn::softmax_rows_range(ws.fwd.logits, ws.fwd.mask, ws.splits, d0, d1);
        core::allocation_from_splits_rows(pb, ws.splits, alloc, d0, d1);
      });
    }
    const Scope s(t, "core.admm", solve.slot(), req);
    return admm.fine_tune(tm, ws.caps, alloc, ws.admm, sp, stats);
  };

  // Twin split of the forward: GNN, policy-input assembly, policy network.
  const Twin twin(k);
  core::FlowGnn::Forward gf;
  core::PolicyNet::Forward pf;
  nn::Mat mask;
  std::vector<double> caps;
  auto twin_forward = [&](Tracer* t, std::uint64_t i) {
    const auto req = static_cast<std::int64_t>(i);
    pb.capacities_into(caps);
    {
      const Scope s(t, "core.gnn", -1, req);
      twin.gnn.forward(pb, in.trace.matrices[i % n], &caps, gf, sp);
    }
    {
      const Scope s(t, "core.policy_input", -1, req);
      pf.input.resize(nd, k * gf.final_paths.cols());
      mask.resize(nd, k);
      core::run_sharded(sp, nullptr, [&](int /*shard*/, int d0, int d1) {
        core::build_policy_input_rows(pb, gf.final_paths, k, pf.input, mask, d0, d1);
      });
    }
    const Scope s(t, "core.policy", -1, req);
    twin.policy.prepare_forward(pf);
    core::run_sharded(sp, nullptr, [&](int /*shard*/, int d0, int d1) {
      twin.policy.forward_rows(pf, d0, d1);
    });
  };
  traced_solve(nullptr, 0);  // warm both workspaces untraced
  twin_forward(nullptr, 0);
  std::printf("# twin logits identical to the model's: %s\n",
              same_bytes(pf.logits, ws.fwd.logits) ? "yes" : "NO");

  // One round per matrix: the scheme's own untraced solve, the decomposed
  // traced solve and the twin forward back to back, so the ratios between
  // them compare like with like on a host whose speed drifts. At least
  // kMinRounds, so the p50s behind those ratios hold even in short windows.
  constexpr std::uint64_t kMinRounds = 10;
  std::vector<double> plain, balance;
  te::Allocation scratch;
  double before = 0.0, after_sum = 0.0;
  std::uint64_t rounds = 0;
  for (const auto end = after(Clock::now(), seconds); rounds < kMinRounds || Clock::now() < end;
       ++rounds) {
    const std::size_t m = rounds % n;
    const auto t0 = Clock::now();
    scheme.solve_into(pb, in.trace.matrices[m], scratch);
    plain.push_back(ms_since(t0));
    const core::Admm::Residuals res = traced_solve(&tracer, rounds);
    twin_forward(&tracer, rounds);
    before += res.before;
    after_sum += res.after;
    double lo = ws.shard_stats[0].busy_seconds, hi = lo;
    for (int s = 1; s < sp.n_shards; ++s) {
      lo = std::min(lo, ws.shard_stats[static_cast<std::size_t>(s)].busy_seconds);
      hi = std::max(hi, ws.shard_stats[static_cast<std::size_t>(s)].busy_seconds);
    }
    balance.push_back(hi > 0.0 ? lo / hi : 1.0);
    attempted += 2;
    if (!output_ok(pb, in.refs[m], scratch)) ++failed;
    if (!output_ok(pb, in.refs[m], alloc)) ++failed;
  }

  // Heap allocations of one warm solve through the scheme.
  const util::AllocCounter counter;
  scheme.solve_into(pb, in.trace.matrices[0], scratch);
  const double allocs = static_cast<double>(counter.count());
  scope.reset();

  // Batch axis: per-matrix time inside solve_batch against the same matrices
  // solved standalone on one thread, alternated.
  const auto batch = std::span(in.trace.matrices).first(kBatchSize);
  scheme.solve_batch(pb, batch);
  std::vector<double> in_batch, standalone;
  for (int rep = 0; rep < 2; ++rep) {
    const te::BatchSolve res = scheme.solve_batch(pb, batch);
    for (std::size_t j = 0; j < kBatchSize; ++j) {
      in_batch.push_back(res.solve_seconds[j] * 1e3);
      ++attempted;
      if (!output_ok(pb, in.refs[j], res.allocs[j])) ++failed;
    }
    scheme.set_shard_count(1);
    const util::ThreadPool::ScopedInline one_thread;
    for (std::size_t j = 0; j < kBatchSize; ++j) {
      const auto t0 = Clock::now();
      scheme.solve_into(pb, batch[j], scratch);
      standalone.push_back(ms_since(t0));
      ++attempted;
      if (!output_ok(pb, in.refs[j], scratch)) ++failed;
    }
  }

  const auto forward = tracer.durations_ms("core.forward");
  const auto gnn = tracer.durations_ms("core.gnn");
  const auto policy_input = tracer.durations_ms("core.policy_input");
  const auto policy = tracer.durations_ms("core.policy");
  const double f = p50(forward);
  const double sm = p50(tracer.durations_ms("core.softmax"));
  const double ad = p50(tracer.durations_ms("core.admm"));
  const double plain_p50 = p50(plain);
  const double twin_sum = p50(gnn) + p50(policy_input) + p50(policy);
  std::printf("# twin split gnn+policy_input+policy / forward = %.4f\n",
              f > 0.0 ? twin_sum / f : 0.0);
  out.push_back({"core.forward_ms", f, "ms", forward.size()});
  out.push_back({"core.gnn_ms", p50(gnn), "ms", gnn.size()});
  out.push_back({"core.policy_input_ms", p50(policy_input), "ms", policy_input.size()});
  out.push_back({"core.policy_ms", p50(policy), "ms", policy.size()});
  out.push_back({"core.softmax_ms", sm, "ms", forward.size()});
  out.push_back({"core.admm_ms", ad, "ms", forward.size()});
  out.push_back({"core.admm_residual_before", before / static_cast<double>(rounds), "residual",
                 rounds});
  out.push_back({"core.admm_residual_after", after_sum / static_cast<double>(rounds), "residual",
                 rounds});
  out.push_back({"core.stage_coverage", (f + sm + ad) / plain_p50, "ratio", plain.size()});
  out.push_back({"core.shard_balance", p50(balance), "ratio", balance.size()});
  out.push_back({"core.allocs_per_solve", allocs, "count", 1});
  const double batch_p50 = p50(in_batch);
  const double one_thread_p50 = p50(standalone);
  out.push_back({"core.batch_solve_p50_ms", batch_p50, "ms", in_batch.size()});
  out.push_back({"core.batch_inflation", batch_p50 / one_thread_p50, "ratio", standalone.size()});
  return {100.0 * (p50(tracer.durations_ms("core.solve")) - plain_p50) / plain_p50,
          one_thread_p50};
}

}  // namespace teal_bench
