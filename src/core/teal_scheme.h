// teal_scheme.h — the deployable Teal pipeline (Figure 3).
//
// solve() = one forward pass of FlowGNN + policy network (the Gaussian mean
// is used directly at deployment, Appendix B), masked softmax into split
// ratios, then 2-5 ADMM fine-tuning iterations. The whole pipeline's flop
// count is independent of the traffic matrix *values* — the property behind
// Teal's tightly clustered computation times in Figure 7a.
//
// Every solve runs through a SolveWorkspace, so repeated solves on the same
// problem are allocation-free, and solve_batch() fans independent matrices
// out across the thread pool with one workspace per worker — the CPU
// equivalent of the paper's GPU batch parallelism. A single solve can in
// turn shard its per-demand stages across the pool (core::ShardPlan, the
// GPU's *intra*-matrix data parallelism), bit-identically to the
// sequential path; solve_batch composes the two axes by a cost model.
#pragma once

#include <string>
#include <vector>

#include "core/admm.h"
#include "core/coma.h"
#include "core/direct_loss.h"
#include "core/model.h"
#include "core/snapshot.h"
#include "core/solve_workspace.h"
#include "te/scheme.h"
#include "traffic/traffic.h"

namespace teal::core {

struct TealSchemeConfig {
  TealModelConfig model;
  te::Objective objective = te::Objective::kTotalFlow;
  bool use_admm = true;       // §5.5 omits ADMM for the non-default objectives
  int admm_iterations = -1;   // -1 = paper default (2 if <100 nodes else 5)
  double latency_penalty = 0.5;
};

class TealScheme : public te::Scheme {
 public:
  // Takes ownership of a trained model. `pb` must outlive the scheme and be
  // the same Problem object passed to solve() (its path structure is baked
  // into the ADMM index); capacity changes on it are picked up per solve.
  // `name` distinguishes the full pipeline from its Figure 14 ablations.
  TealScheme(const te::Problem& pb, std::unique_ptr<Model> model,
             const TealSchemeConfig& cfg, std::string name = "Teal");

  std::string name() const override { return name_; }
  te::Allocation solve(const te::Problem& pb, const te::TrafficMatrix& tm) override;
  // The primary path: solves into a caller-owned Allocation through the
  // scheme's workspace. Zero heap allocations once the workspace is warm.
  // Throws std::invalid_argument (te::validate_traffic_matrix) for a matrix
  // of the wrong size or with a NaN, infinite or negative volume.
  void solve_into(const te::Problem& pb, const te::TrafficMatrix& tm,
                  te::Allocation& out) override;
  // Fans the batch out over ThreadPool::global() with one persistent
  // workspace per worker (each solve sequential within its worker). A
  // single-matrix batch instead runs through solve_into(), where the shard
  // count fans the solve's demand slices over the otherwise-idle pool — the
  // axis-composition cost model (DESIGN.md "Parallelism model"). Results
  // are identical to a sequential solve() loop either way (workspaces share
  // no mutable state); only the timing differs — see the BatchSolve
  // timing-semantics note in te/scheme.h for how the per-solve seconds
  // relate to last_solve_seconds(). Validates every matrix, as solve_into()
  // does, before any solve starts.
  te::BatchSolve solve_batch(const te::Problem& pb,
                             std::span<const te::TrafficMatrix> tms) override;
  double last_solve_seconds() const override { return last_seconds_; }
  bool has_warm_state() const override { return true; }
  bool supports_parallel_batch() const override { return true; }

  // The scheme owns its two solve settings; every driver (run_online,
  // solve_batch, the serving replicas) reads them from here.
  //
  // Shard count — intra-solve demand sharding (core::ShardPlan): every
  // per-demand stage (the FlowGNN demand passes, policy-input assembly,
  // policy forward, masked softmax, allocation writeback and the ADMM
  // F-update/dual stages) fans its demand slice out over the thread pool;
  // coupled link-level stages run as per-edge passes and reductions stay
  // sequential, so the allocation is bit-identical for every shard count
  // (tests/shard_test). 0 = auto (the core::auto_shard_count cost model
  // against the threads available to the calling context), 1 = sequential,
  // n = exactly n shards (clamped to the demand count). A pure latency
  // setting. Workspace replicas (serve::make_workspace_replicas) read it
  // once at construction, where 0 resolves through serve::pick_replica_shards.
  void set_shard_count(int n) { shard_count_ = n; }
  int shard_count() const { return shard_count_; }

  // Precision (te::Precision): f32 narrows the NN forward to float — through
  // per-layer blocked weight snapshots taken here — while the masked
  // softmax, the allocation writeback and the ADMM fine-tune stay double,
  // mirroring the paper's fp32 GPU inference.
  // Unlike the shard count this perturbs the allocation, within the bound
  // tests/precision_test.cpp checks per topology. Support follows the
  // wrapped model (Model::supports): the Figure 14 ablation variants are
  // f64-only, and set_precision throws std::invalid_argument for a precision
  // the model cannot run, leaving precision() unchanged. Snapshotting
  // mutates the shared model, so set the precision before replicas or
  // batches start solving, and set it again after any further training.
  bool supports_precision(te::Precision p) const { return hub_.acquire().model->supports(p); }
  void set_precision(te::Precision p);
  te::Precision precision() const { return precision_; }

  // Live hot-swap (ModelHub publication seam): installs `m` as the new
  // current model and returns its version. Precision snapshots matching the
  // scheme's current precision are prepared on `m` *before* it becomes visible
  // (mutation-before-visibility), so replicas never observe a model whose
  // narrowed mirrors are mid-construction. A model that does not support
  // the current precision is rejected with std::invalid_argument before it
  // becomes visible — model_version() and the serving model stay unchanged.
  // Solves already running keep their pinned snapshot and finish
  // bit-identically on the old version; solves that start after this call
  // use `m`. Safe to call from a trainer thread while replicas solve
  // concurrently. Workspace forward caches re-key off ModelForward::owner,
  // so the first post-swap solve per workspace reallocates its cache.
  std::uint64_t publish_model(std::unique_ptr<Model> m);
  std::uint64_t model_version() const { return hub_.version(); }

  // Thread-safe replica entry point for the serving layer: one solve through
  // a caller-owned workspace. Distinct workspaces share no mutable state and
  // the model is read-only at inference, so concurrent calls are safe — this
  // is the same contract solve_batch() relies on, exposed so serve::Server
  // can keep one persistent workspace per replica over a single shared
  // scheme. Does not touch last_solve_seconds(); per-solve time is reported
  // through `seconds_out`. `shard_count` follows the set_shard_count()
  // convention (0 = auto) but defaults to 1: a replica's outer parallelism
  // is across replicas, so its inner solve stays sequential unless the
  // serving cost model (serve::pick_replica_shards) grants it pool threads.
  // Workspace replicas fill it from shard_count() at construction.
  // After the call `ws.plan` / `ws.shard_stats` hold the executed plan and
  // per-shard load-balance accounting.
  // Unlike solve_into() and solve_batch() it does not validate `tm`: a
  // replica treats any throw as its own death, and net::Server already
  // refuses wrong-sized or non-finite matrices at admission.
  void solve_replica(SolveWorkspace& ws, const te::Problem& pb, const te::TrafficMatrix& tm,
                     te::Allocation& out, double* seconds_out = nullptr,
                     int shard_count = 1) const {
    solve_with(ws, pb, tm, out, seconds_out, shard_count);
  }

  // Current published model. The hub keeps a reference, so the returned
  // reference stays valid until the next publish_model() — callers that need
  // publish-safety should pin a snapshot via model_version()/publish flows
  // instead. Intended for pre-serving setup (training, inspection).
  Model& model() { return *hub_.acquire().model; }
  const Admm& admm() const { return admm_; }

  // Drops all warm buffers (single-solve and batch workspaces). Used by the
  // cold/warm micro-benchmark and tests; never needed in normal operation.
  void reset_workspace();

 private:
  // One solve through an explicit workspace; thread-safe across distinct
  // workspaces. Also records per-solve seconds into `seconds_out` if given.
  // `shard_count` follows the set_shard_count convention (0 = auto cost model).
  void solve_with(SolveWorkspace& ws, const te::Problem& pb, const te::TrafficMatrix& tm,
                  te::Allocation& out, double* seconds_out, int shard_count) const;

  // Resolves a shard-count request against the problem and the calling
  // thread's available parallelism.
  ShardPlan plan_shards(const te::Problem& pb, int shard_count) const;

  // Publication seam between a (background) trainer and this scheme's
  // replicas: solve_with pins one snapshot per solve; publish_model swaps in
  // a new version without disturbing in-flight solves.
  ModelHub hub_;
  TealSchemeConfig cfg_;
  Admm admm_;
  std::string name_;
  double last_seconds_ = 0.0;
  int shard_count_ = 0;                 // 0 = auto (see set_shard_count)
  te::Precision precision_ = te::Precision::f64;
  SolveWorkspace ws_;                   // solve()/solve_into() workspace
  std::vector<SolveWorkspace> batch_ws_;  // batch chunks 1.., lazily grown
};

// How to train the model inside make_teal_scheme.
enum class Trainer { kComaStar, kDirectLoss };

struct TealTrainOptions {
  Trainer trainer = Trainer::kComaStar;
  ComaConfig coma;
  DirectLossConfig direct;
  // If non-empty, load the model from this file when present (and save after
  // training otherwise) — trained models are reused across bench runs.
  std::string cache_path;
};

// Trains `model` with the selected trainer, or loads it from opts.cache_path
// when the cache file exists (saving after training otherwise).
void train_or_load_model(Model& model, const te::Problem& pb, const traffic::Trace& train,
                         te::Objective objective, const TealTrainOptions& opts);

// Builds, trains (or loads) and wraps a Teal model for the given problem.
std::unique_ptr<TealScheme> make_teal_scheme(const te::Problem& pb,
                                             const traffic::Trace& train,
                                             const TealSchemeConfig& cfg,
                                             const TealTrainOptions& opts = {});

}  // namespace teal::core
