#include "serve/replica.h"

#include <stdexcept>

#include "util/thread_pool.h"

namespace teal::serve {

namespace {

class WorkspaceReplica final : public Replica {
 public:
  WorkspaceReplica(const core::TealScheme& scheme, std::size_t n_replicas)
      : scheme_(scheme), n_replicas_(n_replicas), shards_(scheme.shard_count()) {}

  void solve(const te::Problem& pb, const te::TrafficMatrix& tm, te::Allocation& out,
             double* seconds) override {
    // Auto mode resolves against the problem on first use (the cost model
    // needs the demand/path counts, which make_replicas never sees).
    if (shards_ == 0) {
      shards_ = pick_replica_shards(n_replicas_, pb.num_demands(), pb.total_paths());
    }
    if (shards_ == 1) {
      // Sequential inner solve: hold the inline scope so N replicas' kernels
      // never fan out on top of each other (the pre-sharding serving shape).
      util::ThreadPool::ScopedInline inline_kernels;
      scheme_.solve_replica(ws_, pb, tm, out, seconds, /*shard_count=*/1);
    } else {
      scheme_.solve_replica(ws_, pb, tm, out, seconds, shards_);
    }
  }

 private:
  const core::TealScheme& scheme_;
  std::size_t n_replicas_;
  int shards_;               // 0 until resolved, then the fixed per-solve count
  core::SolveWorkspace ws_;  // warm after the first request
};

class SchemeReplica final : public Replica {
 public:
  explicit SchemeReplica(te::SchemePtr scheme) : scheme_(std::move(scheme)) {}

  void solve(const te::Problem& pb, const te::TrafficMatrix& tm, te::Allocation& out,
             double* seconds) override {
    // One whole scheme per replica; outer parallelism is across replicas, so
    // its kernels stay on this thread.
    util::ThreadPool::ScopedInline inline_kernels;
    scheme_->solve_into(pb, tm, out);
    if (seconds != nullptr) *seconds = scheme_->last_solve_seconds();
  }

 private:
  te::SchemePtr scheme_;
};

}  // namespace

int pick_replica_shards(std::size_t n_replicas, int n_demands, int total_paths) {
  if (n_replicas > 1) return 1;
  return core::auto_shard_count(n_demands, total_paths,
                                util::ThreadPool::available_parallelism());
}

std::vector<ReplicaPtr> make_workspace_replicas(const core::TealScheme& scheme,
                                                std::size_t n) {
  std::vector<ReplicaPtr> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::make_unique<WorkspaceReplica>(scheme, n));
  }
  return out;
}

std::vector<ReplicaPtr> make_scheme_replicas(const SchemeFactory& factory, std::size_t n) {
  if (!factory) throw std::invalid_argument("make_scheme_replicas: null factory");
  std::vector<ReplicaPtr> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(std::make_unique<SchemeReplica>(factory()));
  }
  return out;
}

std::vector<ReplicaPtr> make_replicas(te::Scheme& scheme, std::size_t n,
                                      const SchemeFactory& factory) {
  if (scheme.has_warm_state() && scheme.supports_parallel_batch()) {
    if (auto* teal = dynamic_cast<core::TealScheme*>(&scheme)) {
      return make_workspace_replicas(*teal, n);
    }
  }
  if (!factory) {
    throw std::invalid_argument(
        "make_replicas: scheme '" + scheme.name() +
        "' has no shareable workspace path; pass a SchemeFactory");
  }
  return make_scheme_replicas(factory, n);
}

}  // namespace teal::serve
