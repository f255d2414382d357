// replica.h — the unit of parallelism in the serving layer.
//
// A Replica is one independent solver: it handles one request at a time and
// owns every piece of mutable state its solves touch, so N replicas run
// concurrently without synchronization. Two concrete shapes, chosen by the
// scheme's traits (te::Scheme::has_warm_state / supports_parallel_batch):
//
//  * WorkspaceReplica — a persistent core::SolveWorkspace over one *shared*
//    TealScheme. The model is read-only at inference and workspaces share no
//    mutable state (the commutativity argument behind solve_batch, DESIGN.md
//    "Serving layer"), so replicas need no locks on the shared model and the
//    trained weights exist once regardless of replica count.
//  * SchemeReplica — one whole scheme instance per replica, for the LP
//    baselines whose solvers carry per-solve mutable state (simplex
//    tableaus, partitions) with no workspace separation.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/teal_scheme.h"
#include "te/scheme.h"

namespace teal::serve {

class Replica {
 public:
  virtual ~Replica() = default;

  // Solves one request. Called from exactly one serving thread at a time per
  // replica object; different replicas run concurrently. `seconds` (if
  // non-null) receives the solve's own wall time, excluding queue wait.
  //
  // Thread-composition contract: the replica owns the decision whether its
  // inner kernels run inline (ThreadPool::ScopedInline held for the solve)
  // or fan out demand shards to the global pool. Sequential replicas must
  // hold the inline scope so N replicas never oversubscribe the machine;
  // sharded replicas deliberately leave it off so the shard fan-out can
  // reach the pool workers.
  virtual void solve(const te::Problem& pb, const te::TrafficMatrix& tm,
                     te::Allocation& out, double* seconds) = 0;
};

using ReplicaPtr = std::unique_ptr<Replica>;

// Builds a fresh scheme instance; called once per replica by
// make_scheme_replicas. Must produce independently usable schemes (they run
// on different threads).
using SchemeFactory = std::function<te::SchemePtr()>;

// Serving-side shard cost model: how many demand shards one of `n_replicas`
// replicas should fan a solve across. Replica parallelism and shard
// parallelism share the machine, and every shard fan-out runs through the
// single global pool (whose fork-join regions serialize), so sharding pays
// only when replicas would otherwise leave threads idle: with more than one
// replica the answer is 1 (throughput axis already saturates), with a single
// replica it is the core::auto_shard_count work/threads trade-off — the way
// a lone replica serving one huge matrix (ASN-scale) cuts its latency.
int pick_replica_shards(std::size_t n_replicas, int n_demands, int total_paths);

// N workspace replicas over one shared TealScheme. `scheme` must outlive the
// replicas; its own solve()/solve_batch() state is untouched. Each replica
// reads scheme.shard_count() once, here: 0 = auto (pick_replica_shards,
// resolved against the problem on first solve), 1 = sequential inner solve,
// n = exactly n demand shards per solve. Results are bit-identical for
// every value.
std::vector<ReplicaPtr> make_workspace_replicas(const core::TealScheme& scheme, std::size_t n);

// N single-scheme replicas from a factory (LP baselines).
std::vector<ReplicaPtr> make_scheme_replicas(const SchemeFactory& factory, std::size_t n);

// Trait-dispatched builder: workspace replicas over the shared scheme when it
// keeps warm per-solve state and supports parallel batching (TealScheme),
// otherwise one instance per replica via `factory`. Throws
// std::invalid_argument when the scheme needs a factory and none was given.
std::vector<ReplicaPtr> make_replicas(te::Scheme& scheme, std::size_t n,
                                      const SchemeFactory& factory = nullptr);

}  // namespace teal::serve
