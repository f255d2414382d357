// train_context.h — per-worker state for workspace-batched training (the
// fourth parallelism axis; see DESIGN.md "Training pipeline").
//
// The trainers (COMA*, direct loss) process rollout batches: B traffic
// matrices forwarded, differentiated and back-propagated per optimizer step.
// A TrainContext owns everything that fan-out needs:
//   * one SolveWorkspace per rollout slot — the same reusable forward caches
//     the inference side uses, so warm training steps run forward without
//     heap allocation;
//   * one nn::GradAccum per rollout slot — each rollout's parameter
//     gradients land in its own accumulator (disjoint writes that commute),
//     and reduce() folds them into Param::g strictly in rollout order, so
//     the summed gradient — and therefore the trained parameters — are
//     bit-identical for every worker count (the ShardPlan contract applied
//     to parameter space);
//   * one TrainBackward scratch per worker — backward grad temporaries are
//     fully overwritten per rollout, so sequential rollouts on one worker
//     share them.
//
// Worker knob semantics match the shard knob: 0 = auto (threads available
// to the calling context, capped by the batch size), 1 = sequential, n = at
// most n concurrent rollout chunks. A pure throughput knob — results never
// change. It holds for every model: Model::backward_ws writes only the
// slot's own accumulator, so Teal and the Figure 14 ablation variants fan
// out alike.
//
// Memory model (DESIGN.md "Memory model"): every slot, accumulator and
// scratch buffer is plain heap storage. prepare() and the first training
// step grow it; warm steps reuse it and allocate nothing.
#pragma once

#include <algorithm>
#include <vector>

#include "core/model.h"
#include "core/solve_workspace.h"
#include "nn/module.h"
#include "util/thread_pool.h"

namespace teal::core {

class TrainContext {
 public:
  // Resolves the parallelism plan and sizes the per-slot/per-worker state.
  // Called once per training run (allocating); everything after is reused.
  void prepare(Model& model, int rollout_batch, int workers);

  int rollout_batch() const { return rollout_batch_; }
  int workers() const { return workers_; }
  std::vector<nn::Param*>& params() { return params_; }

  // Per-rollout-slot buffers. `ws` carries the model forward caches and the
  // softmax splits; the trainer-specific members are documented where used
  // (coma.cpp / direct_loss.cpp). Values are fully rewritten per rollout.
  struct Slot {
    SolveWorkspace ws;
    nn::GradAccum grads;
    nn::Mat z;                       // COMA: sampled joint action
    nn::Mat grad_logits;             // d(-J)/d(logits)
    nn::Mat grad_splits;             // direct loss: d(-S)/d(splits)
    std::vector<double> advantage;   // COMA: per-agent advantages
    te::Allocation alloc;            // direct loss: flat allocation
    std::vector<double> load;        // direct loss: intended edge loads
    std::vector<char> violated;      // direct loss: per-edge violation flags
    double stat = 0.0;               // per-rollout reward/surrogate term
  };
  Slot& slot(int s) { return slots_[static_cast<std::size_t>(s)]; }

  // Per-worker backward scratch (worker = rollout chunk id).
  TrainBackward& bws(int chunk) { return bws_[static_cast<std::size_t>(chunk)]; }

  // Number of concurrent rollout chunks a step over `n_active` slots runs.
  // The chunk size is fixed from the *full* batch at prepare() time — a
  // trailing partial batch re-uses a prefix of the full-batch chunk ids
  // instead of re-chunking, so its work lands only on chunks (backward
  // scratch, reward simulators) that earlier steps already warmed, keeping
  // warm steps allocation-free. Chunk→slot mapping never affects results.
  int chunks_for(int n_active) const {
    return (std::max(0, n_active) + chunk_ - 1) / chunk_;
  }

  // Runs body(slot, chunk) for slots [0, n_active), fanned over at most
  // workers() chunks via the pool's allocation-free fork-join region. Slot →
  // chunk mapping is deterministic (contiguous ranges); which thread runs a
  // chunk is not, and must not matter — all chunk-indexed state is owned by
  // the chunk id, never the thread.
  template <typename Fn>
  void for_slots(int n_active, Fn&& body) {
    if (n_active <= 0) return;
    const std::size_t chunk = static_cast<std::size_t>(chunk_);
    util::ThreadPool::global().parallel_chunks(
        static_cast<std::size_t>(chunks_for(n_active)),
        [&](std::size_t cb, std::size_t ce) {
          for (std::size_t c = cb; c < ce; ++c) {
            const std::size_t s_begin = c * chunk;
            const std::size_t s_end =
                std::min(static_cast<std::size_t>(n_active), s_begin + chunk);
            for (std::size_t s = s_begin; s < s_end; ++s) {
              body(static_cast<int>(s), static_cast<int>(c));
            }
          }
        });
  }

  // Ordered sequential reduction: Param::g += slot grads for slots
  // [0, n_active), in slot order. The one place per-rollout gradients meet;
  // keeping it sequential is what buys worker-count bit-identity.
  void reduce(int n_active) {
    for (int s = 0; s < n_active; ++s) {
      slots_[static_cast<std::size_t>(s)].grads.reduce_into(params_);
    }
  }

 private:
  int rollout_batch_ = 1;
  int workers_ = 1;
  int chunk_ = 1;  // slots per chunk, fixed from the full batch
  std::vector<nn::Param*> params_;
  std::vector<Slot> slots_;
  std::vector<TrainBackward> bws_;
};

}  // namespace teal::core
