#include "core/train_context.h"

namespace teal::core {

void TrainContext::prepare(Model& model, int rollout_batch, int workers) {
  // Re-prepare (a topology or batch-shape swap) first destroys every
  // container holding arena memory, then rewinds the arenas while retaining
  // their chunks — the rebuild below re-bumps out of already-mapped memory,
  // so a swap costs O(1) heap allocations just like the first prepare.
  // Abandoned by-then-unreachable arena blocks (never individually freed —
  // mem-root semantics) are reclaimed by the same reset.
  // swap-to-empty, not `= {}`: the braced form keeps the old capacity, and a
  // buffer surviving into the rewound arena would be bumped over below.
  util::AVec<Slot>().swap(slots_);
  util::AVec<TrainBackward>().swap(bws_);
  params_.clear();
  for (auto& a : chunk_arenas_) a.reset();
  arena_.reset();

  rollout_batch_ = std::max(1, rollout_batch);
  // Auto (0): the threads a new fork-join region from this thread can use,
  // never more than there are rollouts to run.
  const int w =
      workers == 0 ? static_cast<int>(util::ThreadPool::available_parallelism()) : workers;
  workers_ = std::clamp(w, 1, rollout_batch_);
  const util::ChunkPlan plan =
      util::chunk_plan(static_cast<std::size_t>(rollout_batch_),
                       static_cast<std::size_t>(workers_));
  chunk_ = std::max<int>(1, static_cast<int>(plan.chunk));

  params_ = model.params();
  const auto n_chunks = static_cast<std::size_t>(std::max(1, chunks_for(rollout_batch_)));
  chunk_arenas_.resize(n_chunks);

  // Everything below — the slot array, every GradAccum matrix, the backward
  // scratch array — bump-allocates from the context's root arena.
  util::ArenaScope bind(&arena_);
  slots_.resize(static_cast<std::size_t>(rollout_batch_));
  for (auto& s : slots_) s.grads.prepare(params_);
  bws_.resize(n_chunks);
}

}  // namespace teal::core
