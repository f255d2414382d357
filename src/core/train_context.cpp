#include "core/train_context.h"

namespace teal::core {

void TrainContext::prepare(Model& model, int rollout_batch, int workers) {
  // Re-prepare (a topology or batch-shape swap) rebuilds every slot and
  // scratch from scratch, so nothing warmed for the old shape survives.
  slots_.clear();
  bws_.clear();

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
  slots_.resize(static_cast<std::size_t>(rollout_batch_));
  for (auto& s : slots_) s.grads.prepare(params_);
  bws_.resize(n_chunks);
}

}  // namespace teal::core
