// model.h — Teal's end-to-end "model": FlowGNN + shared policy network.
//
// This is the object that gets trained (per WAN topology and per TE
// objective, §4) and later queried at deployment time. forward() produces a
// (D, k) matrix of policy logits plus the path-validity mask; turning logits
// into split ratios (softmax, or Gaussian exploration during training) is the
// trainer's/scheme's business.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "core/flow_gnn.h"
#include "core/policy_net.h"
#include "te/scheme.h"

namespace teal::core {

// Type-erased forward result shared by TealModel and the Figure 14 ablation
// variants: per-demand policy logits, the path-validity mask, and an opaque
// cache the owning model needs for its hand-written backward pass.
//
// A ModelForward is also the unit of workspace reuse: forward_ws() re-runs a
// model into the same object, and `owner` records which model produced the
// cache so a stale cache from a different model is never reinterpreted.
struct ModelForward {
  nn::Mat logits;  // (D, k)
  nn::Mat mask;    // (D, k)
  std::shared_ptr<void> cache;
  const void* owner = nullptr;
};

// Opaque per-worker backward scratch for the workspace training path, type-
// erased the same way ModelForward is: the owning model allocates its typed
// grad temporaries on first use and reuses them afterwards, so warm training
// steps run the whole backward without heap allocation. Every value inside is
// fully overwritten per call — sharing one TrainBackward across sequential
// rollouts on the same worker is safe; concurrent rollouts need distinct
// objects.
struct TrainBackward {
  std::shared_ptr<void> cache;
  const void* owner = nullptr;
};

// The typed cache behind `slot` (a ModelForward or TrainBackward) for the
// model tagged `owner`. A cache from another owner — or one still shared with
// another ModelForward that may back-propagate through it — is replaced by a
// fresh one rather than reinterpreted or overwritten in place.
template <typename Cache, typename Slot>
Cache& claim_cache(Slot& slot, const void* owner) {
  if (slot.owner != owner || slot.cache == nullptr || slot.cache.use_count() != 1) {
    slot.cache = std::make_shared<Cache>();
    slot.owner = owner;
  }
  return *static_cast<Cache*>(slot.cache.get());
}

// The typed f64 forward cache `owner` left in `fwd`, for its backward pass.
// Throws std::logic_error on a foreign cache (another model's, or a narrowed
// f32 inference cache, which holds no double activations).
template <typename Cache>
const Cache& owned_cache(const ModelForward& fwd, const void* owner, const char* who) {
  if (fwd.owner != owner || fwd.cache == nullptr) {
    throw std::logic_error(std::string(who) +
                           ": forward cache was not produced by this model's f64 forward "
                           "(foreign or narrowed f32 caches cannot back-propagate)");
  }
  return *static_cast<const Cache*>(fwd.cache.get());
}

// The one seam the trainers (COMA*, direct loss), TealScheme and the serving
// layer drive every model through — Teal and each Figure 14 ablation variant
// (§5.7) alike: one workspace forward, one workspace backward.
class Model {
 public:
  virtual ~Model() = default;

  // Runs the model into `fwd`, reusing its cache when this model produced it
  // (warm calls allocate nothing). Per-demand stages may fan out over
  // `shards`, writing disjoint rows; results are bit-identical for every
  // plan, and `stats` (optional, shards.n_shards entries) collects per-shard
  // accounting. `precision` selects the NN arithmetic: f64 is the reference;
  // a narrowed precision widens logits/mask back to double so everything
  // downstream (masked softmax, ADMM) is unchanged, and requires prepare()
  // first. A precision the model does not support throws std::logic_error —
  // never a silent f64 fallback. Safe to call concurrently with distinct
  // `fwd` objects.
  virtual void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                          const std::vector<double>* capacities, ModelForward& fwd,
                          const ShardPlan& shards, ShardStat* stats = nullptr,
                          te::Precision precision = te::Precision::f64) const = 0;

  // Back-propagates d(loss)/d(logits) through an f64 forward of this model
  // (std::logic_error on any other cache), keeping grad temporaries in `bws`
  // and accumulating parameter grads into `grads` (params() order) instead
  // of Param::g. const, so rollout workers with distinct (fwd, bws, grads)
  // triples run concurrently over one shared model.
  virtual void backward_ws(const te::Problem& pb, const ModelForward& fwd,
                           const nn::Mat& grad_logits, TrainBackward& bws,
                           nn::GradRefs grads) const = 0;

  virtual std::vector<nn::Param*> params() = 0;
  virtual int k_paths() const = 0;

  // Narrowed forwards are opt-in: the default model runs f64 only.
  virtual bool supports(te::Precision p) const { return p == te::Precision::f64; }
  // Snapshots the current parameters for forward_ws at `p` (a no-op for
  // f64). Must run before the first forward at `p` and after any further
  // training; not thread-safe against concurrent forwards.
  virtual void prepare(te::Precision p) { check_precision(p); }

  void save(const std::string& path) { nn::save_params(path, params()); }
  bool load(const std::string& path) { return nn::load_params(path, params()); }

 protected:
  void check_precision(te::Precision p) const {
    if (!supports(p)) {
      throw std::logic_error(std::string("Model: precision ") + te::precision_name(p) +
                             " is not supported by this model");
    }
  }
};

struct TealModelConfig {
  FlowGnnConfig gnn;
  PolicyConfig policy;
};

class TealModel : public Model {
 public:
  TealModel(const TealModelConfig& cfg, int k_paths, std::uint64_t seed = 42);

  struct Forward {
    FlowGnn::Forward gnn;
    PolicyNet::Forward policy;
    nn::Mat mask;    // (D, k) path validity
    nn::Mat logits;  // (D, k), alias of policy.logits
  };

  // Narrowed inference caches (the float mirrors a SolveWorkspace grows when
  // the solve runs at Precision::f32). Never feeds backward().
  struct ForwardF32 {
    FlowGnn::ForwardF gnn;
    PolicyNet::ForwardF policy;
  };

  // Typed reference API, outside the Model seam: an allocating forward and a
  // backward that accumulates into Param::g. It is the oracle backward_ws is
  // checked against (tests/train_test.cpp reference trainers, the gradient
  // check in tests/core_model_test.cpp).
  Forward forward(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* capacities = nullptr) const;

  // Backward from d(loss)/d(logits) through the policy net and FlowGNN.
  void backward(const te::Problem& pb, const Forward& fwd, const nn::Mat& grad_logits);

  // Typed cache behind the TrainBackward seam: the policy/GNN backward
  // workspaces plus the two inter-module grad matrices.
  struct BackwardCache {
    PolicyNet::BackwardWs policy;
    FlowGnn::BackwardWs gnn;
    nn::Mat grad_input;  // (D, k*dim) d(loss)/d(policy input)
    nn::Mat grad_paths;  // (N_p, dim) d(loss)/d(final path embeddings)
  };

  // Workspace variant writing into (and reusing) a caller-owned Forward.
  void forward(const te::Problem& pb, const te::TrafficMatrix& tm,
               const std::vector<double>* capacities, Forward& fwd) const;

  // Model interface. forward_ws dispatches on `precision` between the f64
  // pipeline and the narrowed (f32) one.
  void forward_ws(const te::Problem& pb, const te::TrafficMatrix& tm,
                  const std::vector<double>* capacities, ModelForward& fwd,
                  const ShardPlan& shards, ShardStat* stats = nullptr,
                  te::Precision precision = te::Precision::f64) const override;
  void backward_ws(const te::Problem& pb, const ModelForward& fwd,
                   const nn::Mat& grad_logits, TrainBackward& bws,
                   nn::GradRefs grads) const override;
  std::vector<nn::Param*> params() override;
  bool supports(te::Precision) const override { return true; }
  void prepare(te::Precision p) override;

  int k_paths() const override { return k_; }
  const TealModelConfig& config() const { return cfg_; }

 private:
  // Shared pipeline body; leaves Forward::logits (the typed-API alias of
  // policy.logits) unset so forward_ws can skip that copy on the hot path.
  // The FlowGNN demand passes, the policy-input assembly and the policy
  // forward all fan out over `shards`.
  void run_pipeline(const te::Problem& pb, const te::TrafficMatrix& tm,
                    const std::vector<double>* capacities, Forward& fwd,
                    const ShardPlan& shards, ShardStat* stats = nullptr) const;

  // The narrowed (f32) forward_ws: float GNN and policy over the blocked
  // weight panels, a fused per-demand tail and the f64 widening of the logits.
  void forward_ws_narrowed(const te::Problem& pb, const te::TrafficMatrix& tm,
                           const std::vector<double>* capacities, ModelForward& fwd,
                           const ShardPlan& shards, ShardStat* stats) const;

  TealModelConfig cfg_;
  int k_;
  util::Rng init_rng_;  // declared before the networks: it seeds their init
  FlowGnn gnn_;
  PolicyNet policy_;
  // ModelForward::owner tag for the narrowed caches: an f32 cache holds a
  // ForwardF32, not a Forward, so it must never be reinterpreted by the f64
  // path (and vice versa). Tagging with this member's address instead of `this` keeps the narrow/f64 cache kinds
  // distinct per model instance.
  char f32_owner_tag_ = 0;
};

// Converts logits + mask into per-demand split ratios via masked softmax.
// Rows with no valid path stay all-zero.
nn::Mat splits_from_logits(const nn::Mat& logits, const nn::Mat& mask);

// Writes a (D, k) split matrix into a flat Allocation on the problem's global
// path id space.
te::Allocation allocation_from_splits(const te::Problem& pb, const nn::Mat& splits);

// Same, into a caller-owned Allocation (capacity reused on warm calls).
void allocation_from_splits_into(const te::Problem& pb, const nn::Mat& splits,
                                 te::Allocation& a);

// Row-range variant for sharded callers: writes the split entries of demands
// [d_begin, d_end) only; `a.split` must be pre-sized to total_paths().
void allocation_from_splits_rows(const te::Problem& pb, const nn::Mat& splits,
                                 te::Allocation& a, int d_begin, int d_end);

}  // namespace teal::core
