// module.h — trainable parameters, Linear layer, Adam, serialization.
//
// A deliberately small substrate: parameters register themselves with their
// owning module, the Adam optimizer (the paper trains Teal with Adam at
// lr 1e-4, §4) walks the registry, and save/load streams raw doubles with a
// shape header so trained Teal models can be cached between bench runs.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/mat.h"
#include "nn/packed.h"
#include "util/rng.h"

namespace teal::nn {

struct Param {
  Mat w;  // value
  Mat g;  // gradient accumulator, same shape

  explicit Param(int rows = 0, int cols = 0) : w(rows, cols), g(rows, cols) {}
  void zero_grad() { g.zero(); }
};

// View of per-parameter gradient targets in params() order. The workspace
// backward passes (Linear::backward_acc and the model backward_ws chains)
// accumulate into these instead of the layers' own Param::g — the explicit
// accumulator seam that lets batched training give every rollout its own
// gradient set and reduce them in a fixed order afterwards.
using GradRefs = std::span<Mat* const>;

// One gradient accumulator per parameter, shaped like `params` and addressed
// through refs(). Rollout workers accumulate into disjoint GradAccums
// (commuting writes), then reduce_into() folds them into Param::g strictly
// in call order — so the summed gradient is bit-identical for every worker
// count (same contract as core::ShardPlan, but for parameter space).
class GradAccum {
 public:
  // Sizes the set to match `params` (no-op when already matching, so warm
  // training steps pay nothing).
  void prepare(const std::vector<Param*>& params);
  void zero();
  GradRefs refs() const { return {refs_.data(), refs_.size()}; }

  // Param::g += this set, elementwise, sequentially. Callers reduce the
  // per-rollout sets in rollout order to keep bit-identity.
  void reduce_into(const std::vector<Param*>& params) const;

 private:
  std::vector<Mat> g_;
  std::vector<Mat*> refs_;
};

// Xavier-uniform init, the default for the small dense layers here.
void xavier_init(Mat& w, util::Rng& rng);

// Narrowed inference snapshot of a Linear: weights and bias narrowed to f32
// once, read-only afterwards. The narrowed solve path (TealScheme's f32
// precision) runs its forward through these snapshots while training and the
// f64 path keep using the double parameters — re-snapshot after any further
// parameter update. Weights live in lane-blocked panels (nn::PackedMat) so
// forward_rows runs the broadcast-FMA kernel instead of strided dot products.
struct PackedLinear {
  PackedMat w;          // (out, in) lane-blocked panels
  std::vector<float> b; // (out), the accumulation seed

  void forward_rows(const MatF& x, MatF& y, int row_begin, int row_end) const {
    linear_forward_rows_blocked(x, w, b, y, row_begin, row_end);
  }
  int in_features() const { return w.cols(); }
  int out_features() const { return w.rows(); }
};

class Linear {
 public:
  Linear() = default;
  Linear(int in, int out, util::Rng& rng);

  // y = x Wᵀ + b; caches nothing (callers keep x for backward).
  void forward(const Mat& x, Mat& y) const;
  // Row-range forward for demand-sharded callers; `y` must be pre-sized to
  // (x.rows(), out_features()). Bit-identical to forward() per row.
  void forward_rows(const Mat& x, Mat& y, int row_begin, int row_end) const;
  // Accumulates parameter grads and writes input grad.
  void backward(const Mat& x, const Mat& gy, Mat& gx);
  // Accumulator-seam backward: same arithmetic as backward(), but the
  // parameter grads land in caller-owned buffers (gw shaped (out, in), gb
  // shaped (1, out)) instead of this layer's Param::g. const because the
  // layer itself stays read-only — concurrent calls with distinct targets
  // are safe, which is what fans batched training out across workers.
  void backward_acc(const Mat& x, const Mat& gy, Mat& gx, Mat& gw, Mat& gb) const;

  // Blocked-panel snapshot for the narrowed solve path: f64 -> f32 (round to
  // nearest) packed into panels.
  PackedLinear snapshot_packed() const;

  int in_features() const { return weight_.w.cols(); }
  int out_features() const { return weight_.w.rows(); }

  std::vector<Param*> params() { return {&weight_, &bias_}; }
  // Allocation-free variant for module-level params() builders: appending
  // into one reserved vector keeps a whole model's parameter walk at a
  // single heap allocation (the cold-path TrainContext contract counts it).
  void append_params(std::vector<Param*>& out) {
    out.push_back(&weight_);
    out.push_back(&bias_);
  }

 private:
  Param weight_;  // (out, in)
  Param bias_;    // (1, out)
};

// Adam over an explicit parameter list (decoupled from module structure).
class Adam {
 public:
  explicit Adam(std::vector<Param*> params, double lr = 1e-4, double beta1 = 0.9,
                double beta2 = 0.999, double eps = 1e-8);

  void zero_grad();
  // One descent step using the accumulated gradients (minimization).
  void step();
  // Clips the global gradient L2 norm to `max_norm` (0 disables).
  void clip_grad_norm(double max_norm);

  double lr = 1e-4;

 private:
  std::vector<Param*> params_;
  std::vector<Mat> m_, v_;
  double beta1_, beta2_, eps_;
  std::int64_t t_ = 0;
};

// Binary serialization of a parameter list (shape-checked on load).
void save_params(const std::string& path, const std::vector<Param*>& params);
bool load_params(const std::string& path, const std::vector<Param*>& params);

}  // namespace teal::nn
