// mat.h — dense row-major matrix, the tensor type of the NN substrate.
//
// The paper implements Teal in PyTorch on a GPU. The models involved are
// tiny (FlowGNN embeddings of <= 6 elements, a 24-neuron policy hidden
// layer); what the GPU buys is *batch* parallelism across tens of thousands
// of paths/demands. We reproduce that with plain matrices whose batched
// products are parallelized over rows via the global thread pool.
//
// The matrix is precision-parameterized: BasicMat<double> (alias Mat) is the
// reference type used everywhere results must be bit-stable — training, the
// ADMM fine-tune, the default solve path — while BasicMat<float> (alias
// MatF) carries the narrowed f32 inference forward, mirroring the paper's
// fp32 GPU inference. The f64 kernels keep strictly ordered arithmetic under
// every build flag (the f64 linear forward runs packed panels, packed.h,
// with the bits of the ordered scalar loop), whereas the f32 kernels may use
// reassociating vectorized reductions under TEAL_SIMD.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace teal::nn {

template <typename T>
class BasicMat {
 public:
  using value_type = T;
  using storage_type = std::vector<T>;

  BasicMat() = default;
  BasicMat(int rows, int cols, T fill = T(0))
      : rows_(rows), cols_(cols), v_(checked_size(rows, cols), fill) {}

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  std::size_t size() const { return v_.size(); }
  bool empty() const { return v_.empty(); }

  T& at(int r, int c) {
    return v_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(c)];
  }
  T at(int r, int c) const {
    return v_[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
              static_cast<std::size_t>(c)];
  }
  T* row_ptr(int r) {
    return v_.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
  }
  const T* row_ptr(int r) const {
    return v_.data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
  }

  storage_type& data() { return v_; }
  const storage_type& data() const { return v_; }

  // Reshapes to (rows, cols), reusing the existing heap buffer whenever its
  // capacity suffices. Element values are unspecified afterwards — callers
  // either overwrite every entry or follow up with zero(). The workspace-based
  // solve path relies on this to keep repeated forward passes allocation-free.
  //
  // Under TEAL_DEBUG_MAT the "unspecified" contract is enforced: every resize
  // (including a warm same-shape one) poison-fills the buffer with signaling
  // NaNs, so any caller that reads an entry it did not write propagates NaN
  // into its outputs and fails the test suite instead of silently reusing
  // stale values.
  void resize(int rows, int cols) {
    const std::size_t n = checked_size(rows, cols);
    rows_ = rows;
    cols_ = cols;
    v_.resize(n);
#ifdef TEAL_DEBUG_MAT
    poison();
#endif
  }

  void zero() { std::fill(v_.begin(), v_.end(), T(0)); }

  // Debug poison-fill (what resize() applies under TEAL_DEBUG_MAT).
  void poison() {
    std::fill(v_.begin(), v_.end(), std::numeric_limits<T>::signaling_NaN());
  }

  bool same_shape(const BasicMat& o) const {
    return rows_ == o.rows_ && cols_ == o.cols_;
  }

 private:
  // Validates before any size arithmetic: a negative dimension must surface
  // as the documented invalid_argument, not as whatever std::vector throws
  // for the size_t-wrapped product.
  static std::size_t checked_size(int rows, int cols) {
    if (rows < 0 || cols < 0) throw std::invalid_argument("Mat: negative shape");
    return static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  }

  int rows_ = 0, cols_ = 0;
  storage_type v_;
};

using Mat = BasicMat<double>;   // reference precision (training, ADMM, default solve)
using MatF = BasicMat<float>;   // narrowed f32 inference forward

// All kernels below write into caller-owned outputs via resize, so a warm
// output (same shape as the previous call) incurs no heap allocation.
// Outputs must not alias inputs. The double kernels keep seed-identical
// ordered arithmetic under every build flag.

// y = x * wT + b_broadcast : x is (n, in), w is (out, in), b is (out), y is (n, out).
// Parallelized over rows of x when n is large. Bias/grad-bias parameters are
// spans so both plain std::vectors and Mat storage bind.
//  * f64: packs w into 4-lane panels on the calling thread (one heap
//    allocation per call) and runs linear_forward_rows_blocked (packed.h),
//    the f64 forward kernel of the whole solve path. Callers that run every
//    solve, like FlowGnn and PolicyNet, pack into their forward workspace
//    instead and call the blocked kernel directly.
//  * f32: the row-major dot-product kernel, the unblocked baseline the f32
//    blocked panels are measured and tested against.
void linear_forward(const Mat& x, const Mat& w, std::span<const double> b, Mat& y);
void linear_forward(const MatF& x, const MatF& w, std::span<const float> b, MatF& y);

// Backward of the same: gx = gy * w ; gw += gyᵀ x ; gb += column sums of gy.
void linear_backward(const Mat& x, const Mat& w, const Mat& gy, Mat& gx, Mat& gw,
                     std::span<double> gb);

// LeakyReLU with slope alpha on negatives, elementwise; backward uses the
// *pre-activation* values.
template <typename T>
void leaky_relu_forward(const BasicMat<T>& x, BasicMat<T>& y, double alpha = 0.01);
void leaky_relu_backward(const Mat& x_pre, const Mat& gy, Mat& gx, double alpha = 0.01);

// Row-wise masked softmax: columns where mask(r, c) == 0 get probability 0.
// mask may be empty (= all valid). A fully-masked row yields an all-zero
// probability row — callers that feed the result to downstream consumers
// (ADMM) must guard that case at their boundary (core::check_policy_mask_rows).
template <typename T>
void softmax_rows(const BasicMat<T>& logits, const BasicMat<T>& mask, BasicMat<T>& probs);

// Row-range variants for demand-sharded callers (core::ShardPlan): compute
// only rows [row_begin, row_end) and require the output pre-sized by the
// caller — resize must never run concurrently. The per-row arithmetic is
// byte-for-byte the full kernel's, so any row partition produces
// bit-identical results (the shard-count invariance tests/shard_test.cpp
// verifies end to end).
void linear_forward_rows(const MatF& x, const MatF& w, std::span<const float> b, MatF& y,
                         int row_begin, int row_end);
template <typename T>
void leaky_relu_forward_rows(const BasicMat<T>& x, BasicMat<T>& y, int row_begin,
                             int row_end, double alpha = 0.01);
template <typename T>
void softmax_rows_range(const BasicMat<T>& logits, const BasicMat<T>& mask,
                        BasicMat<T>& probs, int row_begin, int row_end);

// Backward of row-wise softmax: gx(r,.) = (diag(p) - p pᵀ) gy(r,.).
void softmax_rows_backward(const Mat& probs, const Mat& gy, Mat& gx);

// True when this build vectorizes the f32 inner loops (TEAL_SIMD=ON).
// The f64 kernels stay strictly ordered either way.
bool simd_enabled();

// True when this build poison-fills BasicMat::resize (TEAL_DEBUG_MAT=ON).
bool debug_mat_enabled();

}  // namespace teal::nn
