// Kernel implementations for both element types. Precision discipline:
//  * T = double — strictly ordered arithmetic, identical to the seed
//    implementation under every build flag. TEAL_SIMD may vectorize the
//    *elementwise* loops (order-independent per element, so still
//    bit-identical) but never the reductions. The f64 linear forward is the
//    packed-panel kernel of packed.cpp: lanes run independent outputs, each
//    output adds its products in ascending input order.
//  * T = float  — the f32 inference path. Under TEAL_SIMD its dot-product
//    reduction reassociates across 8 partial accumulators (vector lanes);
//    the solve itself runs the blocked f32 panels, and this row-major kernel
//    is their unblocked baseline in the EXPERIMENTS.md Precision/SIMD ledger.
#include "nn/mat.h"

#include <algorithm>
#include <cmath>

#include "nn/packed.h"
#include "util/thread_pool.h"

#if defined(TEAL_SIMD)
#define TEAL_PRAGMA(x) _Pragma(#x)
#define TEAL_SIMD_LOOP TEAL_PRAGMA(omp simd)
#define TEAL_SIMD_REDUCE(var) TEAL_PRAGMA(omp simd reduction(+ : var))
#else
#define TEAL_SIMD_LOOP
#define TEAL_SIMD_REDUCE(var)
#endif

namespace teal::nn {

bool simd_enabled() {
#if defined(TEAL_SIMD)
  return true;
#else
  return false;
#endif
}

bool debug_mat_enabled() {
#ifdef TEAL_DEBUG_MAT
  return true;
#else
  return false;
#endif
}

namespace {
// Rows below this threshold are processed inline; above it, through the pool.
constexpr int kParallelRows = 512;

// Runs body(begin, end) over row ranges covering [0, n): one range inline
// below the threshold, pool chunks above it.
template <typename F>
void for_row_ranges(int n, F&& body) {
  if (n >= kParallelRows) {
    util::ThreadPool::global().parallel_chunks(
        static_cast<std::size_t>(n), [&](std::size_t b, std::size_t e) {
          body(static_cast<int>(b), static_cast<int>(e));
        });
  } else {
    body(0, n);
  }
}

template <typename F>
void for_rows(int n, F&& body) {
  for_row_ranges(n, [&](int b, int e) {
    for (int r = b; r < e; ++r) body(r);
  });
}

// f32 dot product with the bias as the accumulation seed. It may
// reassociate into vector lanes under TEAL_SIMD — the narrowed path trades
// bit-stability for throughput, which is exactly the paper's fp32 inference
// contract.
inline float row_dot(const float* a, const float* b, int n, float seed) {
#if defined(TEAL_SIMD)
  constexpr int kLanes = 8;  // partial accumulators, 4-8 wide per the vector unit
  if (n >= 2 * kLanes) {
    float lanes[kLanes] = {};
    int i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      TEAL_SIMD_LOOP
      for (int l = 0; l < kLanes; ++l) lanes[l] += a[i + l] * b[i + l];
    }
    float acc = seed;
    for (; i < n; ++i) acc += a[i] * b[i];
    for (int l = 0; l < kLanes; ++l) acc += lanes[l];
    return acc;
  }
  float acc = seed;
  TEAL_SIMD_REDUCE(acc)
  for (int i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
#else
  float acc = seed;
  for (int i = 0; i < n; ++i) acc += a[i] * b[i];
  return acc;
#endif
}

// Shared row body of the f32 linear_forward / linear_forward_rows: identical
// arithmetic keeps full and row-range calls bit-identical.
inline void linear_row(const MatF& x, const MatF& w, std::span<const float> b, MatF& y,
                       int r) {
  const int in = x.cols(), out = w.rows();
  const float* xr = x.row_ptr(r);
  float* yr = y.row_ptr(r);
  for (int o = 0; o < out; ++o) {
    yr[o] = row_dot(xr, w.row_ptr(o), in, b[static_cast<std::size_t>(o)]);
  }
}
}  // namespace

void linear_forward(const Mat& x, const Mat& w, std::span<const double> b, Mat& y) {
  if (w.cols() != x.cols()) throw std::invalid_argument("linear_forward: shape mismatch");
  if (static_cast<int>(b.size()) != w.rows()) throw std::invalid_argument("linear_forward: bias");
  PackedMat packed;
  pack_weights(w, packed);
  y.resize(x.rows(), w.rows());
  for_row_ranges(x.rows(), [&](int r0, int r1) {
    linear_forward_rows_blocked(x, packed, b, y, r0, r1);
  });
}

void linear_forward(const MatF& x, const MatF& w, std::span<const float> b, MatF& y) {
  const int n = x.rows(), in = x.cols(), out = w.rows();
  if (w.cols() != in) throw std::invalid_argument("linear_forward: shape mismatch");
  if (static_cast<int>(b.size()) != out) throw std::invalid_argument("linear_forward: bias");
  y.resize(n, out);
  for_rows(n, [&](int r) { linear_row(x, w, b, y, r); });
}

void linear_forward_rows(const MatF& x, const MatF& w, std::span<const float> b, MatF& y,
                         int row_begin, int row_end) {
  if (w.cols() != x.cols()) throw std::invalid_argument("linear_forward_rows: shape");
  if (y.rows() != x.rows() || y.cols() != w.rows()) {
    throw std::invalid_argument("linear_forward_rows: y must be pre-sized");
  }
  for (int r = row_begin; r < row_end; ++r) linear_row(x, w, b, y, r);
}

void linear_backward(const Mat& x, const Mat& w, const Mat& gy, Mat& gx, Mat& gw,
                     std::span<double> gb) {
  const int n = x.rows(), in = x.cols(), out = w.rows();
  if (gy.rows() != n || gy.cols() != out) {
    throw std::invalid_argument("linear_backward: gy shape");
  }
  gx.resize(n, in);
  gx.zero();
  for_rows(n, [&](int r) {
    const double* gyr = gy.row_ptr(r);
    double* gxr = gx.row_ptr(r);
    for (int o = 0; o < out; ++o) {
      const double* wr = w.row_ptr(o);
      const double g = gyr[o];
      if (g == 0.0) continue;
      for (int i = 0; i < in; ++i) gxr[i] += g * wr[i];
    }
  });
  // Parameter grads accumulate sequentially (they are small: out x in).
  for (int r = 0; r < n; ++r) {
    const double* xr = x.row_ptr(r);
    const double* gyr = gy.row_ptr(r);
    for (int o = 0; o < out; ++o) {
      const double g = gyr[o];
      if (g == 0.0) continue;
      double* gwr = gw.row_ptr(o);
      for (int i = 0; i < in; ++i) gwr[i] += g * xr[i];
      gb[static_cast<std::size_t>(o)] += g;
    }
  }
}

template <typename T>
void leaky_relu_forward(const BasicMat<T>& x, BasicMat<T>& y, double alpha) {
  y.resize(x.rows(), x.cols());
  const T a = static_cast<T>(alpha);
  const T* xs = x.data().data();
  T* ys = y.data().data();
  const std::size_t sz = x.size();
  // Elementwise: vector lanes never reassociate anything, so the pragma is
  // bit-safe for both element types.
  TEAL_SIMD_LOOP
  for (std::size_t i = 0; i < sz; ++i) {
    ys[i] = xs[i] >= T(0) ? xs[i] : a * xs[i];
  }
}

template <typename T>
void leaky_relu_forward_rows(const BasicMat<T>& x, BasicMat<T>& y, int row_begin,
                             int row_end, double alpha) {
  if (!y.same_shape(x)) throw std::invalid_argument("leaky_relu_forward_rows: y shape");
  const int c = x.cols();
  const T a = static_cast<T>(alpha);
  for (int r = row_begin; r < row_end; ++r) {
    const T* xr = x.row_ptr(r);
    T* yr = y.row_ptr(r);
    TEAL_SIMD_LOOP
    for (int i = 0; i < c; ++i) yr[i] = xr[i] >= T(0) ? xr[i] : a * xr[i];
  }
}

void leaky_relu_backward(const Mat& x_pre, const Mat& gy, Mat& gx, double alpha) {
  gx.resize(x_pre.rows(), x_pre.cols());
  const auto& xs = x_pre.data();
  const auto& gs = gy.data();
  auto& os = gx.data();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    os[i] = xs[i] >= 0.0 ? gs[i] : alpha * gs[i];
  }
}

namespace {
template <typename T>
inline void softmax_row(const BasicMat<T>& logits, const BasicMat<T>& mask,
                        BasicMat<T>& probs, bool has_mask, int r) {
  const int k = logits.cols();
  const T* lr = logits.row_ptr(r);
  T* pr = probs.row_ptr(r);
  T mx = std::numeric_limits<T>::lowest();
  for (int c = 0; c < k; ++c) {
    if (!has_mask || mask.at(r, c) != T(0)) mx = std::max(mx, lr[c]);
  }
  T denom = T(0);
  for (int c = 0; c < k; ++c) {
    if (!has_mask || mask.at(r, c) != T(0)) {
      pr[c] = std::exp(lr[c] - mx);
      denom += pr[c];
    } else {
      pr[c] = T(0);
    }
  }
  if (denom > T(0)) {
    // Elementwise normalization: per-element division is correctly rounded
    // regardless of vector width, so the pragma is bit-safe for both types.
    TEAL_SIMD_LOOP
    for (int c = 0; c < k; ++c) pr[c] /= denom;
  }
}
}  // namespace

template <typename T>
void softmax_rows(const BasicMat<T>& logits, const BasicMat<T>& mask, BasicMat<T>& probs) {
  const int n = logits.rows(), k = logits.cols();
  const bool has_mask = !mask.empty();
  probs.resize(n, k);
  for_rows(n, [&](int r) { softmax_row(logits, mask, probs, has_mask, r); });
}

template <typename T>
void softmax_rows_range(const BasicMat<T>& logits, const BasicMat<T>& mask,
                        BasicMat<T>& probs, int row_begin, int row_end) {
  if (!probs.same_shape(logits)) {
    throw std::invalid_argument("softmax_rows_range: probs must be pre-sized");
  }
  const bool has_mask = !mask.empty();
  for (int r = row_begin; r < row_end; ++r) softmax_row(logits, mask, probs, has_mask, r);
}

void softmax_rows_backward(const Mat& probs, const Mat& gy, Mat& gx) {
  const int n = probs.rows(), k = probs.cols();
  gx.resize(n, k);
  for_rows(n, [&](int r) {
    const double* pr = probs.row_ptr(r);
    const double* gr = gy.row_ptr(r);
    double* xr = gx.row_ptr(r);
    double dotpg = 0.0;
    for (int c = 0; c < k; ++c) dotpg += pr[c] * gr[c];
    for (int c = 0; c < k; ++c) xr[c] = pr[c] * (gr[c] - dotpg);
  });
}

// Explicit instantiations: the reference f64 kernels and the f32 inference
// mirrors. Declarations in mat.h resolve against these.
template void leaky_relu_forward<double>(const Mat&, Mat&, double);
template void leaky_relu_forward<float>(const MatF&, MatF&, double);
template void leaky_relu_forward_rows<double>(const Mat&, Mat&, int, int, double);
template void leaky_relu_forward_rows<float>(const MatF&, MatF&, int, int, double);
template void softmax_rows<double>(const Mat&, const Mat&, Mat&);
template void softmax_rows<float>(const MatF&, const MatF&, MatF&);
template void softmax_rows_range<double>(const Mat&, const Mat&, Mat&, int, int);
template void softmax_rows_range<float>(const MatF&, const MatF&, MatF&, int, int);

}  // namespace teal::nn
