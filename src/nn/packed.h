// packed.h — blocked, lane-aligned weight panels: the one dense-layer
// forward kernel of the solve path, f64 and f32 alike.
//
// The row-major kernels in mat.h compute each output neuron as a dot product
// along the *input* dimension: one scalar add chain per output, which for
// this repo's layer shapes (in <= 24) leaves the vector unit idle. The
// blocked layout turns the problem sideways: weights are stored as
// column-blocked panels of kLanes consecutive *outputs* per input column (one
// 32-byte vector: 4 f64 or 8 f32 lanes), so the inner loop broadcasts one
// input value and multiplies it into a unit-stride lane vector — no gathers,
// no horizontal sums, and every store is contiguous. This is the standard
// GEMM micro-kernel layout (panel-packed B), scaled down to the GNN's tiny
// dense layers.
//
// Precision discipline (DESIGN.md "Blocked layouts & reduced precision"):
// every output keeps one accumulator, seeded with its bias, that adds
// x[i] * w[o][i] in ascending i. So any row partition of a blocked kernel is
// bit-identical to any other (the shard contract), and the reassociation
// freedom f32 is allowed is *not* exercised along the reduction, only across
// independent outputs.
//  * f64 — the multiply and the add round separately, so the bits equal the
//    strictly ordered scalar loop (the seed's row_dot) on every host: the f64
//    driver's ISA clones are "default" and "avx2", neither of which has FMA.
//  * f32 — SIMD builds may dispatch an FMA-capable clone, which drops one
//    intermediate rounding; results stay deterministic per machine.
#pragma once

#include <limits>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "nn/mat.h"

namespace teal::nn {

// Lane-width-padded, column-blocked weight panels for a logical (out, in)
// weight matrix. Panel p holds outputs [p*kLanes, (p+1)*kLanes): for each
// input column i, data[(p*in + i)*kLanes + l] is w(p*kLanes + l, i), with
// padding lanes (out..panels*kLanes) zero-filled by pack_weights so they
// contribute nothing and never read uninitialized memory.
template <typename T>
class BasicPackedMat {
 public:
  // Panel width: one 32-byte vector of consecutive outputs.
  static constexpr int kLanes = 32 / static_cast<int>(sizeof(T));

  BasicPackedMat() = default;

  int rows() const { return out_; }   // logical output count
  int cols() const { return in_; }    // logical input count
  int panels() const { return panels_; }
  bool empty() const { return v_.empty(); }

  // Reshapes for an (out, in) logical matrix, reusing the buffer when its
  // capacity suffices. Element values are unspecified afterwards
  // (pack_weights overwrites everything, padding included); under
  // TEAL_DEBUG_MAT the buffer is poison-filled exactly like BasicMat::resize,
  // so a kernel run against an unpacked panel fails the suite loudly.
  void resize(int out, int in) {
    if (out < 0 || in < 0) throw std::invalid_argument("PackedMat: negative shape");
    out_ = out;
    in_ = in;
    panels_ = (out + kLanes - 1) / kLanes;
    v_.resize(static_cast<std::size_t>(panels_) * static_cast<std::size_t>(in) * kLanes);
#ifdef TEAL_DEBUG_MAT
    poison();
#endif
  }

  // Debug poison-fill (what resize() applies under TEAL_DEBUG_MAT).
  void poison() {
    for (T& w : v_) w = std::numeric_limits<T>::signaling_NaN();
  }

  const T* panel_ptr(int p) const {
    return v_.data() + static_cast<std::size_t>(p) * static_cast<std::size_t>(in_) * kLanes;
  }
  T* panel_ptr(int p) {
    return v_.data() + static_cast<std::size_t>(p) * static_cast<std::size_t>(in_) * kLanes;
  }

  std::vector<T>& data() { return v_; }
  const std::vector<T>& data() const { return v_; }

 private:
  int out_ = 0, in_ = 0, panels_ = 0;
  std::vector<T> v_;
};

using PackedMat = BasicPackedMat<double>;  // 4-lane panels, the reference forward
using PackedMatF = BasicPackedMat<float>;  // 8-lane panels, the narrowed forward

// Packs a row-major (out, in) weight matrix into panels, resizing `dst`
// (allocation-free once warm) and zero-filling the padding lanes.
template <typename T>
void pack_weights(const BasicMat<T>& w, BasicPackedMat<T>& dst);

// Blocked batched linear forward over rows [row_begin, row_end):
// y(r, .) = x(r, .) * Wᵀ + b, with W read from lane-blocked panels. `y` must
// be pre-sized to (x.rows(), w.rows()) by the caller (resize must never run
// under a shard fan-out). Per row and output the arithmetic is identical
// regardless of the row range, so any row partition produces bit-identical
// results.
template <typename T>
void linear_forward_rows_blocked(const BasicMat<T>& x, const BasicPackedMat<T>& w,
                                 std::span<const std::type_identity_t<T>> b, BasicMat<T>& y,
                                 int row_begin, int row_end);

// Convenience full-matrix variant: resizes `y` and runs every row on the
// calling thread.
template <typename T>
void linear_forward_blocked(const BasicMat<T>& x, const BasicPackedMat<T>& w,
                            std::span<const std::type_identity_t<T>> b, BasicMat<T>& y);

// The f64 kernel body compiled for the baseline ISA and called without the
// runtime dispatch — what the "default" clone runs on a host without AVX2.
// Same contract as linear_forward_rows_blocked; it exists so the identity
// tests cover that body on every host.
void linear_forward_rows_blocked_baseline(const Mat& x, const PackedMat& w,
                                          std::span<const double> b, Mat& y, int row_begin,
                                          int row_end);

}  // namespace teal::nn
