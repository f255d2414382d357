// packed.h — blocked, lane-aligned weight panels for the narrowed forward.
//
// The row-major kernels in mat.h compute each output neuron as a dot product
// along the *input* dimension. For this repo's layer shapes (in <= 24) that
// wastes the vector unit: every dot ends in a horizontal reduction, and the
// 8-accumulator trick (mat.cpp row_dot) only pays off when the input span is
// long. The blocked layout turns the problem sideways: weights are stored as
// column-blocked panels of kPanelLanes consecutive *outputs* per input
// column, so the inner loop broadcasts one input value and FMAs it into a
// unit-stride lane vector — no gathers, no horizontal sums, and every store
// is contiguous. This is the standard GEMM micro-kernel layout (panel-packed
// B), scaled down to the GNN's tiny dense layers.
//
// Precision discipline (DESIGN.md "Blocked layouts & reduced precision"):
// the blocked kernels exist only for the narrowed (f32) inference path. Per
// output neuron the accumulation still runs in ascending input order with a
// single f32 accumulator, so any row partition of a blocked kernel is
// bit-identical to any other (the shard contract), and the result matches
// the strictly ordered scalar f32 kernel — the reassociation freedom f32 is
// allowed is *not* exercised along the reduction, only across independent
// outputs. The f64 reference path never touches this file.
#pragma once

#include <limits>
#include <span>
#include <stdexcept>

#include "nn/mat.h"
#include "util/arena.h"

namespace teal::nn {

// Lane-width-padded, column-blocked weight panels for a logical (out, in)
// weight matrix. Panel p holds outputs [p*kLanes, (p+1)*kLanes): for each
// input column i, data[(p*in + i)*kLanes + l] is w(p*kLanes + l, i), with
// padding lanes (out..panels*kLanes) zero-filled by pack_weights so they
// contribute nothing and never read uninitialized memory. Storage is
// arena-aware (util::AVec) like BasicMat, so workspace-side panels honor the
// cold-start allocation contract; model-side weight snapshots simply land on
// the heap when no arena is bound.
class PackedMat {
 public:
  static constexpr int kLanes = 8;  // panel width; matches mat.cpp's f32 lane count

  PackedMat() = default;

  int rows() const { return out_; }   // logical output count
  int cols() const { return in_; }    // logical input count
  int panels() const { return panels_; }
  bool empty() const { return v_.empty(); }

  // Reshapes for an (out, in) logical matrix. Element values are unspecified
  // afterwards (pack_weights overwrites everything, padding included); under
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
    for (float& w : v_) w = std::numeric_limits<float>::signaling_NaN();
  }

  const float* panel_ptr(int p) const {
    return v_.data() + static_cast<std::size_t>(p) * static_cast<std::size_t>(in_) * kLanes;
  }
  float* panel_ptr(int p) {
    return v_.data() + static_cast<std::size_t>(p) * static_cast<std::size_t>(in_) * kLanes;
  }

  util::AVec<float>& data() { return v_; }
  const util::AVec<float>& data() const { return v_; }

 private:
  int out_ = 0, in_ = 0, panels_ = 0;
  util::AVec<float> v_;
};

// Packs a row-major (out, in) f32 weight matrix into panels, resizing `dst`
// and zero-filling the padding lanes.
void pack_weights(const MatF& w, PackedMat& dst);

// Blocked batched linear forward over rows [row_begin, row_end):
// y(r, .) = x(r, .) * Wᵀ + b, with W read from lane-blocked panels. `y` must
// be pre-sized to (x.rows(), w.rows()) by the caller (same contract as
// linear_forward_rows — resize must never run under a shard fan-out). Per
// row and output the arithmetic is identical regardless of the row range, so
// any row partition produces bit-identical results.
void linear_forward_rows_blocked(const MatF& x, const PackedMat& w, std::span<const float> b,
                                 MatF& y, int row_begin, int row_end);

// Convenience full-matrix variant: resizes `y` and runs every row (single
// caller thread — the solve path always enters through the rows variant
// under its own shard plan).
void linear_forward_blocked(const MatF& x, const PackedMat& w, std::span<const float> b,
                            MatF& y);

}  // namespace teal::nn
