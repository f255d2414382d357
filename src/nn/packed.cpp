// Blocked-panel kernels for the narrowed forward (see packed.h for the
// layout and the precision discipline). The inner loop broadcasts one input
// value across a kLanes-wide output vector — unit-stride loads and stores,
// no horizontal reductions — which is what lets the f32 path vectorize past
// the dot-product kernels on the GNN's short input spans. Accumulation per
// output neuron stays single-accumulator, ascending-input-order, so the
// result is row-partition invariant and matches the strictly ordered scalar
// f32 arithmetic.
#include "nn/packed.h"

#include <algorithm>
#include <stdexcept>

#if defined(TEAL_SIMD)
#define TEAL_PACKED_PRAGMA(x) _Pragma(#x)
#define TEAL_PACKED_SIMD TEAL_PACKED_PRAGMA(omp simd)
#else
#define TEAL_PACKED_SIMD
#endif

// Runtime ISA dispatch for the blocked drivers (SIMD builds only): the
// translation unit is compiled for the portable baseline, and target_clones
// re-specializes the driver — with the panel kernel inlined into each clone
// — for wider vector units, picked via ifunc at first call. The blocked
// layout is what makes the width usable (a full lane vector of independent
// outputs, no horizontal reductions), so unlike the dot-product kernels it
// actually scales with the clone's lane count. f32 only: the clones may
// contract mul+add to FMA, which changes rounding but not the ascending-i
// accumulation order, so the shard bit-identity contract is untouched —
// results stay identical across shard counts and repeat runs on one machine,
// and may differ across ISAs exactly like any narrowed result under a
// different build flag. The f64 path never enters this file. Scalar
// (TEAL_SIMD=OFF) builds keep the single portable body.
#if defined(TEAL_SIMD) && defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define TEAL_PACKED_CLONES \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#else
#define TEAL_PACKED_CLONES
#endif

namespace teal::nn {

namespace {

#if defined(__GNUC__)
#define TEAL_PACKED_VECEXT 1
// One panel lane-vector as a compiler vector type: lane count fixed at
// PackedMat::kLanes (8). The vector extension guarantees the RB accumulator
// vectors live in registers across the inner loop (the plain-array kernel
// below spills them to the stack every iteration), and each target_clones
// clone lowers the same ops at its own ISA width — SSE2 splits a vf8 into
// two XMM ops, AVX2/v4 use one YMM with FMA.
typedef float vf8 __attribute__((vector_size(32)));

inline vf8 load_lanes(const float* p) {
  vf8 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
#endif

// One block of up to four rows across every panel. The row block is the
// outer tile: its RB input rows (a few hundred bytes) and the whole panel
// set (a few KB for this repo's layer shapes) stay L1-resident while the
// block runs, so `x` streams through the kernel exactly once — panels-outer
// ordering would re-read all of `x` once per panel. Register-blocking the
// rows amortizes the panel loads across RB accumulator sets.
template <int RB>
inline void panel_rows(const MatF& x, const PackedMat& w, std::span<const float> b, MatF& y,
                       int in, int out, int r) {
  constexpr int L = PackedMat::kLanes;
  const float* xr[RB];
  for (int j = 0; j < RB; ++j) xr[j] = x.row_ptr(r + j);
  for (int p = 0; p < w.panels(); ++p) {
    const float* panel = w.panel_ptr(p);
    const int o0 = p * L;
    const int o_count = std::min(L, out - o0);
#if defined(TEAL_PACKED_VECEXT)
    static_assert(L == 8, "vector kernel is written for 8-lane panels");
    vf8 binit;
    for (int l = 0; l < L; ++l) binit[l] = l < o_count ? b[static_cast<std::size_t>(o0 + l)] : 0.0f;
    vf8 acc[RB];
    for (int j = 0; j < RB; ++j) acc[j] = binit;
    for (int i = 0; i < in; ++i) {
      const vf8 wv = load_lanes(panel + static_cast<std::size_t>(i) * L);
      for (int j = 0; j < RB; ++j) acc[j] += xr[j][i] * wv;
    }
    for (int j = 0; j < RB; ++j) {
      float* yr = y.row_ptr(r + j) + o0;
      if (o_count == L) {
        __builtin_memcpy(yr, &acc[j], sizeof(vf8));
      } else {
        for (int l = 0; l < o_count; ++l) yr[l] = acc[j][l];
      }
    }
#else
    float acc[RB][L];
    for (int j = 0; j < RB; ++j) {
      for (int l = 0; l < L; ++l) acc[j][l] = l < o_count ? b[static_cast<std::size_t>(o0 + l)] : 0.0f;
    }
    for (int i = 0; i < in; ++i) {
      const float* wv = panel + static_cast<std::size_t>(i) * L;
      for (int j = 0; j < RB; ++j) {
        const float v = xr[j][i];
        TEAL_PACKED_SIMD
        for (int l = 0; l < L; ++l) acc[j][l] += v * wv[l];
      }
    }
    for (int j = 0; j < RB; ++j) {
      float* yr = y.row_ptr(r + j) + o0;
      for (int l = 0; l < o_count; ++l) yr[l] = acc[j][l];
    }
#endif
  }
}

// The clone target: panel_rows inlines into each clone, so every loop
// recompiles at the clone's vector width.
TEAL_PACKED_CLONES
void forward_rows(const MatF& x, const PackedMat& w, std::span<const float> b, MatF& y,
                  int row_begin, int row_end) {
  const int in = x.cols(), out = w.rows();
  int r = row_begin;
  for (; r + 4 <= row_end; r += 4) panel_rows<4>(x, w, b, y, in, out, r);
  for (; r < row_end; ++r) panel_rows<1>(x, w, b, y, in, out, r);
}

}  // namespace

void pack_weights(const MatF& w, PackedMat& dst) {
  const int out = w.rows(), in = w.cols();
  dst.resize(out, in);
  constexpr int L = PackedMat::kLanes;
  for (int p = 0; p < dst.panels(); ++p) {
    float* panel = dst.panel_ptr(p);
    for (int i = 0; i < in; ++i) {
      for (int l = 0; l < L; ++l) {
        const int o = p * L + l;
        panel[static_cast<std::size_t>(i) * L + l] =
            o < out ? w.at(o, i) : 0.0f;  // zero the padding lanes
      }
    }
  }
}

void linear_forward_rows_blocked(const MatF& x, const PackedMat& w, std::span<const float> b,
                                 MatF& y, int row_begin, int row_end) {
  const int in = x.cols(), out = w.rows();
  if (w.cols() != in) {
    throw std::invalid_argument("linear_forward_rows_blocked: shape mismatch");
  }
  if (static_cast<int>(b.size()) != out) {
    throw std::invalid_argument("linear_forward_rows_blocked: bias");
  }
  if (y.rows() != x.rows() || y.cols() != out) {
    throw std::invalid_argument("linear_forward_rows_blocked: y must be pre-sized");
  }
  forward_rows(x, w, b, y, row_begin, row_end);
}

void linear_forward_blocked(const MatF& x, const PackedMat& w, std::span<const float> b,
                            MatF& y) {
  y.resize(x.rows(), w.rows());
  linear_forward_rows_blocked(x, w, b, y, 0, x.rows());
}

}  // namespace teal::nn
