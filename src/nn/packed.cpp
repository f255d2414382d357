// Blocked-panel kernels for both element types (see packed.h for the layout
// and the precision discipline). The inner loop broadcasts one input value
// across a kLanes-wide output vector — unit-stride loads and stores, no
// horizontal reductions — so every vector lane carries an independent output
// while each output still accumulates alone, in ascending input order, from
// its bias. That is why the f64 reference forward can run here at vector
// width with the bits of the scalar loop.
#include "nn/packed.h"

#include <algorithm>
#include <stdexcept>

#if defined(TEAL_SIMD)
#define TEAL_PACKED_PRAGMA(x) _Pragma(#x)
#define TEAL_PACKED_SIMD TEAL_PACKED_PRAGMA(omp simd)
#else
#define TEAL_PACKED_SIMD
#endif

// Runtime ISA dispatch: the translation unit is compiled for the portable
// baseline, and target_clones re-specializes a driver — with the panel
// kernel inlined into each clone — for wider vector units, picked via ifunc
// at first call. The blocked layout is what makes the width usable (a full
// lane vector of independent outputs), so unlike the dot-product kernels it
// scales with the clone's lane count.
//  * f64, every GCC x86-64 build: "default" and "avx2" only. Neither target
//    has FMA, so no clone can contract x*w + acc into one rounding, and the
//    bits equal the strictly ordered scalar loop on every host. An
//    x86-64-v4 (or -march=native) body would: GCC contracts mul+add into
//    FMA under -std=c++20 too, which changed the bits of every ASN layer
//    shape when measured (DESIGN.md "Precision & SIMD").
//  * f32, SIMD builds only: "default", "avx2" and x86-64-v4. Contraction
//    changes rounding but not the ascending-i order, so results stay
//    identical across shard counts and repeat runs on one machine.
//  * Sanitizer builds run the baseline body only: the ifunc resolver runs
//    during relocation, before the sanitizer runtime is initialized, and
//    the TSan test binaries that link the kernel crashed there. The bits
//    are the same.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__) && !defined(__SANITIZE_ADDRESS__)
#define TEAL_PACKED_CLONES_F64 __attribute__((target_clones("default", "avx2")))
#if defined(TEAL_SIMD)
#define TEAL_PACKED_CLONES_F32 \
  __attribute__((target_clones("default", "avx2", "arch=x86-64-v4")))
#endif
#endif
#ifndef TEAL_PACKED_CLONES_F64
#define TEAL_PACKED_CLONES_F64
#endif
#ifndef TEAL_PACKED_CLONES_F32
#define TEAL_PACKED_CLONES_F32
#endif

// The kernel must inline into each clone: a call out of a clone would run
// the baseline body at baseline width.
#if defined(__GNUC__)
#define TEAL_PACKED_INLINE [[gnu::always_inline]] inline
#else
#define TEAL_PACKED_INLINE inline
#endif

namespace teal::nn {

namespace {

#if defined(__GNUC__)
#define TEAL_PACKED_VECEXT 1
// One panel lane-vector as a compiler vector type (32 bytes: 4 doubles or 8
// floats). The vector extension keeps the RB accumulator vectors in
// registers across the inner loop (the plain-array kernel below spills them
// to the stack every iteration), and each clone lowers the same ops at its
// own ISA width — SSE2 splits a 32-byte vector into two XMM ops, AVX2 uses
// one YMM.
template <typename T>
struct LaneVec;
template <>
struct LaneVec<float> {
  typedef float type __attribute__((vector_size(32)));
};
template <>
struct LaneVec<double> {
  typedef double type __attribute__((vector_size(32)));
};
#endif

// One block of up to four rows across every panel. The row block is the
// outer tile: its RB input rows (a few hundred bytes) and the whole panel
// set (a few KB for this repo's layer shapes) stay L1-resident while the
// block runs, so `x` streams through the kernel exactly once — panels-outer
// ordering would re-read all of `x` once per panel. Register-blocking the
// rows amortizes the panel loads across RB accumulator sets.
template <int RB, typename T>
TEAL_PACKED_INLINE void panel_rows(const BasicMat<T>& x, const BasicPackedMat<T>& w,
                                   std::span<const T> b, BasicMat<T>& y, int in, int out,
                                   int r) {
  constexpr int L = BasicPackedMat<T>::kLanes;
  const T* xr[RB];
  for (int j = 0; j < RB; ++j) xr[j] = x.row_ptr(r + j);
  for (int p = 0; p < w.panels(); ++p) {
    const T* panel = w.panel_ptr(p);
    const int o0 = p * L;
    const int o_count = std::min(L, out - o0);
#if defined(TEAL_PACKED_VECEXT)
    using V = typename LaneVec<T>::type;
    static_assert(sizeof(V) == L * sizeof(T), "one lane vector per panel row");
    V binit;
    for (int l = 0; l < L; ++l) binit[l] = l < o_count ? b[static_cast<std::size_t>(o0 + l)] : T(0);
    V acc[RB];
    for (int j = 0; j < RB; ++j) acc[j] = binit;
    for (int i = 0; i < in; ++i) {
      V wv;
      __builtin_memcpy(&wv, panel + static_cast<std::size_t>(i) * L, sizeof(V));
      for (int j = 0; j < RB; ++j) acc[j] += xr[j][i] * wv;
    }
    for (int j = 0; j < RB; ++j) {
      T* yr = y.row_ptr(r + j) + o0;
      if (o_count == L) {
        __builtin_memcpy(yr, &acc[j], sizeof(V));
      } else {
        for (int l = 0; l < o_count; ++l) yr[l] = acc[j][l];
      }
    }
#else
    T acc[RB][L];
    for (int j = 0; j < RB; ++j) {
      for (int l = 0; l < L; ++l) acc[j][l] = l < o_count ? b[static_cast<std::size_t>(o0 + l)] : T(0);
    }
    for (int i = 0; i < in; ++i) {
      const T* wv = panel + static_cast<std::size_t>(i) * L;
      for (int j = 0; j < RB; ++j) {
        const T v = xr[j][i];
        TEAL_PACKED_SIMD
        for (int l = 0; l < L; ++l) acc[j][l] += v * wv[l];
      }
    }
    for (int j = 0; j < RB; ++j) {
      T* yr = y.row_ptr(r + j) + o0;
      for (int l = 0; l < o_count; ++l) yr[l] = acc[j][l];
    }
#endif
  }
}

template <typename T>
TEAL_PACKED_INLINE void forward_rows_body(const BasicMat<T>& x, const BasicPackedMat<T>& w,
                                          std::span<const T> b, BasicMat<T>& y,
                                          int row_begin, int row_end) {
  const int in = x.cols(), out = w.rows();
  int r = row_begin;
  for (; r + 4 <= row_end; r += 4) panel_rows<4>(x, w, b, y, in, out, r);
  for (; r < row_end; ++r) panel_rows<1>(x, w, b, y, in, out, r);
}

// The dispatched drivers: forward_rows_body inlines into each clone, so
// every loop recompiles at the clone's vector width.
TEAL_PACKED_CLONES_F64
void forward_rows(const Mat& x, const PackedMat& w, std::span<const double> b, Mat& y,
                  int row_begin, int row_end) {
  forward_rows_body(x, w, b, y, row_begin, row_end);
}

TEAL_PACKED_CLONES_F32
void forward_rows(const MatF& x, const PackedMatF& w, std::span<const float> b, MatF& y,
                  int row_begin, int row_end) {
  forward_rows_body(x, w, b, y, row_begin, row_end);
}

template <typename T>
void check_shapes(const BasicMat<T>& x, const BasicPackedMat<T>& w, std::span<const T> b,
                  const BasicMat<T>& y) {
  if (w.cols() != x.cols()) {
    throw std::invalid_argument("linear_forward_rows_blocked: shape mismatch");
  }
  if (static_cast<int>(b.size()) != w.rows()) {
    throw std::invalid_argument("linear_forward_rows_blocked: bias");
  }
  if (y.rows() != x.rows() || y.cols() != w.rows()) {
    throw std::invalid_argument("linear_forward_rows_blocked: y must be pre-sized");
  }
}

}  // namespace

template <typename T>
void pack_weights(const BasicMat<T>& w, BasicPackedMat<T>& dst) {
  const int out = w.rows(), in = w.cols();
  dst.resize(out, in);
  constexpr int L = BasicPackedMat<T>::kLanes;
  for (int p = 0; p < dst.panels(); ++p) {
    T* panel = dst.panel_ptr(p);
    for (int i = 0; i < in; ++i) {
      for (int l = 0; l < L; ++l) {
        const int o = p * L + l;
        panel[static_cast<std::size_t>(i) * L + l] =
            o < out ? w.at(o, i) : T(0);  // zero the padding lanes
      }
    }
  }
}

template <typename T>
void linear_forward_rows_blocked(const BasicMat<T>& x, const BasicPackedMat<T>& w,
                                 std::span<const std::type_identity_t<T>> b, BasicMat<T>& y,
                                 int row_begin, int row_end) {
  check_shapes(x, w, b, y);
  forward_rows(x, w, b, y, row_begin, row_end);
}

template <typename T>
void linear_forward_blocked(const BasicMat<T>& x, const BasicPackedMat<T>& w,
                            std::span<const std::type_identity_t<T>> b, BasicMat<T>& y) {
  y.resize(x.rows(), w.rows());
  linear_forward_rows_blocked(x, w, b, y, 0, x.rows());
}

void linear_forward_rows_blocked_baseline(const Mat& x, const PackedMat& w,
                                          std::span<const double> b, Mat& y, int row_begin,
                                          int row_end) {
  check_shapes(x, w, b, y);
  forward_rows_body(x, w, b, y, row_begin, row_end);
}

template void pack_weights<double>(const Mat&, PackedMat&);
template void pack_weights<float>(const MatF&, PackedMatF&);
template void linear_forward_rows_blocked<double>(const Mat&, const PackedMat&,
                                                  std::span<const double>, Mat&, int, int);
template void linear_forward_rows_blocked<float>(const MatF&, const PackedMatF&,
                                                 std::span<const float>, MatF&, int, int);
template void linear_forward_blocked<double>(const Mat&, const PackedMat&,
                                             std::span<const double>, Mat&);
template void linear_forward_blocked<float>(const MatF&, const PackedMatF&,
                                            std::span<const float>, MatF&);

}  // namespace teal::nn
