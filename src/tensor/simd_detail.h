// Internal to the SIMD layer: the scalar reference kernels, shared by
// the scalar KernelTable (tensor/simd.cc) and the vector TUs (scalar
// remainder paths must round exactly like the pure-scalar table where
// the contract says "bit-identical"). Every function here is inline and
// header-defined so each TU compiles it under -ffp-contract=off with
// identical IEEE semantics. Not part of the public simd.h surface.

#ifndef GRADGCL_TENSOR_SIMD_DETAIL_H_
#define GRADGCL_TENSOR_SIMD_DETAIL_H_

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/simd.h"

namespace gradgcl {
namespace simd {
namespace detail {

// k-block for the scalar ikj GEMM: 32 rows of B x 512 doubles =
// 128 KiB, sized for L2 residency while a strip of output rows streams
// over the block. Per-element accumulation stays kk-ascending across
// blocks, so the blocking never changes bits.
inline constexpr int64_t kScalarKBlock = 32;

inline void GemmScalar(const double* a, int64_t lda, const double* b,
                       int64_t ldb, double* c, int64_t ldc, int64_t rows,
                       int64_t k, int64_t m, const double* row_scale,
                       double post) {
  for (int64_t i = 0; i < rows; ++i) {
    std::fill(c + i * ldc, c + i * ldc + m, 0.0);
  }
  for (int64_t kb = 0; kb < k; kb += kScalarKBlock) {
    const int64_t kend = std::min(k, kb + kScalarKBlock);
    for (int64_t i = 0; i < rows; ++i) {
      const double* arow = a + i * lda;
      double* crow = c + i * ldc;
      if (row_scale == nullptr) {
        for (int64_t kk = kb; kk < kend; ++kk) {
          const double av = arow[kk];
          const double* brow = b + kk * ldb;
          for (int64_t j = 0; j < m; ++j) crow[j] += av * brow[j];
        }
      } else {
        const double si = row_scale[i];
        for (int64_t kk = kb; kk < kend; ++kk) {
          const double av = arow[kk] * si;
          const double* brow = b + kk * ldb;
          for (int64_t j = 0; j < m; ++j) crow[j] += av * brow[j];
        }
      }
    }
  }
  if (post != 1.0) {
    for (int64_t i = 0; i < rows; ++i) {
      double* crow = c + i * ldc;
      for (int64_t j = 0; j < m; ++j) crow[j] *= post;
    }
  }
}

inline void GemmTransAScalar(const double* a, int64_t lda, const double* b,
                             int64_t ldb, double* c, int64_t ldc, int64_t i0,
                             int64_t i1, int64_t k, int64_t m) {
  for (int64_t i = i0; i < i1; ++i) {
    std::fill(c + i * ldc, c + i * ldc + m, 0.0);
  }
  for (int64_t kb = 0; kb < k; kb += kScalarKBlock) {
    const int64_t kend = std::min(k, kb + kScalarKBlock);
    for (int64_t i = i0; i < i1; ++i) {
      double* crow = c + i * ldc;
      for (int64_t kk = kb; kk < kend; ++kk) {
        const double av = a[kk * lda + i];
        const double* brow = b + kk * ldb;
        for (int64_t j = 0; j < m; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

inline double DotScalar(const double* x, const double* y, int64_t n) {
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) s += x[i] * y[i];
  return s;
}

inline void GemmTransBScalar(const double* a, const double* b, double* c,
                             int64_t ldc, int64_t rows, int64_t k, int64_t m,
                             double scale) {
  // A tile of B rows is reused across the whole strip of A rows before
  // moving on; each dot completes before the scale is rounded in.
  for (int64_t jb = 0; jb < m; jb += kScalarKBlock) {
    const int64_t jend = std::min(m, jb + kScalarKBlock);
    for (int64_t i = 0; i < rows; ++i) {
      const double* arow = a + i * k;
      double* crow = c + i * ldc;
      for (int64_t j = jb; j < jend; ++j) {
        crow[j] = DotScalar(arow, b + j * k, k) * scale;
      }
    }
  }
}

inline double SumScalar(const double* x, int64_t n) {
  double s = 0.0;
  for (int64_t i = 0; i < n; ++i) s += x[i];
  return s;
}

inline double SumSqScalar(const double* x, int64_t n) {
  return DotScalar(x, x, n);
}

inline void AddScalar(double* y, const double* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] += x[i];
}

inline void SubScalar(double* y, const double* x, int64_t n) {
  for (int64_t i = 0; i < n; ++i) y[i] -= x[i];
}

inline void ScaleScalar(double* out, const double* x, int64_t n, double s) {
  for (int64_t i = 0; i < n; ++i) out[i] = x[i] * s;
}

inline void HadamardScalar(double* out, const double* a, const double* b,
                           int64_t n) {
  for (int64_t i = 0; i < n; ++i) out[i] = a[i] * b[i];
}

inline int32_t DotI8Scalar(const int8_t* x, const int8_t* y, int64_t n) {
  int32_t s = 0;
  for (int64_t i = 0; i < n; ++i) {
    s += static_cast<int32_t>(x[i]) * static_cast<int32_t>(y[i]);
  }
  return s;
}

inline int32_t L2I8Scalar(const int8_t* x, const int8_t* y, int64_t n) {
  int32_t s = 0;
  for (int64_t i = 0; i < n; ++i) {
    const int32_t d = static_cast<int32_t>(x[i]) - static_cast<int32_t>(y[i]);
    s += d * d;
  }
  return s;
}

inline void AdamScalar(double* w, double* m, double* v, const double* g,
                       int64_t n, const AdamArgs& args) {
  const double omb1 = 1.0 - args.beta1;
  const double omb2 = 1.0 - args.beta2;
  for (int64_t i = 0; i < n; ++i) {
    const double gi = g[i];
    m[i] = args.beta1 * m[i] + omb1 * gi;
    v[i] = args.beta2 * v[i] + omb2 * gi * gi;
    const double m_hat = m[i] / args.bc1;
    const double v_hat = v[i] / args.bc2;
    double delta = m_hat / (std::sqrt(v_hat) + args.eps);
    if (args.weight_decay > 0.0) delta += args.weight_decay * w[i];
    w[i] -= args.lr * delta;
  }
}

}  // namespace detail

// Vector tables, defined in their own TUs when the build compiles them
// in (see src/CMakeLists.txt); referenced only by the dispatcher.
#if defined(GRADGCL_SIMD_AVX2)
const KernelTable* Avx2Table();
#endif
#if defined(GRADGCL_SIMD_NEON)
const KernelTable* NeonTable();
#endif

}  // namespace simd
}  // namespace gradgcl

#endif  // GRADGCL_TENSOR_SIMD_DETAIL_H_
