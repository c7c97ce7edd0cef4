// NEON (aarch64) kernel table. float64x2_t is baseline on aarch64, so
// this TU needs no extra -march flags and no runtime CPU check — the
// define is set by the build only on aarch64 targets.
//
// Same contract structure as the AVX2 table with vector width W = 2:
// gemm/gemm_transa keep one FMA chain per output element (vfmaq_f64 in
// the vector body, std::fma in remainders); dot/sum/sumsq/gemm_transb
// use two lane chains stepping k by 2 combined as l0 + l1, then the
// ordered scalar tail; elementwise and Adam are mul/add/sub/div/sqrt
// only and bit-identical to the scalar table.

#include "tensor/simd.h"

#if defined(GRADGCL_SIMD_NEON)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "tensor/simd_detail.h"

namespace gradgcl {
namespace simd {
namespace {

double DotNeon(const double* x, const double* y, int64_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    acc = vfmaq_f64(acc, vld1q_f64(x + i), vld1q_f64(y + i));
  }
  double total = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < n; ++i) total = std::fma(x[i], y[i], total);
  return total;
}

double SumNeon(const double* x, int64_t n) {
  float64x2_t acc = vdupq_n_f64(0.0);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) acc = vaddq_f64(acc, vld1q_f64(x + i));
  double total = vgetq_lane_f64(acc, 0) + vgetq_lane_f64(acc, 1);
  for (; i < n; ++i) total += x[i];
  return total;
}

double SumSqNeon(const double* x, int64_t n) { return DotNeon(x, x, n); }

// Row strip of C += av * B[kk] with one FMA chain per element, kk
// ascending: the j loop is 2-wide vfmaq with a std::fma scalar tail,
// both single-rounded, so every element sees the same chain.
inline void FmaRow(double* crow, const double* brow, double av, int64_t m) {
  const float64x2_t avv = vdupq_n_f64(av);
  int64_t j = 0;
  for (; j + 2 <= m; j += 2) {
    vst1q_f64(crow + j, vfmaq_f64(vld1q_f64(crow + j), avv, vld1q_f64(brow + j)));
  }
  for (; j < m; ++j) crow[j] = std::fma(av, brow[j], crow[j]);
}

void ScaleNeon(double* out, const double* x, int64_t n, double s);

void GemmNeon(const double* a, int64_t lda, const double* b, int64_t ldb,
              double* c, int64_t ldc, int64_t rows, int64_t k, int64_t m,
              const double* row_scale, double post) {
  for (int64_t i = 0; i < rows; ++i) {
    std::fill(c + i * ldc, c + i * ldc + m, 0.0);
  }
  for (int64_t kb = 0; kb < k; kb += detail::kScalarKBlock) {
    const int64_t kend = std::min(k, kb + detail::kScalarKBlock);
    for (int64_t i = 0; i < rows; ++i) {
      const double* arow = a + i * lda;
      double* crow = c + i * ldc;
      for (int64_t kk = kb; kk < kend; ++kk) {
        const double av =
            row_scale == nullptr ? arow[kk] : arow[kk] * row_scale[i];
        FmaRow(crow, b + kk * ldb, av, m);
      }
    }
  }
  if (post != 1.0) {
    for (int64_t i = 0; i < rows; ++i) ScaleNeon(c + i * ldc, c + i * ldc, m, post);
  }
}

void GemmTransANeon(const double* a, int64_t lda, const double* b, int64_t ldb,
                    double* c, int64_t ldc, int64_t i0, int64_t i1, int64_t k,
                    int64_t m) {
  for (int64_t i = i0; i < i1; ++i) {
    std::fill(c + i * ldc, c + i * ldc + m, 0.0);
  }
  for (int64_t kb = 0; kb < k; kb += detail::kScalarKBlock) {
    const int64_t kend = std::min(k, kb + detail::kScalarKBlock);
    for (int64_t i = i0; i < i1; ++i) {
      double* crow = c + i * ldc;
      for (int64_t kk = kb; kk < kend; ++kk) {
        FmaRow(crow, b + kk * ldb, a[kk * lda + i], m);
      }
    }
  }
}

void GemmTransBNeon(const double* a, const double* b, double* c, int64_t ldc,
                    int64_t rows, int64_t k, int64_t m, double scale) {
  for (int64_t jb = 0; jb < m; jb += detail::kScalarKBlock) {
    const int64_t jend = std::min(m, jb + detail::kScalarKBlock);
    for (int64_t i = 0; i < rows; ++i) {
      const double* arow = a + i * k;
      double* crow = c + i * ldc;
      for (int64_t j = jb; j < jend; ++j) {
        crow[j] = DotNeon(arow, b + j * k, k) * scale;
      }
    }
  }
}

void AddNeon(double* y, const double* x, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vaddq_f64(vld1q_f64(y + i), vld1q_f64(x + i)));
  }
  for (; i < n; ++i) y[i] += x[i];
}

void SubNeon(double* y, const double* x, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(y + i, vsubq_f64(vld1q_f64(y + i), vld1q_f64(x + i)));
  }
  for (; i < n; ++i) y[i] -= x[i];
}

void ScaleNeon(double* out, const double* x, int64_t n, double s) {
  const float64x2_t sv = vdupq_n_f64(s);
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vmulq_f64(vld1q_f64(x + i), sv));
  }
  for (; i < n; ++i) out[i] = x[i] * s;
}

void HadamardNeon(double* out, const double* a, const double* b, int64_t n) {
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    vst1q_f64(out + i, vmulq_f64(vld1q_f64(a + i), vld1q_f64(b + i)));
  }
  for (; i < n; ++i) out[i] = a[i] * b[i];
}

// Mirrors detail::AdamScalar operation-for-operation (no FMA).
void AdamNeon(double* w, double* m, double* v, const double* g, int64_t n,
              const AdamArgs& args) {
  const float64x2_t b1 = vdupq_n_f64(args.beta1);
  const float64x2_t b2 = vdupq_n_f64(args.beta2);
  const float64x2_t omb1 = vdupq_n_f64(1.0 - args.beta1);
  const float64x2_t omb2 = vdupq_n_f64(1.0 - args.beta2);
  const float64x2_t bc1 = vdupq_n_f64(args.bc1);
  const float64x2_t bc2 = vdupq_n_f64(args.bc2);
  const float64x2_t lr = vdupq_n_f64(args.lr);
  const float64x2_t eps = vdupq_n_f64(args.eps);
  const float64x2_t wd = vdupq_n_f64(args.weight_decay);
  const bool decay = args.weight_decay > 0.0;
  int64_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const float64x2_t gv = vld1q_f64(g + i);
    const float64x2_t mv =
        vaddq_f64(vmulq_f64(b1, vld1q_f64(m + i)), vmulq_f64(omb1, gv));
    vst1q_f64(m + i, mv);
    const float64x2_t vv = vaddq_f64(vmulq_f64(b2, vld1q_f64(v + i)),
                                     vmulq_f64(vmulq_f64(omb2, gv), gv));
    vst1q_f64(v + i, vv);
    const float64x2_t m_hat = vdivq_f64(mv, bc1);
    const float64x2_t v_hat = vdivq_f64(vv, bc2);
    float64x2_t delta =
        vdivq_f64(m_hat, vaddq_f64(vsqrtq_f64(v_hat), eps));
    const float64x2_t wv = vld1q_f64(w + i);
    if (decay) delta = vaddq_f64(delta, vmulq_f64(wd, wv));
    vst1q_f64(w + i, vsubq_f64(wv, vmulq_f64(lr, delta)));
  }
  detail::AdamScalar(w + i, m + i, v + i, g + i, n - i, args);
}

// int8 retrieval kernels: 16 bytes per step; vmull_s8 widens 8x8->16,
// vpadalq_s16 pair-accumulates into i32x4. Exact integer arithmetic,
// so the result is bit-identical to the scalar reference.
int32_t DotI8Neon(const int8_t* x, const int8_t* y, int64_t n) {
  int32x4_t acc = vdupq_n_s32(0);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const int8x16_t xv = vld1q_s8(x + i);
    const int8x16_t yv = vld1q_s8(y + i);
    acc = vpadalq_s16(acc, vmull_s8(vget_low_s8(xv), vget_low_s8(yv)));
    acc = vpadalq_s16(acc, vmull_s8(vget_high_s8(xv), vget_high_s8(yv)));
  }
  int32_t total = vaddvq_s32(acc);
  for (; i < n; ++i) {
    total += static_cast<int32_t>(x[i]) * static_cast<int32_t>(y[i]);
  }
  return total;
}

int32_t L2I8Neon(const int8_t* x, const int8_t* y, int64_t n) {
  int32x4_t acc = vdupq_n_s32(0);
  int64_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const int8x16_t xv = vld1q_s8(x + i);
    const int8x16_t yv = vld1q_s8(y + i);
    const int16x8_t dlo = vsubl_s8(vget_low_s8(xv), vget_low_s8(yv));
    const int16x8_t dhi = vsubl_s8(vget_high_s8(xv), vget_high_s8(yv));
    acc = vmlal_s16(acc, vget_low_s16(dlo), vget_low_s16(dlo));
    acc = vmlal_s16(acc, vget_high_s16(dlo), vget_high_s16(dlo));
    acc = vmlal_s16(acc, vget_low_s16(dhi), vget_low_s16(dhi));
    acc = vmlal_s16(acc, vget_high_s16(dhi), vget_high_s16(dhi));
  }
  int32_t total = vaddvq_s32(acc);
  for (; i < n; ++i) {
    const int32_t d = static_cast<int32_t>(x[i]) - static_cast<int32_t>(y[i]);
    total += d * d;
  }
  return total;
}

const KernelTable kNeonTable = {
    Isa::kNeon,   GemmNeon, GemmTransANeon, GemmTransBNeon, DotNeon,
    SumNeon,      SumSqNeon, AddNeon,       SubNeon,        ScaleNeon,
    HadamardNeon, AdamNeon, DotI8Neon,      L2I8Neon,
};

}  // namespace

const KernelTable* NeonTable() { return &kNeonTable; }

}  // namespace simd
}  // namespace gradgcl

#endif  // GRADGCL_SIMD_NEON
