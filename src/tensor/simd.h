// Portable SIMD kernel layer for the dense tensor hot path.
//
// One KernelTable per instruction set (scalar always; AVX2+FMA and NEON
// when the build compiles them in) holds the strip-level kernels that
// tensor/ops.cc, tensor/matrix.cc, and train/optimizer.cc run inside
// their ParallelFor chunks. Dispatch is resolved at runtime from CPU
// capability plus the GRADGCL_SIMD kill-switch (default on; =0 forces
// the scalar table), so a single binary stays portable — the default
// build never raises the baseline -march, only the isolated AVX2 TU is
// compiled with -mavx2 -mfma.
//
// Determinism contract (see DESIGN.md "Vectorization model"):
//  * Thread-count invariance is inherited from the callers: threads
//    partition output rows, every kernel below computes whole output
//    elements, so the reduction order never depends on the chunking.
//    This holds for every table — SIMD on or off.
//  * Within one table, the per-element rounding sequence is fixed:
//    - gemm/gemm_transa: one accumulation chain per output element,
//      k ascending. The scalar table rounds mul then add; the vector
//      tables use a single-rounded FMA per step (scalar remainders use
//      std::fma so edge tiles match interior tiles bit-for-bit).
//    - dot/sum/sumsq (and gemm_transb, which is a dot per element):
//      W independent lane chains stepping k by the vector width W,
//      combined as ((l0 + l1) + (l2 + l3)) for W = 4 (l0 + l1 for
//      W = 2), then the scalar tail appended in order.
//    - Elementwise kernels and the Adam update use only mul/add/sub/
//      div/sqrt — one rounding per operation, no FMA — so every table
//      produces bit-identical elementwise results.
//  * Fused kernels and their unfused compositions share these
//    primitives, so the fused == unfused bit-equality pinned by
//    tests/pool_test.cc holds in either SIMD mode.
//
//  * The int8 retrieval kernels (dot_i8 / l2_i8) accumulate in exact
//    integer arithmetic, so every table returns the identical int32 —
//    no reduction-order caveat at all.
//
// SIMD-vs-scalar agreement is therefore bitwise for elementwise kernels,
// the optimizer update, and the int8 kernels, and tight-ULP (different
// but fixed reduction orders) for GEMM and the f64 reductions;
// tests/simd_test.cc pins both.

#ifndef GRADGCL_TENSOR_SIMD_H_
#define GRADGCL_TENSOR_SIMD_H_

#include <cstdint>

namespace gradgcl {
namespace simd {

enum class Isa { kScalar, kAvx2, kNeon };

// "scalar" | "avx2" | "neon" (stable strings, used in bench JSON).
const char* IsaName(Isa isa);

// GRADGCL_SIMD kill-switch (default on; the env var seeds the initial
// value, SetEnabled flips it at runtime for A/B tests and benches).
bool Enabled();
void SetEnabled(bool enabled);

// Best ISA this binary was built with *and* the CPU supports; the
// scalar table when neither vector TU applies.
Isa CompiledIsa();

// CompiledIsa() when Enabled(), else Isa::kScalar.
Isa ActiveIsa();

// True when p is 64-byte aligned (nullptr counts as aligned). Matrix
// buffers satisfy this by construction (tensor/pool.cc).
bool IsAligned64(const void* p);

// Constants shared by Adam::Step and the per-table update kernels.
struct AdamArgs {
  double beta1 = 0.9;
  double beta2 = 0.999;
  double bc1 = 1.0;  // 1 - beta1^t
  double bc2 = 1.0;  // 1 - beta2^t
  double lr = 1e-3;
  double eps = 1e-8;
  double weight_decay = 0.0;
};

// Strip-level kernels. Callers hold one reference per operation (one
// atomic load) and invoke entries from inside their ParallelFor chunks;
// every pointer below may be unaligned at a strip offset, so kernels
// use unaligned vector loads internally.
struct KernelTable {
  Isa isa;

  // C = (diag(row_scale) A) B * post over a strip of `rows` output
  // rows: A is rows x k (leading dimension lda), B is k x m (ldb),
  // C is rows x m (ldc). row_scale == nullptr means no row scaling
  // (plain MatMul); row scaling rounds a(i, kk) * row_scale[i] first,
  // exactly like a stored ScaleRows intermediate. post is applied once
  // per element after its accumulation completes (skipped as an exact
  // identity when post == 1.0). Zeroes the strip itself.
  void (*gemm)(const double* a, int64_t lda, const double* b, int64_t ldb,
               double* c, int64_t ldc, int64_t rows, int64_t k, int64_t m,
               const double* row_scale, double post);

  // C rows [i0, i1) of A^T B: A is k x lda (output row i reads column i
  // of A), B is k x m (ldb), C is indexed from its base pointer (ldc).
  void (*gemm_transa)(const double* a, int64_t lda, const double* b,
                      int64_t ldb, double* c, int64_t ldc, int64_t i0,
                      int64_t i1, int64_t k, int64_t m);

  // C = A B^T * scale over a strip: A is rows x k, B is m x k, C is
  // rows x m (ldc). Each element is dot(a_i, b_j) — same lane chains as
  // `dot` — with the scale rounded in after the dot completes.
  void (*gemm_transb)(const double* a, const double* b, double* c,
                      int64_t ldc, int64_t rows, int64_t k, int64_t m,
                      double scale);

  double (*dot)(const double* x, const double* y, int64_t n);
  double (*sum)(const double* x, int64_t n);
  double (*sumsq)(const double* x, int64_t n);

  // y += x / y -= x / out = x * s / out = a ⊙ b, one rounding per
  // element. scale may run in place (out == x).
  void (*add)(double* y, const double* x, int64_t n);
  void (*sub)(double* y, const double* x, int64_t n);
  void (*scale)(double* out, const double* x, int64_t n, double s);
  void (*hadamard)(double* out, const double* a, const double* b, int64_t n);

  // One Adam step over n contiguous parameters (w, m, v updated in
  // place); bit-identical across tables (mul/add/div/sqrt only).
  void (*adam)(double* w, double* m, double* v, const double* g, int64_t n,
               const AdamArgs& args);

  // Quantized retrieval kernels (src/retrieval/): int8 dot product
  // sum(x[i] * y[i]) and squared L2 distance sum((x[i] - y[i])^2) with
  // int32 accumulation. Integer arithmetic is associative, so every
  // table — whatever its lane layout — produces the exact same value:
  // int8 kernels are bit-identical across ISAs AND thread counts by
  // construction, with no pinned-chain caveats. Callers guarantee
  // n <= kMaxInt8Dim so the i32 accumulator cannot overflow
  // (|dot| <= n * 127^2, l2 <= n * 254^2 < 2^31 at the cap).
  int32_t (*dot_i8)(const int8_t* x, const int8_t* y, int64_t n);
  int32_t (*l2_i8)(const int8_t* x, const int8_t* y, int64_t n);
};

// Largest vector length the int8 kernels accept without risking i32
// accumulator overflow: 32767 * 254^2 = 2,114,195,772 < 2^31 - 1.
inline constexpr int64_t kMaxInt8Dim = 32767;

// The table for ActiveIsa(). Cheap (atomic load + branch); callers
// still hoist it out of inner loops.
const KernelTable& Active();

}  // namespace simd
}  // namespace gradgcl

#endif  // GRADGCL_TENSOR_SIMD_H_
