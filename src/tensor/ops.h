// Free-function numeric kernels on Matrix: BLAS-lite products,
// elementwise maps, reductions, row-wise normalisation, softmax, and
// pairwise similarity matrices. These are the raw (non-differentiable)
// kernels; autograd/ops.h wraps the ones that need gradients.

#ifndef GRADGCL_TENSOR_OPS_H_
#define GRADGCL_TENSOR_OPS_H_

#include <vector>

#include "common/parallel.h"
#include "tensor/matrix.h"

namespace gradgcl {

// --- Products -------------------------------------------------------------

// Returns a * b. Requires a.cols() == b.rows().
Matrix MatMul(const Matrix& a, const Matrix& b);

// Returns a^T * b without materialising the transpose.
Matrix MatMulTransA(const Matrix& a, const Matrix& b);

// Returns a * b^T without materialising the transpose.
Matrix MatMulTransB(const Matrix& a, const Matrix& b);

// Elementwise (Hadamard) product.
Matrix Hadamard(const Matrix& a, const Matrix& b);

// --- Fused kernels ----------------------------------------------------------
// Each computes the same bits as its unfused composition (same
// per-element accumulation order, same rounding sequence) while
// touching memory once; autograd/ops.h builds the matching fused tape
// nodes on top. See DESIGN.md "Memory model".

// a * b^T * scale — fuses MatMulTransB with the trailing scalar scale
// (the 1/τ of the similarity Gram matrix).
Matrix MatMulTransBScaled(const Matrix& a, const Matrix& b, double scale);

// One sweep over a square matrix s: *exp_out gets exp(s) with the
// diagonal forced to 0.0 (the off-diagonal mask, without materialising
// a mask matrix), *rowsum_out its n x 1 row sums — bit-identical to
// RowSum(Hadamard(Exp(s), offdiag_mask)).
void MaskedExpRowSum(const Matrix& s, Matrix* exp_out, Matrix* rowsum_out);

// (diag(row_scale) a) * b * post without materialising the scaled-rows
// intermediate — the α·û negative term of the InfoNCE gradient
// features. row_scale is rows(a) x 1.
Matrix ScaleRowsMatMulScaled(const Matrix& a, const Matrix& row_scale,
                             const Matrix& b, double post);

// Elementwise logistic sigmoid of a square matrix with the diagonal
// forced to 0.0 — bit-identical to Hadamard(sigmoid(s), offdiag_mask).
Matrix OffDiagSigmoid(const Matrix& s);

// n x 1 row-wise log-sum-exp of a square x (n >= 2) over the
// off-diagonal entries: LogSumExpRows under the off-diagonal mask, with
// the same j-ascending max and sum order.
Matrix LogSumExpOffDiag(const Matrix& x);

// --- Backward passes of the n x n tape nodes ----------------------------------
// Row-parallel, and every output element is written once (no copy then
// modify, no zero fill then overwrite). Each element's expression and
// each row's reduction order are fixed, independent of the chunking and
// of the SIMD table, so the bits are the same at every thread count and
// equal the plain serial loop's (tests/backward_kernels_test.cc).

// LogSumExpOffDiag's input gradient: g_i * exp(x_ij - lse_i) off the
// diagonal, +0.0 on it. lse and g are n x 1.
Matrix LogSumExpOffDiagGrad(const Matrix& x, const Matrix& lse,
                            const Matrix& g);

// OffDiagSigmoid's input gradient from its output `sig`:
// g_ij * (s_ij (1 - s_ij)) off the diagonal and g_ii * 0.0 on it (the
// unfused mask's product: a negative g_ii gives -0.0, a non-finite one
// NaN).
Matrix OffDiagSigmoidGrad(const Matrix& sig, const Matrix& g);

// rows(col) x cols matrix whose row i repeats col(i, 0): the backward
// of a row sum.
Matrix BroadcastColumn(const Matrix& col, int cols);

// Column vector of per-row dot products Σ_j a(i, j) b(i, j), summed
// j-ascending in plain scalar order: the backward of a row scale.
Matrix RowDots(const Matrix& a, const Matrix& b);

// --- Elementwise arithmetic -------------------------------------------------

Matrix operator+(const Matrix& a, const Matrix& b);
Matrix operator-(const Matrix& a, const Matrix& b);
// a * s in one pass (a scaled copy): the same bits as copying a and
// then scaling it in place.
Matrix operator*(const Matrix& a, double s);
Matrix operator*(double s, const Matrix& a);

// Minimum elements per chunk before an elementwise kernel fans out to
// the thread pool; below this the dispatch overhead dominates.
inline constexpr int64_t kElementwiseGrain = 1 << 14;

// Per-element weights for the cost model (common/parallel.h), in the
// FLOP equivalents its threshold counts. exp/log/tanh cost roughly
// this many each.
inline constexpr int64_t kTranscendentalCost = 16;

// Memory-bound passes (scaled copy, Hadamard, +=, column broadcast,
// row dots): one or two loads and a store per element, which a FLOP
// count of 1-2 undersells. Over 1M elements in a TapeScope on a 4-vCPU
// AVX2 host, a Hadamard takes 1.1-1.7 ms serial and 0.30-0.33 ms on 4
// threads, the one-pass scaled copy 0.78-0.98 and 0.20-0.22 ms
// (copy-then-scale: 1.1-1.5 ms), so an n x n pass at n = 1000 should
// fan out. At this weight the default 2^23 threshold fans out passes
// of more than ~700K elements, while n x d tensors and 64-graph
// batches (<= ~80K elements) stay on the direct serial call.
inline constexpr int64_t kMemoryBoundCost = 12;

// Applies `fn` elementwise. Templated so callers' lambdas inline into
// the loop (the old std::function signature paid an indirect call per
// element); large matrices are chunk-parallel, which is deterministic
// because fn is applied independently per element. `cost_per_elem`
// feeds the cost model (common/parallel.h): the FLOP-equivalent cost
// of one fn application — transcendental wrappers pass ~16, cheap
// arithmetic keeps the default.
template <typename Fn>
Matrix Map(const Matrix& a, Fn&& fn, int64_t cost_per_elem = 2) {
  Matrix out = Matrix::Uninitialized(a.rows(), a.cols());
  const double* src = a.data();
  double* dst = out.data();
  ParallelFor(0, a.size(), kElementwiseGrain, cost_per_elem,
              [&](int64_t begin, int64_t end) {
                for (int64_t i = begin; i < end; ++i) dst[i] = fn(src[i]);
              });
  return out;
}

// Elementwise exp / log / tanh / sqrt / abs.
Matrix Exp(const Matrix& a);
Matrix Log(const Matrix& a);
Matrix Tanh(const Matrix& a);
Matrix Sqrt(const Matrix& a);
Matrix Abs(const Matrix& a);

// Elementwise max(a, 0).
Matrix Relu(const Matrix& a);

// --- Reductions -------------------------------------------------------------

// Column vector (rows x 1) of per-row sums / means / max.
Matrix RowSum(const Matrix& a);
Matrix RowMean(const Matrix& a);
Matrix RowMax(const Matrix& a);

// Row vector (1 x cols) of per-column sums / means.
Matrix ColSum(const Matrix& a);
Matrix ColMean(const Matrix& a);

// --- Row geometry -------------------------------------------------------------

// Column vector of per-row L2 norms.
Matrix RowNorms(const Matrix& a);

// Rows scaled to unit L2 norm; rows with norm < eps are left as zero.
Matrix RowNormalize(const Matrix& a, double eps = 1e-12);

// Numerically stable row-wise softmax.
Matrix RowSoftmax(const Matrix& a);

// Pairwise cosine-similarity matrix: out(i, j) = cos(a_i, b_j).
// a is n x d, b is m x d, result is n x m.
Matrix CosineSimilarityMatrix(const Matrix& a, const Matrix& b);

// Pairwise squared Euclidean distances: out(i, j) = |a_i - b_j|^2.
Matrix SquaredDistanceMatrix(const Matrix& a, const Matrix& b);

// Broadcast-adds a 1 x cols row vector to every row of a.
Matrix AddRowBroadcast(const Matrix& a, const Matrix& row);

// --- Segment reductions -----------------------------------------------------
// Raw readout kernels over batched graphs: rows of `a` grouped by
// segments[i] (0-based, < num_segments) into num_segments output rows.
// Accumulation runs in ascending row order, so the rounding sequence is
// independent of how rows were batched together — the property the
// serving path relies on to return bit-identical embeddings regardless
// of micro-batch composition. autograd's SegmentSum/SegmentMean wrap
// these for their forward values (bit-equality by construction).

// out(s, :) = Σ_{i: segments[i] == s} a(i, :).
Matrix SegmentSum(const Matrix& a, const std::vector<int>& segments,
                  int num_segments);

// Segment sums scaled by 1/|segment|; empty segments yield zero rows.
Matrix SegmentMean(const Matrix& a, const std::vector<int>& segments,
                   int num_segments);

// Broadcast-multiplies each row i of a by scale(i, 0), in one pass.
Matrix ScaleRows(const Matrix& a, const Matrix& scale);

// Stacks b below a (column counts must match).
Matrix VStack(const Matrix& a, const Matrix& b);

// Concatenates b to the right of a (row counts must match).
Matrix HStack(const Matrix& a, const Matrix& b);

}  // namespace gradgcl

#endif  // GRADGCL_TENSOR_OPS_H_
