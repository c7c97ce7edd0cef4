// CSR sparse matrix used for (normalised) graph adjacency operators.
//
// GNN layers apply  H' = S · H  where S is a batched block-diagonal
// adjacency with O(E) non-zeros; materialising it densely would be
// quadratic in the batch's node count. SparseMatrix supports exactly
// the operations the library needs: sparse × dense products (and the
// transposed product required by backprop) plus construction from
// triplets or from ready-made CSR arrays.
//
// The CSR arrays are immutable once built and shared between copies:
// copying a SparseMatrix (as the autograd closures do, to keep their
// operator alive for backward) bumps a reference count instead of
// duplicating the arrays.

#ifndef GRADGCL_TENSOR_SPARSE_H_
#define GRADGCL_TENSOR_SPARSE_H_

#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace gradgcl {

// One entry of a sparse matrix under construction.
struct Triplet {
  int row = 0;
  int col = 0;
  double value = 0.0;
};

// Immutable CSR sparse matrix with shared storage.
class SparseMatrix {
 public:
  // Creates an empty 0x0 matrix.
  SparseMatrix() = default;

  // Builds from triplets; duplicate (row, col) entries are summed.
  SparseMatrix(int rows, int cols, std::vector<Triplet> triplets);

  // Adopts CSR arrays. Aborts unless row_offsets has rows + 1 entries,
  // starts at 0, never decreases and ends at nnz == col_indices.size()
  // == values.size(), and every row's columns lie in [0, cols) in
  // strictly ascending order (so no duplicates).
  static SparseMatrix FromCsr(int rows, int cols, std::vector<int> row_offsets,
                              std::vector<int> col_indices,
                              std::vector<double> values);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int nnz() const { return static_cast<int>(values().size()); }

  // y = this * x  (dense x with x.rows() == cols()).
  Matrix Multiply(const Matrix& x) const;

  // y = this^T * x  (dense x with x.rows() == rows()).
  Matrix MultiplyTransposed(const Matrix& x) const;

  // Densifies; intended for tests and tiny graphs only.
  Matrix ToDense() const;

  // CSR internals (used by iteration-heavy algorithms, e.g. WL).
  const std::vector<int>& row_offsets() const { return csr().row_offsets; }
  const std::vector<int>& col_indices() const { return csr().col_indices; }
  const std::vector<double>& values() const { return csr().values; }

 private:
  struct Csr {
    std::vector<int> row_offsets;   // size rows + 1
    std::vector<int> col_indices;   // size nnz
    std::vector<double> values;     // size nnz
  };

  const Csr& csr() const;

  int rows_ = 0;
  int cols_ = 0;
  std::shared_ptr<const Csr> csr_;  // null for the empty 0x0 matrix
};

}  // namespace gradgcl

#endif  // GRADGCL_TENSOR_SPARSE_H_
