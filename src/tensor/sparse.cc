#include "tensor/sparse.h"

#include <algorithm>

#include "common/parallel.h"

namespace gradgcl {

SparseMatrix::SparseMatrix(int rows, int cols, std::vector<Triplet> triplets) {
  GRADGCL_CHECK(rows >= 0 && cols >= 0);
  for (const Triplet& t : triplets) {
    GRADGCL_CHECK(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols);
  }
  std::sort(triplets.begin(), triplets.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.row != b.row ? a.row < b.row : a.col < b.col;
            });
  std::vector<int> row_offsets(rows + 1, 0);
  std::vector<int> col_indices;
  std::vector<double> values;
  col_indices.reserve(triplets.size());
  values.reserve(triplets.size());
  for (size_t i = 0; i < triplets.size();) {
    size_t j = i;
    double sum = 0.0;
    while (j < triplets.size() && triplets[j].row == triplets[i].row &&
           triplets[j].col == triplets[i].col) {
      sum += triplets[j].value;
      ++j;
    }
    col_indices.push_back(triplets[i].col);
    values.push_back(sum);
    ++row_offsets[triplets[i].row + 1];
    i = j;
  }
  for (int r = 0; r < rows; ++r) row_offsets[r + 1] += row_offsets[r];
  *this = FromCsr(rows, cols, std::move(row_offsets), std::move(col_indices),
                  std::move(values));
}

SparseMatrix SparseMatrix::FromCsr(int rows, int cols,
                                   std::vector<int> row_offsets,
                                   std::vector<int> col_indices,
                                   std::vector<double> values) {
  GRADGCL_CHECK(rows >= 0 && cols >= 0);
  GRADGCL_CHECK_MSG(row_offsets.size() == static_cast<size_t>(rows) + 1,
                    "FromCsr: wrong number of row offsets");
  GRADGCL_CHECK_MSG(col_indices.size() == values.size(),
                    "FromCsr: col_indices and values differ in length");
  GRADGCL_CHECK_MSG(row_offsets[0] == 0, "FromCsr: first row offset is not 0");
  GRADGCL_CHECK_MSG(
      static_cast<size_t>(row_offsets[rows]) == col_indices.size(),
      "FromCsr: final row offset is not nnz");
  for (int r = 0; r < rows; ++r) {
    GRADGCL_CHECK_MSG(row_offsets[r] <= row_offsets[r + 1],
                      "FromCsr: row offsets decrease");
  }
  for (int r = 0; r < rows; ++r) {
    for (int k = row_offsets[r]; k < row_offsets[r + 1]; ++k) {
      const int c = col_indices[k];
      GRADGCL_CHECK_MSG(c >= 0 && c < cols, "FromCsr: column out of range");
      GRADGCL_CHECK_MSG(k == row_offsets[r] || col_indices[k - 1] < c,
                        "FromCsr: columns not strictly ascending");
    }
  }
  SparseMatrix s;
  s.rows_ = rows;
  s.cols_ = cols;
  s.csr_ = std::make_shared<const Csr>(Csr{std::move(row_offsets),
                                           std::move(col_indices),
                                           std::move(values)});
  return s;
}

const SparseMatrix::Csr& SparseMatrix::csr() const {
  static const Csr kEmpty;
  return csr_ != nullptr ? *csr_ : kEmpty;
}

Matrix SparseMatrix::Multiply(const Matrix& x) const {
  GRADGCL_CHECK_MSG(x.rows() == cols_, "SparseMatrix::Multiply shape mismatch");
  const int64_t cols = x.cols();
  Matrix y(rows_, x.cols(), 0.0);
  const double* xdata = x.data();
  double* ydata = y.data();
  const int* offsets = row_offsets().data();
  const int* col_idx = col_indices().data();
  const double* vals = values().data();
  // The GCN/GIN aggregation hot path. Row-parallel over CSR rows: each
  // output row is one chunk's private accumulation in CSR order, so
  // results are bit-identical for every thread count. Grain assumes the
  // average row density; skewed rows just make chunks uneven.
  const int64_t avg_row_work =
      rows_ > 0 ? (static_cast<int64_t>(nnz()) * cols) / rows_ : 0;
  constexpr int64_t kMinWorkPerChunk = 1 << 15;
  const int64_t grain =
      avg_row_work > 0 ? std::max<int64_t>(1, kMinWorkPerChunk / avg_row_work)
                       : rows_;
  // Cost hint: 2 FLOPs (madd) per stored value per output column,
  // averaged over rows for the per-iteration estimate.
  ParallelFor(0, rows_, grain, /*cost_per_iter=*/2 * avg_row_work,
              [&](int64_t r0, int64_t r1) {
    for (int64_t r = r0; r < r1; ++r) {
      double* yrow = ydata + r * cols;
      for (int k = offsets[r]; k < offsets[r + 1]; ++k) {
        const double v = vals[k];
        const double* xrow = xdata + static_cast<int64_t>(col_idx[k]) * cols;
        for (int64_t j = 0; j < cols; ++j) yrow[j] += v * xrow[j];
      }
    }
  });
  return y;
}

Matrix SparseMatrix::MultiplyTransposed(const Matrix& x) const {
  GRADGCL_CHECK_MSG(x.rows() == rows_,
                    "SparseMatrix::MultiplyTransposed shape mismatch");
  // Stays serial: the CSR walk scatters into arbitrary output rows, so
  // row-parallelism would race and per-thread buffers would change the
  // accumulation order with the thread count (DESIGN.md §5).
  Matrix y(cols_, x.cols(), 0.0);
  const std::vector<int>& offsets = row_offsets();
  const std::vector<int>& col_idx = col_indices();
  const std::vector<double>& vals = values();
  for (int r = 0; r < rows_; ++r) {
    const double* xrow = x.data() + static_cast<size_t>(r) * x.cols();
    for (int k = offsets[r]; k < offsets[r + 1]; ++k) {
      const double v = vals[k];
      double* yrow = y.data() + static_cast<size_t>(col_idx[k]) * x.cols();
      for (int j = 0; j < x.cols(); ++j) yrow[j] += v * xrow[j];
    }
  }
  return y;
}

Matrix SparseMatrix::ToDense() const {
  Matrix d(rows_, cols_, 0.0);
  const std::vector<int>& offsets = row_offsets();
  const std::vector<int>& col_idx = col_indices();
  const std::vector<double>& vals = values();
  for (int r = 0; r < rows_; ++r) {
    for (int k = offsets[r]; k < offsets[r + 1]; ++k) {
      d(r, col_idx[k]) += vals[k];
    }
  }
  return d;
}

}  // namespace gradgcl
