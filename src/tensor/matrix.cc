#include "tensor/matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>

#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/simd.h"

namespace gradgcl {

void Matrix::Allocate(int rows, int cols) {
  GRADGCL_CHECK(rows >= 0 && cols >= 0);
  rows_ = rows;
  cols_ = cols;
  const size_t n = static_cast<size_t>(rows) * cols;
  if (n == 0) {
    data_ = nullptr;
    capacity_ = 0;
    pooled_ = false;
    return;
  }
  if (TapeScope::Active() && PoolingEnabled()) {
    data_ = MatrixPool::Instance().Acquire(n, &capacity_);
    pooled_ = true;
  } else {
    data_ = MatrixPool::HeapAlloc(n);
    capacity_ = n;
    pooled_ = false;
  }
}

void Matrix::Free() noexcept {
  if (data_ != nullptr) {
    if (pooled_) {
      MatrixPool::Instance().Release(data_, capacity_);
    } else {
      MatrixPool::HeapFree(data_);
    }
  }
  rows_ = 0;
  cols_ = 0;
  data_ = nullptr;
  capacity_ = 0;
  pooled_ = false;
}

Matrix::Matrix(int rows, int cols, double fill) {
  Allocate(rows, cols);
  Fill(fill);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  const int r = static_cast<int>(rows.size());
  const int c = r > 0 ? static_cast<int>(rows.begin()->size()) : 0;
  Allocate(r, c);
  double* dst = data_;
  for (const auto& row : rows) {
    GRADGCL_CHECK_MSG(static_cast<int>(row.size()) == cols_,
                      "ragged initializer list");
    dst = std::copy(row.begin(), row.end(), dst);
  }
}

Matrix::Matrix(const Matrix& other) {
  Allocate(other.rows_, other.cols_);
  if (other.data_ != nullptr) {
    std::memcpy(data_, other.data_, sizeof(double) * size());
  }
}

Matrix& Matrix::operator=(const Matrix& other) {
  if (this == &other) return *this;
  const size_t n = static_cast<size_t>(other.rows_) * other.cols_;
  // Reuse the existing buffer when it is big enough: assignment into a
  // warm Matrix then costs a copy, not an allocation.
  if (n > 0 && capacity_ >= n) {
    rows_ = other.rows_;
    cols_ = other.cols_;
    std::memcpy(data_, other.data_, sizeof(double) * n);
    return *this;
  }
  Free();
  Allocate(other.rows_, other.cols_);
  if (other.data_ != nullptr) {
    std::memcpy(data_, other.data_, sizeof(double) * n);
  }
  return *this;
}

Matrix::Matrix(Matrix&& other) noexcept
    : rows_(other.rows_),
      cols_(other.cols_),
      data_(other.data_),
      capacity_(other.capacity_),
      pooled_(other.pooled_) {
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_ = nullptr;
  other.capacity_ = 0;
  other.pooled_ = false;
}

Matrix& Matrix::operator=(Matrix&& other) noexcept {
  if (this == &other) return *this;
  Free();
  rows_ = other.rows_;
  cols_ = other.cols_;
  data_ = other.data_;
  capacity_ = other.capacity_;
  pooled_ = other.pooled_;
  other.rows_ = 0;
  other.cols_ = 0;
  other.data_ = nullptr;
  other.capacity_ = 0;
  other.pooled_ = false;
  return *this;
}

Matrix::~Matrix() { Free(); }

Matrix Matrix::Uninitialized(int rows, int cols) {
  Matrix m;
  m.Allocate(rows, cols);
  return m;
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n, 0.0);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Zeros(int rows, int cols) { return Matrix(rows, cols, 0.0); }

Matrix Matrix::Ones(int rows, int cols) { return Matrix(rows, cols, 1.0); }

Matrix Matrix::RandomNormal(int rows, int cols, Rng& rng, double mean,
                            double stddev) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) m.at_flat(i) = rng.Normal(mean, stddev);
  return m;
}

Matrix Matrix::RandomUniform(int rows, int cols, Rng& rng, double lo,
                             double hi) {
  Matrix m(rows, cols);
  for (int i = 0; i < m.size(); ++i) m.at_flat(i) = rng.Uniform(lo, hi);
  return m;
}

Matrix Matrix::GlorotUniform(int rows, int cols, Rng& rng) {
  const double limit = std::sqrt(6.0 / (rows + cols));
  return RandomUniform(rows, cols, rng, -limit, limit);
}

Matrix Matrix::ColumnVector(const std::vector<double>& values) {
  Matrix m = Uninitialized(static_cast<int>(values.size()), 1);
  std::copy(values.begin(), values.end(), m.data());
  return m;
}

Matrix Matrix::RowVector(const std::vector<double>& values) {
  Matrix m = Uninitialized(1, static_cast<int>(values.size()));
  std::copy(values.begin(), values.end(), m.data());
  return m;
}

Matrix Matrix::Transposed() const {
  Matrix t = Uninitialized(cols_, rows_);
  for (int i = 0; i < rows_; ++i) {
    for (int j = 0; j < cols_; ++j) t(j, i) = (*this)(i, j);
  }
  return t;
}

Matrix Matrix::Row(int i) const {
  GRADGCL_CHECK(i >= 0 && i < rows_);
  Matrix r = Uninitialized(1, cols_);
  std::copy(data_ + static_cast<size_t>(i) * cols_,
            data_ + static_cast<size_t>(i + 1) * cols_, r.data());
  return r;
}

Matrix Matrix::Col(int j) const {
  GRADGCL_CHECK(j >= 0 && j < cols_);
  Matrix c = Uninitialized(rows_, 1);
  for (int i = 0; i < rows_; ++i) c(i, 0) = (*this)(i, j);
  return c;
}

void Matrix::SetRow(int i, const Matrix& row) {
  GRADGCL_CHECK(i >= 0 && i < rows_);
  GRADGCL_CHECK(row.rows() == 1 && row.cols() == cols_);
  std::copy(row.data(), row.data() + cols_,
            data_ + static_cast<size_t>(i) * cols_);
}

Matrix Matrix::RowSlice(int begin, int end) const {
  GRADGCL_CHECK(begin >= 0 && begin <= end && end <= rows_);
  Matrix out = Uninitialized(end - begin, cols_);
  std::copy(data_ + static_cast<size_t>(begin) * cols_,
            data_ + static_cast<size_t>(end) * cols_, out.data());
  return out;
}

Matrix Matrix::Gather(const std::vector<int>& indices) const {
  Matrix out = Uninitialized(static_cast<int>(indices.size()), cols_);
  for (int i = 0; i < out.rows(); ++i) {
    const int src = indices[i];
    GRADGCL_CHECK(src >= 0 && src < rows_);
    std::copy(data_ + static_cast<size_t>(src) * cols_,
              data_ + static_cast<size_t>(src + 1) * cols_,
              out.data() + static_cast<size_t>(i) * cols_);
  }
  return out;
}

void Matrix::Reshape(int rows, int cols) {
  GRADGCL_CHECK(rows >= 0 && cols >= 0 && rows * cols == size());
  rows_ = rows;
  cols_ = cols;
}

// Strided arithmetic routes through the active SIMD table; the
// elementwise kernels are one rounding per element, so the bits never
// depend on the SIMD mode or, for the chunk-parallel +=, on the thread
// count. += is the tape's gradient accumulation (autograd/variable.cc),
// where n x n deltas meet, so it carries the memory-bound cost weight.

Matrix& Matrix::operator+=(const Matrix& other) {
  GRADGCL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  const simd::KernelTable& kt = simd::Active();
  double* dst = data_;
  const double* src = other.data_;
  ParallelFor(0, size(), kElementwiseGrain, kMemoryBoundCost,
              [&](int64_t begin, int64_t end) {
                kt.add(dst + begin, src + begin, end - begin);
              });
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  GRADGCL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  simd::Active().sub(data_, other.data_, size());
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  simd::Active().scale(data_, data_, size(), s);
  return *this;
}

void Matrix::Fill(double value) {
  std::fill(data_, data_ + size(), value);
}

double Matrix::FrobeniusNorm() const {
  double sum = 0.0;
  for (int i = 0; i < size(); ++i) sum += data_[i] * data_[i];
  return std::sqrt(sum);
}

double Matrix::Sum() const {
  double sum = 0.0;
  for (int i = 0; i < size(); ++i) sum += data_[i];
  return sum;
}

double Matrix::Mean() const {
  GRADGCL_CHECK(size() > 0);
  return Sum() / size();
}

double Matrix::Min() const {
  GRADGCL_CHECK(size() > 0);
  return *std::min_element(data_, data_ + size());
}

double Matrix::Max() const {
  GRADGCL_CHECK(size() > 0);
  return *std::max_element(data_, data_ + size());
}

bool Matrix::AllFinite() const {
  for (int i = 0; i < size(); ++i) {
    if (!std::isfinite(data_[i])) return false;
  }
  return true;
}

std::string Matrix::ToString(int max_rows, int max_cols) const {
  std::string out = "Matrix " + std::to_string(rows_) + "x" +
                    std::to_string(cols_) + " [\n";
  const int show_rows = std::min(rows_, max_rows);
  const int show_cols = std::min(cols_, max_cols);
  char buf[64];
  for (int i = 0; i < show_rows; ++i) {
    out += "  ";
    for (int j = 0; j < show_cols; ++j) {
      std::snprintf(buf, sizeof(buf), "%10.4g ", (*this)(i, j));
      out += buf;
    }
    if (show_cols < cols_) out += "...";
    out += "\n";
  }
  if (show_rows < rows_) out += "  ...\n";
  out += "]";
  return out;
}

bool AllClose(const Matrix& a, const Matrix& b, double tol) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int i = 0; i < a.size(); ++i) {
    if (std::abs(a.at_flat(i) - b.at_flat(i)) > tol) return false;
  }
  return true;
}

}  // namespace gradgcl
