// Tests for the n x n backward kernels of tensor/ops.h and the one-pass
// memory-bound passes they build on (ScaleRows, the scaled copy, +=,
// Hadamard). Each kernel is compared memcmp-exactly against an in-file
// reference: the plain serial loop of the same expression, as the
// backward closures in autograd/ops.cc wrote it inline, at 1 and 4
// threads with the cost model forced to fan out, with the SIMD tables
// on and off, over random inputs salted with ±inf, NaN and -0.0. Also
// pinned: +0.0 (never -0.0) where the reference writes a zero, the
// n = 2 edge, and a death test for every shape mismatch.

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/simd.h"

namespace gradgcl {
namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

bool IsPositiveZero(double x) { return x == 0.0 && !std::signbit(x); }

// --- Reference serial loops -------------------------------------------------

Matrix OldLogSumExpOffDiag(const Matrix& x) {
  const int n = x.rows();
  Matrix out(n, 1);
  for (int i = 0; i < n; ++i) {
    double mx = -1e300;
    for (int j = 0; j < n; ++j) {
      if (j != i) mx = std::max(mx, x(i, j));
    }
    double z = 0.0;
    for (int j = 0; j < n; ++j) {
      if (j != i) z += std::exp(x(i, j) - mx);
    }
    out(i, 0) = mx + std::log(z);
  }
  return out;
}

Matrix OldLogSumExpOffDiagGrad(const Matrix& x, const Matrix& lse,
                               const Matrix& g) {
  Matrix gx(x.rows(), x.cols(), 0.0);
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      if (j != i) gx(i, j) = g(i, 0) * std::exp(x(i, j) - lse(i, 0));
    }
  }
  return gx;
}

Matrix OldOffDiagSigmoidGrad(const Matrix& sig, const Matrix& grad) {
  const int n = sig.rows();
  Matrix g = grad;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      if (i == j) {
        g(i, j) *= 0.0;
      } else {
        const double s = sig(i, j);
        g(i, j) *= s * (1.0 - s);
      }
    }
  }
  return g;
}

Matrix OldBroadcastColumn(const Matrix& col, int cols) {
  Matrix g(col.rows(), cols);
  for (int i = 0; i < col.rows(); ++i) {
    for (int j = 0; j < cols; ++j) g(i, j) = col(i, 0);
  }
  return g;
}

Matrix OldRowDots(const Matrix& a, const Matrix& b) {
  Matrix gs(a.rows(), 1, 0.0);
  for (int i = 0; i < a.rows(); ++i) {
    double dot = 0.0;
    for (int j = 0; j < a.cols(); ++j) dot += a(i, j) * b(i, j);
    gs(i, 0) = dot;
  }
  return gs;
}

// The in-place scale as the tables ran it: the scalar table's loop,
// or the vector table called in place (its lanes compute x * s in the
// same operand order as before).
void OldScale(double* x, int64_t n, double s) {
  if (simd::ActiveIsa() != simd::Isa::kScalar) {
    simd::Active().scale(x, x, n, s);
    return;
  }
  for (int64_t i = 0; i < n; ++i) x[i] *= s;
}

Matrix OldScaleRows(const Matrix& a, const Matrix& scale) {
  Matrix out = a;
  for (int i = 0; i < a.rows(); ++i) {
    OldScale(out.data() + static_cast<size_t>(i) * a.cols(), a.cols(),
             scale(i, 0));
  }
  return out;
}

Matrix OldScaledCopy(const Matrix& a, double s) {
  Matrix out = a;
  OldScale(out.data(), out.size(), s);
  return out;
}

Matrix OldSum(const Matrix& a, const Matrix& b) {
  Matrix out = a;
  simd::Active().add(out.data(), b.data(), out.size());
  return out;
}

Matrix OldHadamard(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), a.cols());
  for (int i = 0; i < a.size(); ++i) {
    out.at_flat(i) = a.at_flat(i) * b.at_flat(i);
  }
  return out;
}

// --- Inputs -----------------------------------------------------------------

// Random normal entries scaled by `spread`, with ±inf, NaN and -0.0
// planted on and off the diagonal (each only when it fits the shape).
Matrix Salted(int rows, int cols, uint64_t seed, double spread = 1.0) {
  Rng rng(seed);
  Matrix m = Matrix::RandomNormal(rows, cols, rng, 0.0, spread);
  const double specials[] = {kInf, -kInf, kNan, -0.0, -kNan};
  int k = 0;
  for (int i = 0; i < rows && k < 10; i += 1 + rows / 7) {
    m(i, i % cols) = specials[k % 5];  // diagonal for square m
    m(i, (i * 5 + 1) % cols) = specials[(k + 2) % 5];
    ++k;
  }
  return m;
}

// Entries in (0, 1) like a sigmoid output, with specials planted.
Matrix SaltedProbabilities(int n, uint64_t seed) {
  Rng rng(seed);
  Matrix m = Matrix::RandomUniform(n, n, rng, 0.001, 0.999);
  if (n > 2) {
    m(0, 1) = kNan;
    m(1, 0) = kInf;
    m(n - 1, 0) = -kInf;
    m(n - 2, n - 1) = -0.0;
  }
  return m;
}

// Restores threads, SIMD, pooling and the cost threshold; forces every
// cost-hinted region to fan out.
class BackwardKernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    threads_ = NumThreads();
    simd_ = simd::Enabled();
    pooling_ = PoolingEnabled();
    min_cost_ = internal::MinParallelCost();
    internal::SetMinParallelCost(0);
  }
  void TearDown() override {
    internal::SetMinParallelCost(min_cost_);
    SetPoolingEnabled(pooling_);
    simd::SetEnabled(simd_);
    SetNumThreads(threads_);
  }

  // Runs check(n) for every SIMD mode x thread count x size, with the
  // kernel under test inside a TapeScope (pooled buffers). n = 300
  // splits every kernel into several chunks: rows exceed the
  // 2^15 / n row grain and n * n exceeds kElementwiseGrain.
  template <typename Check>
  void ForEachConfig(Check&& check) {
    for (bool simd_on : {false, true}) {
      simd::SetEnabled(simd_on);
      for (int threads : {1, 4}) {
        SetNumThreads(threads);
        for (int n : {2, 3, 300}) {
          SCOPED_TRACE(::testing::Message()
                       << (simd_on ? "simd" : "scalar") << ", " << threads
                       << " threads, n = " << n);
          TapeScope tape;
          check(n);
        }
      }
    }
  }

 private:
  int threads_ = 1;
  bool simd_ = true;
  bool pooling_ = true;
  int64_t min_cost_ = 0;
};

TEST_F(BackwardKernelsTest, SizesUsedAboveSplitIntoChunks) {
  constexpr int64_t n = 300;
  SetNumThreads(4);
  EXPECT_TRUE(internal::ShouldParallelize(n, (int64_t{1} << 15) / n, 0));
  EXPECT_TRUE(internal::ShouldParallelize(n * n, kElementwiseGrain, 0));
}

TEST_F(BackwardKernelsTest, LogSumExpOffDiagMatchesOldLoop) {
  ForEachConfig([](int n) {
    const Matrix x = Salted(n, n, 100 + n, 3.0);
    EXPECT_TRUE(BitEqual(LogSumExpOffDiag(x), OldLogSumExpOffDiag(x)));
  });
}

TEST_F(BackwardKernelsTest, LogSumExpOffDiagGradMatchesOldLoop) {
  ForEachConfig([](int n) {
    const Matrix x = Salted(n, n, 200 + n, 3.0);
    const Matrix lse = Salted(n, 1, 300 + n, 2.0);
    const Matrix g = Salted(n, 1, 400 + n);
    const Matrix got = LogSumExpOffDiagGrad(x, lse, g);
    EXPECT_TRUE(BitEqual(got, OldLogSumExpOffDiagGrad(x, lse, g)));
    // The reference leaves its zero fill on the diagonal: +0.0 even
    // where g_i is negative or x_ii is NaN or infinite.
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(IsPositiveZero(got(i, i))) << "diagonal " << i;
    }
  });
}

TEST_F(BackwardKernelsTest, OffDiagSigmoidGradMatchesOldLoop) {
  ForEachConfig([](int n) {
    const Matrix sig = SaltedProbabilities(n, 500 + n);
    const Matrix g = Salted(n, n, 600 + n);
    EXPECT_TRUE(BitEqual(OffDiagSigmoidGrad(sig, g),
                         OldOffDiagSigmoidGrad(sig, g)));
  });
}

TEST_F(BackwardKernelsTest, OffDiagSigmoidGradDiagonalIsTheMaskProduct) {
  // g_ii * 0.0, as the unfused mask computed it: the sign of g_ii
  // survives and a non-finite g_ii becomes NaN.
  const Matrix sig{{0.5, 0.25}, {0.75, 0.5}};
  const Matrix g{{-3.0, 2.0}, {1.0, kInf}};
  const Matrix got = OffDiagSigmoidGrad(sig, g);
  EXPECT_EQ(got(0, 0), 0.0);
  EXPECT_TRUE(std::signbit(got(0, 0)));
  EXPECT_TRUE(std::isnan(got(1, 1)));
  EXPECT_EQ(got(0, 1), 2.0 * (0.25 * 0.75));
  EXPECT_EQ(got(1, 0), 1.0 * (0.75 * 0.25));
}

TEST_F(BackwardKernelsTest, BroadcastColumnMatchesOldLoop) {
  ForEachConfig([](int n) {
    const Matrix col = Salted(n, 1, 700 + n);
    EXPECT_TRUE(BitEqual(BroadcastColumn(col, n), OldBroadcastColumn(col, n)));
    EXPECT_TRUE(BitEqual(BroadcastColumn(col, 7), OldBroadcastColumn(col, 7)));
    EXPECT_EQ(BroadcastColumn(col, 0).size(), 0);
  });
}

TEST_F(BackwardKernelsTest, RowDotsMatchOldLoop) {
  ForEachConfig([](int n) {
    const Matrix a = Salted(n, n, 800 + n);
    const Matrix b = Salted(n, n, 900 + n, 1e150);  // overflows to inf
    EXPECT_TRUE(BitEqual(RowDots(a, b), OldRowDots(a, b)));
    const Matrix c = Salted(n, 5, 1000 + n);
    const Matrix d = Salted(n, 5, 1100 + n);
    EXPECT_TRUE(BitEqual(RowDots(c, d), OldRowDots(c, d)));
  });
}

TEST_F(BackwardKernelsTest, OnePassScaleRowsMatchesCopyThenScale) {
  ForEachConfig([](int n) {
    const Matrix a = Salted(n, n, 1200 + n);
    const Matrix s = Salted(n, 1, 1300 + n, 1e200);
    EXPECT_TRUE(BitEqual(ScaleRows(a, s), OldScaleRows(a, s)));
  });
}

TEST_F(BackwardKernelsTest, ScaledCopyMatchesCopyThenScale) {
  ForEachConfig([](int n) {
    const Matrix a = Salted(n, n, 1400 + n);
    for (double s : {2.5, -1.0, 0.0, -0.0, 1e308, kInf, kNan}) {
      EXPECT_TRUE(BitEqual(a * s, OldScaledCopy(a, s))) << "s = " << s;
    }
  });
}

TEST_F(BackwardKernelsTest, ParallelAddAndHadamardMatchSerial) {
  ForEachConfig([](int n) {
    const Matrix a = Salted(n, n, 1500 + n, 1e300);
    const Matrix b = Salted(n, n, 1600 + n, 1e300);
    Matrix sum = a;
    sum += b;
    EXPECT_TRUE(BitEqual(sum, OldSum(a, b)));
    EXPECT_TRUE(BitEqual(Hadamard(a, b), OldHadamard(a, b)));
  });
}

// --- Shape checks -------------------------------------------------------------

using BackwardKernelsDeathTest = BackwardKernelsTest;

TEST_F(BackwardKernelsDeathTest, LogSumExpOffDiagChecksShape) {
  EXPECT_DEATH(LogSumExpOffDiag(Matrix(3, 4)), "GRADGCL_CHECK");
  EXPECT_DEATH(LogSumExpOffDiag(Matrix(1, 1)), ">= 2 rows");
}

TEST_F(BackwardKernelsDeathTest, LogSumExpOffDiagGradChecksShapes) {
  const Matrix x(3, 3), col(3, 1);
  EXPECT_DEATH(LogSumExpOffDiagGrad(Matrix(3, 4), col, col), "GRADGCL_CHECK");
  EXPECT_DEATH(LogSumExpOffDiagGrad(x, Matrix(2, 1), col), "GRADGCL_CHECK");
  EXPECT_DEATH(LogSumExpOffDiagGrad(x, Matrix(3, 2), col), "GRADGCL_CHECK");
  EXPECT_DEATH(LogSumExpOffDiagGrad(x, col, Matrix(4, 1)), "GRADGCL_CHECK");
  EXPECT_DEATH(LogSumExpOffDiagGrad(x, col, Matrix(3, 3)), "GRADGCL_CHECK");
}

TEST_F(BackwardKernelsDeathTest, OffDiagSigmoidGradChecksShapes) {
  EXPECT_DEATH(OffDiagSigmoidGrad(Matrix(2, 3), Matrix(2, 3)),
               "GRADGCL_CHECK");
  EXPECT_DEATH(OffDiagSigmoidGrad(Matrix(3, 3), Matrix(3, 2)),
               "GRADGCL_CHECK");
}

TEST_F(BackwardKernelsDeathTest, BroadcastColumnChecksShape) {
  EXPECT_DEATH(BroadcastColumn(Matrix(3, 2), 4), "GRADGCL_CHECK");
  EXPECT_DEATH(BroadcastColumn(Matrix(3, 1), -1), "GRADGCL_CHECK");
}

TEST_F(BackwardKernelsDeathTest, RowDotsChecksShape) {
  EXPECT_DEATH(RowDots(Matrix(3, 2), Matrix(3, 3)), "GRADGCL_CHECK");
  EXPECT_DEATH(RowDots(Matrix(3, 2), Matrix(2, 2)), "GRADGCL_CHECK");
}

TEST_F(BackwardKernelsDeathTest, ScaleRowsAndAddCheckShapes) {
  EXPECT_DEATH(ScaleRows(Matrix(3, 2), Matrix(2, 1)), "GRADGCL_CHECK");
  EXPECT_DEATH(ScaleRows(Matrix(3, 2), Matrix(3, 2)), "GRADGCL_CHECK");
  Matrix a(3, 2);
  EXPECT_DEATH(a += Matrix(2, 3), "GRADGCL_CHECK");
  EXPECT_DEATH(Hadamard(a, Matrix(3, 3)), "GRADGCL_CHECK");
}

}  // namespace
}  // namespace gradgcl
