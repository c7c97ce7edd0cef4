// Gradient-checks every differentiable op against central finite
// differences, plus tape-mechanics tests (accumulation, detach,
// re-entrancy). Correct gradients are the foundation the whole
// reproduction rests on.

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "autograd/gradcheck.h"
#include "autograd/ops.h"
#include "tensor/ops.h"
#include "tensor/simd.h"

namespace gradgcl {
namespace {

using VarList = std::vector<Variable>;

Variable Param(int rows, int cols, uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  return Variable(Matrix::RandomNormal(rows, cols, rng, 0.0, scale),
                  /*requires_grad=*/true);
}

void ExpectGradOk(
    const std::function<Variable(const VarList&)>& forward,
    VarList inputs, double tol = 1e-6) {
  const ag::GradCheckResult result =
      ag::CheckGradients(forward, std::move(inputs), 1e-5, tol);
  EXPECT_TRUE(result.ok) << "max error " << result.max_abs_error << " at "
                         << result.worst_entry;
}

TEST(AutogradOps, AddGradient) {
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Add(in[0], in[1])); },
      {Param(3, 4, 1), Param(3, 4, 2)});
}

TEST(AutogradOps, SubGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::Sub(in[0], in[1])));
      },
      {Param(3, 4, 3), Param(3, 4, 4)});
}

TEST(AutogradOps, ScalarOpsGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::ScalarAdd(ag::ScalarMul(in[0], -2.5), 3.0));
      },
      {Param(2, 5, 5)});
}

TEST(AutogradOps, HadamardGradient) {
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Hadamard(in[0], in[1])); },
      {Param(3, 3, 6), Param(3, 3, 7)});
}

TEST(AutogradOps, MatMulGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::MatMul(in[0], in[1])));
      },
      {Param(3, 4, 8), Param(4, 2, 9)});
}

TEST(AutogradOps, MatMulTransBGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::MatMulTransB(in[0], in[1])));
      },
      {Param(3, 4, 10), Param(5, 4, 11)});
}

TEST(AutogradOps, ConstLeftMatMulGradient) {
  Rng rng(12);
  const Matrix c = Matrix::RandomNormal(4, 3, rng);
  ExpectGradOk(
      [c](const VarList& in) {
        return ag::Sum(ag::Square(ag::ConstLeftMatMul(c, in[0])));
      },
      {Param(3, 5, 13)});
}

TEST(AutogradOps, SparseLeftMatMulGradient) {
  SparseMatrix s(3, 3, {{0, 1, 2.0}, {1, 0, -1.0}, {2, 2, 0.5}, {0, 0, 1.0}});
  ExpectGradOk(
      [s](const VarList& in) {
        return ag::Sum(ag::Square(ag::SparseLeftMatMul(s, in[0])));
      },
      {Param(3, 4, 14)});
}

TEST(AutogradOps, TransposeGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::Transpose(in[0])));
      },
      {Param(3, 5, 15)});
}

TEST(AutogradOps, ReluGradient) {
  // Keep values away from the kink at 0.
  Variable x = Param(4, 4, 16);
  Matrix v = x.value();
  for (int i = 0; i < v.size(); ++i) {
    if (std::abs(v.at_flat(i)) < 0.05) v.at_flat(i) = 0.1;
  }
  x.set_value(v);
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Square(ag::Relu(in[0]))); },
      {x});
}

TEST(AutogradOps, LeakyReluValueAndGradient) {
  Variable x(Matrix{{-2, 3}}, true);
  Variable y = ag::LeakyRelu(x, 0.1);
  EXPECT_DOUBLE_EQ(y.value()(0, 0), -0.2);
  EXPECT_DOUBLE_EQ(y.value()(0, 1), 3.0);
  Backward(ag::Sum(y));
  EXPECT_DOUBLE_EQ(x.grad()(0, 0), 0.1);
  EXPECT_DOUBLE_EQ(x.grad()(0, 1), 1.0);
}

TEST(AutogradOps, MaskedRowSoftmaxGradient) {
  Matrix mask(3, 4, 1.0);
  mask(0, 0) = 0.0;
  mask(1, 3) = 0.0;
  ExpectGradOk(
      [mask](const VarList& in) {
        return ag::Sum(ag::Square(ag::MaskedRowSoftmax(in[0], mask)));
      },
      {Param(3, 4, 70)});
}

TEST(AutogradOps, MaskedRowSoftmaxRespectsSupport) {
  Matrix mask(2, 3, 1.0);
  mask(0, 1) = 0.0;
  Variable x(Matrix{{5, 100, 5}, {1, 1, 1}});  // huge masked entry
  const Matrix y = ag::MaskedRowSoftmax(x, mask).value();
  EXPECT_DOUBLE_EQ(y(0, 1), 0.0);  // masked out despite the huge logit
  EXPECT_NEAR(y(0, 0), 0.5, 1e-12);
  EXPECT_NEAR(y(0, 2), 0.5, 1e-12);
  EXPECT_NEAR(y(1, 0) + y(1, 1) + y(1, 2), 1.0, 1e-12);
}

TEST(AutogradOps, TanhSigmoidExpGradients) {
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Tanh(in[0])); },
      {Param(3, 3, 17)});
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Sigmoid(in[0])); },
      {Param(3, 3, 18)});
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Exp(in[0])); },
      {Param(3, 3, 19, 0.5)});
}

TEST(AutogradOps, LogSqrtSquareReciprocalGradients) {
  // Strictly positive inputs for log/sqrt/reciprocal.
  Rng rng(20);
  Variable x(Matrix::RandomUniform(3, 3, rng, 0.5, 2.0), true);
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::LogEps(in[0])); }, {x});
  Variable y(Matrix::RandomUniform(3, 3, rng, 0.5, 2.0), true);
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Sqrt(in[0])); }, {y});
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Square(in[0])); },
      {Param(3, 3, 21)});
  Variable z(Matrix::RandomUniform(3, 3, rng, 0.5, 2.0), true);
  ExpectGradOk(
      [](const VarList& in) { return ag::Sum(ag::Reciprocal(in[0])); }, {z},
      1e-5);
}

TEST(AutogradOps, ReductionGradients) {
  ExpectGradOk(
      [](const VarList& in) { return ag::Mean(ag::Square(in[0])); },
      {Param(4, 3, 22)});
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::SumRows(in[0])));
      },
      {Param(4, 3, 23)});
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::MeanRows(in[0])));
      },
      {Param(4, 3, 24)});
}

TEST(AutogradOps, RowNormalizeGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        // Project onto a fixed direction so the gradient is nontrivial.
        return ag::Sum(ag::Square(ag::RowNormalize(in[0])));
      },
      {Param(4, 5, 25)});
}

TEST(AutogradOps, RowNormalizeIsScaleInvariant) {
  Variable x = Param(3, 4, 26);
  Variable y1 = ag::RowNormalize(x);
  Variable y2 = ag::RowNormalize(ag::ScalarMul(x, 7.3));
  EXPECT_TRUE(AllClose(y1.value(), y2.value(), 1e-12));
}

TEST(AutogradOps, RowPairDotGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::RowPairDot(in[0], in[1])));
      },
      {Param(4, 3, 27), Param(4, 3, 28)});
}

TEST(AutogradOps, ScaleRowsVarGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::ScaleRowsVar(in[0], in[1])));
      },
      {Param(4, 3, 29), Param(4, 1, 30)});
}

TEST(AutogradOps, PairwiseSquaredDistancesGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Mean(ag::PairwiseSquaredDistances(in[0], in[1]));
      },
      {Param(4, 3, 31), Param(3, 3, 32)},
      1e-5);
}

TEST(AutogradOps, LogSumExpRowsGradient) {
  Matrix mask(3, 4, 1.0);
  mask(0, 0) = 0.0;
  mask(2, 3) = 0.0;
  ExpectGradOk(
      [mask](const VarList& in) {
        return ag::Sum(ag::LogSumExpRows(in[0], mask));
      },
      {Param(3, 4, 33)});
}

TEST(AutogradOps, LogSumExpRowsStableAtLargeValues) {
  Matrix big(2, 3, 1000.0);
  big(0, 1) = 1001.0;
  Variable x(big, true);
  Variable lse = ag::LogSumExpRows(x, Matrix(2, 3, 1.0));
  EXPECT_TRUE(lse.value().AllFinite());
  EXPECT_NEAR(lse.value()(1, 0), 1000.0 + std::log(3.0), 1e-9);
}

TEST(AutogradOps, AddRowBroadcastGradient) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::AddRowBroadcast(in[0], in[1])));
      },
      {Param(4, 3, 34), Param(1, 3, 35)});
}

TEST(AutogradOps, ConcatSliceGatherGradients) {
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::ConcatRows(in[0], in[1])));
      },
      {Param(2, 3, 36), Param(3, 3, 37)});
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::SliceRows(in[0], 1, 3)));
      },
      {Param(4, 3, 38)});
  ExpectGradOk(
      [](const VarList& in) {
        return ag::Sum(ag::Square(ag::GatherRows(in[0], {0, 2, 2, 1})));
      },
      {Param(3, 3, 39)});
}

TEST(AutogradOps, SegmentGradients) {
  const std::vector<int> segments = {0, 0, 1, 2, 2, 2};
  ExpectGradOk(
      [segments](const VarList& in) {
        return ag::Sum(ag::Square(ag::SegmentSum(in[0], segments, 3)));
      },
      {Param(6, 3, 40)});
  ExpectGradOk(
      [segments](const VarList& in) {
        return ag::Sum(ag::Square(ag::SegmentMean(in[0], segments, 3)));
      },
      {Param(6, 3, 41)});
}

TEST(AutogradOps, SegmentMeanHandlesEmptySegments) {
  const std::vector<int> segments = {0, 2};  // segment 1 is empty
  Variable x = Param(2, 2, 42);
  Variable out = ag::SegmentMean(x, segments, 3);
  EXPECT_DOUBLE_EQ(out.value()(1, 0), 0.0);
  EXPECT_DOUBLE_EQ(out.value()(1, 1), 0.0);
}

TEST(AutogradOps, SoftmaxCrossEntropyGradient) {
  const std::vector<int> labels = {0, 2, 1, 2};
  ExpectGradOk(
      [labels](const VarList& in) {
        return ag::SoftmaxCrossEntropy(in[0], labels);
      },
      {Param(4, 3, 43)});
}

TEST(AutogradOps, SoftmaxCrossEntropyKnownValue) {
  // Uniform logits over c classes: CE = log(c).
  Variable logits(Matrix(2, 4, 0.0), true);
  Variable loss = ag::SoftmaxCrossEntropy(logits, {1, 3});
  EXPECT_NEAR(loss.scalar(), std::log(4.0), 1e-12);
}

TEST(AutogradOps, BceWithLogitsGradient) {
  Matrix targets{{1, 0}, {0, 1}, {1, 1}};
  ExpectGradOk(
      [targets](const VarList& in) {
        return ag::BinaryCrossEntropyWithLogits(in[0], targets);
      },
      {Param(3, 2, 44)});
}

TEST(AutogradOps, BceWithLogitsKnownValue) {
  // Zero logits: loss = log(2) regardless of the targets.
  Variable logits(Matrix(2, 2, 0.0), true);
  Variable loss =
      ag::BinaryCrossEntropyWithLogits(logits, Matrix{{1, 0}, {0, 1}});
  EXPECT_NEAR(loss.scalar(), std::log(2.0), 1e-12);
}

TEST(AutogradOps, BceWithLogitsStableAtExtremeLogits) {
  Variable logits(Matrix{{1000, -1000}}, true);
  Variable loss =
      ag::BinaryCrossEntropyWithLogits(logits, Matrix{{1, 0}});
  EXPECT_TRUE(loss.value().AllFinite());
  EXPECT_NEAR(loss.scalar(), 0.0, 1e-9);
}

TEST(AutogradOps, DropoutZeroProbabilityIsIdentity) {
  Rng rng(45);
  Variable x = Param(4, 4, 46);
  Variable y = ag::Dropout(x, 0.0, rng);
  EXPECT_TRUE(AllClose(x.value(), y.value()));
}

TEST(AutogradOps, DropoutPreservesExpectation) {
  Rng rng(47);
  Variable x(Matrix(200, 200, 1.0), true);
  Variable y = ag::Dropout(x, 0.3, rng);
  EXPECT_NEAR(y.value().Mean(), 1.0, 0.02);  // inverted dropout
}

// --- Tape mechanics ---------------------------------------------------------

TEST(AutogradTape, GradientAccumulatesAcrossBackwards) {
  Variable x = Param(2, 2, 48);
  Variable loss1 = ag::Sum(x);
  Backward(loss1);
  Matrix after_first = x.grad();
  Variable loss2 = ag::Sum(x);
  Backward(loss2);
  Matrix doubled = after_first;
  doubled *= 2.0;
  EXPECT_TRUE(AllClose(x.grad(), doubled, 1e-12));
}

TEST(AutogradTape, ZeroGradResets) {
  Variable x = Param(2, 2, 49);
  Backward(ag::Sum(x));
  x.ZeroGrad();
  EXPECT_DOUBLE_EQ(x.grad().FrobeniusNorm(), 0.0);
}

TEST(AutogradTape, DiamondGraphDoubleCounts) {
  // loss = sum(x + x): gradient must be 2 everywhere.
  Variable x = Param(2, 2, 50);
  Backward(ag::Sum(ag::Add(x, x)));
  EXPECT_TRUE(AllClose(x.grad(), Matrix(2, 2, 2.0), 1e-12));
}

TEST(AutogradTape, DetachBlocksGradient) {
  Variable x = Param(2, 2, 51);
  Variable loss = ag::Sum(ag::Hadamard(x.Detach(), x));
  Backward(loss);
  // d/dx of detach(x) * x is detach(x), not 2x.
  EXPECT_TRUE(AllClose(x.grad(), x.value(), 1e-12));
}

TEST(AutogradTape, ConstantsReceiveNoGradients) {
  Variable c(Matrix(2, 2, 3.0));  // requires_grad = false
  Variable x = Param(2, 2, 52);
  Backward(ag::Sum(ag::Hadamard(c, x)));
  EXPECT_TRUE(AllClose(x.grad(), c.value(), 1e-12));
  EXPECT_DOUBLE_EQ(c.grad().FrobeniusNorm(), 0.0);
}

TEST(AutogradTape, ParameterReuseAcrossGraphs) {
  // The same parameter node used in two separate forward passes (as an
  // optimiser would) accumulates both contributions.
  Variable w = Param(2, 2, 53);
  Backward(ag::Sum(ag::ScalarMul(w, 3.0)));
  Backward(ag::Sum(ag::ScalarMul(w, 4.0)));
  EXPECT_TRUE(AllClose(w.grad(), Matrix(2, 2, 7.0), 1e-12));
}

TEST(AutogradTape, DeepChainBackward) {
  Variable x = Param(2, 2, 54, 0.01);
  Variable h = x;
  for (int i = 0; i < 50; ++i) h = ag::Tanh(h);
  Backward(ag::Sum(h));
  EXPECT_TRUE(x.grad().AllFinite());
}

TEST(AutogradTape, ConstantsOnlyBranchGetsNoGradient) {
  // A GIN-style first layer: the aggregation S·X sees only constants, so
  // the MatMul backward must not compute G·Wᵀ for it.
  const SparseMatrix s(3, 3, {{0, 1, 1.0}, {1, 0, 1.0}, {1, 1, 1.0},
                              {2, 2, 1.0}});
  Rng rng(56);
  const Variable x(Matrix::RandomNormal(3, 4, rng));
  const Variable h = ag::SparseLeftMatMul(s, x);
  Variable w = Param(4, 2, 57);
  Backward(ag::Sum(ag::Square(ag::MatMul(h, w))));
  EXPECT_FALSE(h.node()->NeedsGrad());
  EXPECT_FALSE(h.node()->grad_initialized);
  EXPECT_FALSE(x.node()->grad_initialized);
  EXPECT_TRUE(w.node()->grad_initialized);
  // An op fed only by the constant branch stays off the tape too.
  EXPECT_FALSE(ag::Relu(h).node()->NeedsGrad());

  ExpectGradOk(
      [s, x](const VarList& in) {
        return ag::Sum(ag::Square(ag::MatMul(ag::SparseLeftMatMul(s, x),
                                             in[0])));
      },
      {Param(4, 2, 58)});
}

TEST(AutogradTape, ReluBackwardEdgeInputs) {
  // The mask is `x <= 0 ? 0 : g`: NaN fails the comparison and passes the
  // gradient through; both zeros and -inf block it; any positive value,
  // however tiny, passes it. The row is long enough for the vectorised
  // loop body and its scalar tail, and the select must give the same
  // bits under the scalar table and the vector one.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const double x_row[] = {nan,     -0.0,   0.0,     denorm, 1e-300,
                          -1e-300, inf,    -inf,    -nan,   -denorm,
                          2.5,     -2.5,   1.0,     -1.0,   denorm * 3,
                          -inf,    inf,    nan,     0.0};
  const double expected[] = {2.0,  0.0,  0.0,   -7.0, 11.0, 0.0, 17.0,
                             0.0,  23.0, 0.0,   31.0, 0.0,  41.0, 0.0,
                             47.0, 0.0,  59.0,  61.0, 0.0};
  constexpr int kCols = 19;
  Matrix x_value(1, kCols);
  Matrix upstream(1, kCols);
  const double g_row[] = {2.0,  -3.0, 5.0,  -7.0, 11.0, 13.0, 17.0,
                          19.0, 23.0, 29.0, 31.0, 37.0, 41.0, 43.0,
                          47.0, 53.0, 59.0, 61.0, 67.0};
  for (int i = 0; i < kCols; ++i) {
    x_value(0, i) = x_row[i];
    upstream(0, i) = g_row[i];
  }
  const bool simd_was = simd::Enabled();
  for (bool simd_on : {false, true}) {
    SCOPED_TRACE(simd_on ? "vector table" : "scalar table");
    simd::SetEnabled(simd_on);
    Variable x(x_value, /*requires_grad=*/true);
    Backward(ag::Sum(ag::Hadamard(ag::Relu(x), Variable(upstream))));
    const Matrix& g = x.grad();
    for (int i = 0; i < g.size(); ++i) {
      EXPECT_EQ(g.at_flat(i), expected[i]) << "entry " << i;
      EXPECT_FALSE(std::signbit(g.at_flat(i)) && g.at_flat(i) == 0.0)
          << "blocked entry " << i << " must be +0.0";
    }
  }
  simd::SetEnabled(simd_was);
}

TEST(AutogradTape, CopiedSparseOperatorSharesStorage) {
  SparseMatrix s(3, 3, {{0, 1, 2.0}, {1, 0, -1.0}, {2, 2, 0.5}});
  const SparseMatrix copy = s;
  EXPECT_EQ(copy.row_offsets().data(), s.row_offsets().data());
  EXPECT_EQ(copy.col_indices().data(), s.col_indices().data());
  EXPECT_EQ(copy.values().data(), s.values().data());
  // The source stays usable after the copy.
  const Matrix x = Matrix::Ones(3, 2);
  EXPECT_TRUE(AllClose(s.Multiply(x), copy.Multiply(x), 0.0));
  EXPECT_EQ(s.nnz(), 3);

  // The backward closure keeps the storage alive after the caller's
  // operator is gone.
  Variable a = Param(3, 2, 59);
  Variable loss;
  {
    const SparseMatrix scoped(3, 3, {{0, 0, 1.0}, {2, 1, 3.0}});
    loss = ag::Sum(ag::SparseLeftMatMul(scoped, a));
  }
  Backward(loss);
  EXPECT_TRUE(AllClose(a.grad(),
                       Matrix{{1.0, 1.0}, {3.0, 3.0}, {0.0, 0.0}}, 0.0));
}

TEST(AutogradTapeDeathTest, AccumulateGradChecksShape) {
  internal::Node node;
  node.value = Matrix(2, 3, 0.0);
  EXPECT_DEATH(node.AccumulateGrad(Matrix(3, 2, 1.0)), "GRADGCL_CHECK");
  const Matrix wrong(2, 2, 1.0);
  EXPECT_DEATH(node.AccumulateGrad(wrong), "GRADGCL_CHECK");
  node.AccumulateGrad(Matrix(2, 3, 1.0));  // first touch adopts
  EXPECT_DEATH(node.AccumulateGrad(Matrix(2, 2, 1.0)), "GRADGCL_CHECK");
}

TEST(AutogradTapeDeathTest, NonScalarBackwardAborts) {
  Variable x = Param(2, 3, 55);
  EXPECT_DEATH(Backward(x), "scalar");
}

TEST(AutogradTapeDeathTest, NullVariableAborts) {
  Variable null;
  EXPECT_DEATH(Backward(null), "null");
  EXPECT_DEATH(null.value(), "null");
}

// --- Composite gradcheck sweep ------------------------------------------------

struct CompositeCase {
  int n;
  int d;
};

class CompositeSweep
    : public ::testing::TestWithParam<CompositeCase> {};

// An MLP-shaped composite touching matmul, bias broadcast, relu,
// normalisation, and reductions at several shapes.
TEST_P(CompositeSweep, MlpLikeCompositeGradOk) {
  const auto [n, d] = GetParam();
  Variable x = Param(n, d, 60 + n);
  Variable w = Param(d, d, 61 + d);
  Variable b = Param(1, d, 62 + n + d);
  ExpectGradOk(
      [](const VarList& in) {
        Variable h = ag::Relu(
            ag::AddRowBroadcast(ag::MatMul(in[0], in[1]), in[2]));
        return ag::Mean(ag::Square(ag::RowNormalize(h)));
      },
      {x, w, b}, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CompositeSweep,
    ::testing::Values(CompositeCase{2, 3}, CompositeCase{4, 4},
                      CompositeCase{6, 2}, CompositeCase{3, 8}));

}  // namespace
}  // namespace gradgcl
