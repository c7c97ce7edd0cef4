// Op-by-op reference compositions of the GradGCL losses, test-only.
//
// Production builds InfoNCE (losses/contrastive.cc) and the Eq. 6 / JSD
// gradient features (core/gradient_features.cc) from fused kernels
// (MatMulTransBScaled, LogSumExpOffDiag, CosineGram, MaskedExpRowSum,
// ScaleRowsMatMul, OffDiagSigmoid, MatMulScaled). The functions here are
// the same formulas written one autograd op at a time with an explicit
// n x n off-diagonal mask. The fused kernels replay these rounding
// sequences and gradient accumulation orders, so tests/pool_test.cc
// compares value, du and dv of the two with memcmp, not a tolerance.

#ifndef GRADGCL_TESTS_REFERENCE_LOSSES_H_
#define GRADGCL_TESTS_REFERENCE_LOSSES_H_

#include "autograd/ops.h"
#include "common/check.h"
#include "core/grad_gcl_loss.h"
#include "losses/contrastive.h"

namespace gradgcl {
namespace reference {

// Off-diagonal 0/1 mask of size n x n.
inline Matrix OffDiagonalMask(int n) {
  Matrix mask(n, n, 1.0);
  for (int i = 0; i < n; ++i) mask(i, i) = 0.0;
  return mask;
}

// One direction of InfoNce: anchors `a` against candidates `b`.
inline Variable InfoNceDirected(const Variable& a, const Variable& b,
                                double tau) {
  const int n = a.rows();
  Variable an = ag::RowNormalize(a);
  Variable bn = ag::RowNormalize(b);
  Variable sim = ag::ScalarMul(ag::MatMulTransB(an, bn), 1.0 / tau);
  Variable pos = ag::ScalarMul(ag::RowPairDot(an, bn), 1.0 / tau);  // n x 1
  Variable denom = ag::LogSumExpRows(sim, OffDiagonalMask(n));      // n x 1
  return ag::Mean(ag::Sub(denom, pos));
}

// gradgcl::InfoNce, op by op.
inline Variable InfoNce(const Variable& u, const Variable& v, double tau) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  GRADGCL_CHECK_MSG(u.rows() >= 2, "InfoNce needs >= 2 samples for negatives");
  GRADGCL_CHECK(tau > 0.0);
  Variable forward = InfoNceDirected(u, v, tau);
  Variable backward = InfoNceDirected(v, u, tau);
  return ag::ScalarMul(ag::Add(forward, backward), 0.5);
}

// gradgcl::InfoNceGradientFeatures (paper Eq. 6), op by op.
inline Variable InfoNceGradientFeatures(const Variable& u, const Variable& v,
                                        double tau) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  const int n = u.rows();
  GRADGCL_CHECK_MSG(n >= 2, "gradient features need >= 2 samples");
  GRADGCL_CHECK(tau > 0.0);
  const double inv_tau = 1.0 / tau;

  const Variable un = ag::RowNormalize(u);
  const Variable vn = ag::RowNormalize(v);

  // Within-view similarities s_ij = û_i·û_j / τ, masked off-diagonal.
  Variable s = ag::ScalarMul(ag::MatMulTransB(un, un), inv_tau);  // n x n
  const Matrix mask = OffDiagonalMask(n);
  Variable exp_s = ag::Hadamard(ag::Exp(s), Variable(mask));    // kills diag
  Variable p = ag::ScalarMul(ag::RowPairDot(un, vn), inv_tau);  // n x 1
  Variable exp_p = ag::Exp(p);
  Variable z = ag::Add(ag::SumRows(exp_s), exp_p);              // n x 1
  Variable inv_z = ag::Reciprocal(z);

  // Positive coefficient (1 − exp(p_i)/Z_i)/τ.
  Variable pos_ratio = ag::Hadamard(exp_p, inv_z);              // n x 1
  Variable pos_coeff =
      ag::ScalarMul(ag::ScalarAdd(ag::Neg(pos_ratio), 1.0), inv_tau);
  Variable positive_term = ag::ScaleRowsVar(vn, pos_coeff);     // n x d

  // Negative term: Σ_{j≠i} α_ij û_j / τ with α_ij = exp(s_ij)/Z_i.
  Variable alpha = ag::ScaleRowsVar(exp_s, inv_z);              // n x n
  Variable negative_term = ag::ScalarMul(ag::MatMul(alpha, un), inv_tau);

  return ag::Sub(positive_term, negative_term);
}

// gradgcl::JsdGradientFeatures, op by op.
inline Variable JsdGradientFeatures(const Variable& u, const Variable& v) {
  GRADGCL_CHECK(u.rows() == v.rows() && u.cols() == v.cols());
  const int n = u.rows();
  GRADGCL_CHECK_MSG(n >= 2, "gradient features need >= 2 samples");

  Variable scores = ag::MatMulTransB(u, v);                       // n x n
  Variable pos = ag::RowPairDot(u, v);                            // n x 1
  // Positive pull: −σ(−s_ii)/n · v_i.
  Variable pos_coeff =
      ag::ScalarMul(ag::Sigmoid(ag::Neg(pos)), -1.0 / n);
  Variable positive_term = ag::ScaleRowsVar(v, pos_coeff);
  // Negative push: Σ_{j≠i} σ(s_ij) v_j / (n(n−1)).
  const Matrix mask = OffDiagonalMask(n);
  Variable sig = ag::Hadamard(ag::Sigmoid(scores), Variable(mask));
  Variable negative_term = ag::ScalarMul(
      ag::MatMul(sig, v), 1.0 / (static_cast<double>(n) * (n - 1)));
  return ag::Add(positive_term, negative_term);
}

// GradGclLoss (paper Eq. 18, ℓ = (1 − a)·ℓ_f + a·ℓ_g) on the reference
// compositions, for the (f+g) configurations the tests compare:
// InfoNCE or JSD (JsdLoss has no fused form and is shared with
// production), 0 < a < 1, features not detached. Builds the same nodes
// in the same order as GradGclLoss::operator().
inline Variable GradGclLoss(const GradGclConfig& config,
                            const TwoViewBatch& views) {
  GRADGCL_CHECK(config.loss == LossKind::kInfoNce ||
                config.loss == LossKind::kJsd);
  GRADGCL_CHECK(config.weight > 0.0 && config.weight < 1.0);
  GRADGCL_CHECK(!config.detach_features);
  const bool jsd = config.loss == LossKind::kJsd;
  const double tau = config.tau;
  const auto features = [&](const Variable& x, const Variable& y) {
    return jsd ? reference::JsdGradientFeatures(x, y)
               : reference::InfoNceGradientFeatures(x, y, tau);
  };
  const Variable& u = views.u;
  const Variable& v = views.u_prime;
  Variable lf = jsd ? JsdLoss(u, v) : reference::InfoNce(u, v, tau);
  Variable g = features(u, v);
  Variable g_prime = features(v, u);
  Variable lg = reference::InfoNce(g, g_prime, tau);
  const double a = config.weight;
  return ag::Add(ag::ScalarMul(lf, 1.0 - a), ag::ScalarMul(lg, a));
}

}  // namespace reference
}  // namespace gradgcl

#endif  // GRADGCL_TESTS_REFERENCE_LOSSES_H_
