// Gradient features — the paper's central object (Sec. III-A.2).
//
// For a batch of two-view embeddings (u_i, v_i), the gradient feature
// of sample i is the closed-form derivative of the contrastive loss
// with respect to its representation, g_i = ∂ℓ/∂u_i. For InfoNCE this
// is the paper's Eq. 6:
//
//   g_i = (1 − exp(u_i·v_i/τ)/Z_i) / τ · v_i
//         − Σ_{j≠i} exp(u_i·u_j/τ)/Z_i / τ · u_j,
//   Z_i = exp(u_i·v_i/τ) + Σ_{j≠i} exp(u_i·u_j/τ),
//
// with positives drawn from the other view and negatives within-view.
// (The paper's text defines Z without the positive term; including it —
// the standard InfoNCE denominator — is what keeps the positive-pull
// coefficient in (0, 1/τ), as the paper's own observations 1–2 require.
// The deviation is documented in DESIGN.md.) Crucially, g is expressed as a
// *differentiable composite* of u and v, so the gradient contrastive
// loss ℓ_g (Eq. 19) back-propagates through the gradient map with
// ordinary first-order autograd — the implementation of "use gradients
// as an additional input signal".
//
// Gradient features for the JSD and SCE losses (Fig. 11's loss-type
// ablation) follow the same pattern with their own closed forms.
// An analysis-only Euclidean variant implements the Lemma-2 setting.

#ifndef GRADGCL_CORE_GRADIENT_FEATURES_H_
#define GRADGCL_CORE_GRADIENT_FEATURES_H_

#include "losses/contrastive.h"

namespace gradgcl {

// Differentiable gradient features of the InfoNCE loss (paper Eq. 6).
// u, v are n x d with n >= 2; returns n x d. Built from fused kernels
// (CosineGram, MaskedExpRowSum, ScaleRowsMatMul); tests/pool_test.cc
// checks them bit for bit against the op-by-op composition kept in
// tests/reference_losses.h.
Variable InfoNceGradientFeatures(const Variable& u, const Variable& v,
                                 double tau);

// Differentiable gradient features of the JSD loss:
//   g_i = −σ(−u_i·v_i)/n · v_i + Σ_{j≠i} σ(u_i·v_j)/(n(n−1)) · v_j.
// Fused and reference-checked as for InfoNCE.
Variable JsdGradientFeatures(const Variable& u, const Variable& v);

// Differentiable gradient features of the SCE (GraphMAE) loss:
//   g_i = −γ(1 − c_i)^{γ−1} · (v̂_i − c_i û_i) / |u_i|,  c_i = cos(u_i, v_i).
// No negatives appear — this is what makes gradient contrast
// uninformative for generative losses (the Fig. 11 finding).
Variable SceGradientFeatures(const Variable& u, const Variable& v,
                             double gamma = 2.0);

// Dispatch on the loss family.
Variable GradientFeatures(LossKind kind, const Variable& u, const Variable& v,
                          double tau);

// Analysis-only (non-differentiable) gradients of the Euclidean
// InfoNCE loss (paper Eq. 20 / Lemma 2), including the cross terms
// where u_i appears as a negative in other anchors' partition
// functions. Used by the Lemma-2/3 rank property tests.
Matrix EuclideanGradientFeatures(const Matrix& u, const Matrix& v);

}  // namespace gradgcl

#endif  // GRADGCL_CORE_GRADIENT_FEATURES_H_
