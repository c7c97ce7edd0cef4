// SimGRACE (Xia et al., WWW 2022): graph contrastive learning without
// data augmentation. The second view comes from a *perturbed encoder*:
// a copy of the online encoder whose weights receive Gaussian noise
// scaled by each tensor's standard deviation. Both views share the
// projection head; gradients flow through the online encoder only.

#ifndef GRADGCL_MODELS_SIMGRACE_H_
#define GRADGCL_MODELS_SIMGRACE_H_

#include "core/grad_gcl_loss.h"
#include "nn/encoders.h"
#include "train/trainer.h"

namespace gradgcl {

// SimGRACE hyperparameters.
struct SimGraceConfig {
  EncoderConfig encoder;
  int proj_dim = 32;
  // Perturbation magnitude η: noise stddev = η · std(tensor).
  double perturb_magnitude = 0.5;
  GradGclConfig grad_gcl;  // weight = 0 reproduces vanilla SimGRACE
};

class SimGrace : public GraphSslModel {
 public:
  SimGrace(const SimGraceConfig& config, Rng& rng);

  // Two views of dataset[indices]: online encoding and perturbed-
  // encoder encoding (detached), as the two ag::ForkJoin2 branches.
  // Exposed for instrumentation benches.
  // With project = false, returns the raw encoder outputs (the
  // representations downstream tasks use) instead of the projections.
  TwoViewBatch EncodeTwoViews(const std::vector<Graph>& dataset,
                              const std::vector<int>& indices, Rng& rng,
                              bool project = true);

  Variable BatchLoss(const std::vector<Graph>& dataset,
                     const std::vector<int>& indices, Rng& rng) override;

  Matrix EmbedGraphs(const std::vector<Graph>& dataset) override;

  const SimGraceConfig& config() const { return config_; }
  GraphEncoder& encoder() { return encoder_; }

 private:
  SimGraceConfig config_;
  GraphEncoder encoder_;
  // Receives perturbed copies of encoder_'s weights each batch; not
  // registered as a trainable child.
  GraphEncoder perturbed_encoder_;
  Mlp proj_;
  GradGclLoss loss_;
};

}  // namespace gradgcl

#endif  // GRADGCL_MODELS_SIMGRACE_H_
