// GraphCL (You et al., NeurIPS 2020): graph contrastive learning with
// data augmentations. Two stochastic augmentations of each graph are
// encoded by a shared GIN encoder, projected by an MLP head, and
// contrasted with InfoNCE. With the GradGCL plug-in enabled
// (grad_gcl.weight > 0), the loss becomes the paper's Eq. 18 — this
// single class therefore realises GraphCL, GraphCL(g), and
// GraphCL(f+g).

#ifndef GRADGCL_MODELS_GRAPHCL_H_
#define GRADGCL_MODELS_GRAPHCL_H_

#include "augment/augment.h"
#include "core/grad_gcl_loss.h"
#include "nn/encoders.h"
#include "train/trainer.h"

namespace gradgcl {

// GraphCL hyperparameters.
struct GraphClConfig {
  EncoderConfig encoder;
  int proj_dim = 32;
  // When true, each view samples a fresh augmentation kind per batch
  // (GraphCL's default); otherwise aug1/aug2 are used as given.
  bool random_augs = true;
  AugmentKind aug1 = AugmentKind::kNodeDrop;
  AugmentKind aug2 = AugmentKind::kNodeDrop;
  double aug_strength = 0.2;
  GradGclConfig grad_gcl;  // weight = 0 reproduces vanilla GraphCL
};

class GraphCl : public GraphSslModel {
 public:
  GraphCl(const GraphClConfig& config, Rng& rng);

  // Builds the two projected views for dataset[indices] using the
  // given augmentation kinds: serial augmentation, then each view's
  // batch, encoder and projection as one ag::ForkJoin2 branch. Exposed
  // for instrumentation benches.
  TwoViewBatch EncodeTwoViews(const std::vector<Graph>& dataset,
                              const std::vector<int>& indices,
                              AugmentKind kind1, AugmentKind kind2, Rng& rng);

  Variable BatchLoss(const std::vector<Graph>& dataset,
                     const std::vector<int>& indices, Rng& rng) override;

  Matrix EmbedGraphs(const std::vector<Graph>& dataset) override;

  const GraphClConfig& config() const { return config_; }
  GraphEncoder& encoder() { return encoder_; }

 protected:
  // Samples the augmentation pair for one batch.
  virtual std::pair<AugmentKind, AugmentKind> SampleAugPair(Rng& rng);

  GraphClConfig config_;
  GraphEncoder encoder_;
  Mlp proj_;
  GradGclLoss loss_;
};

}  // namespace gradgcl

#endif  // GRADGCL_MODELS_GRAPHCL_H_
