#include "models/graphcl.h"

namespace gradgcl {

GraphCl::GraphCl(const GraphClConfig& config, Rng& rng)
    : config_(config),
      encoder_(config.encoder, rng),
      proj_({config.encoder.out_dim, config.proj_dim, config.proj_dim}, rng),
      loss_(config.grad_gcl) {
  RegisterChild(encoder_);
  RegisterChild(proj_);
}

std::pair<AugmentKind, AugmentKind> GraphCl::SampleAugPair(Rng& rng) {
  if (!config_.random_augs) return {config_.aug1, config_.aug2};
  const std::vector<AugmentKind> menu = AllAugmentKinds();
  return {menu[rng.UniformInt(static_cast<int>(menu.size()))],
          menu[rng.UniformInt(static_cast<int>(menu.size()))]};
}

TwoViewBatch GraphCl::EncodeTwoViews(const std::vector<Graph>& dataset,
                                     const std::vector<int>& indices,
                                     AugmentKind kind1, AugmentKind kind2,
                                     Rng& rng) {
  std::vector<Graph> view1;
  std::vector<Graph> view2;
  view1.reserve(indices.size());
  view2.reserve(indices.size());
  for (int idx : indices) {
    view1.push_back(Augment(dataset[idx], kind1, config_.aug_strength, rng));
    view2.push_back(Augment(dataset[idx], kind2, config_.aug_strength, rng));
  }
  // Augmentation above stays serial: both views draw from one
  // interleaved Rng stream. Batching, encoder and projection head of
  // each view then run as one branch of a fork-join.
  const std::array<Variable, 2> u = ag::ForkJoin2([&](int k) {
    return proj_.Forward(
        encoder_.ForwardGraphs(MakeBatch(k == 0 ? view1 : view2)));
  });
  return TwoViewBatch{u[0], u[1]};
}

Variable GraphCl::BatchLoss(const std::vector<Graph>& dataset,
                            const std::vector<int>& indices, Rng& rng) {
  const auto [kind1, kind2] = SampleAugPair(rng);
  return loss_(EncodeTwoViews(dataset, indices, kind1, kind2, rng));
}

Matrix GraphCl::EmbedGraphs(const std::vector<Graph>& dataset) {
  // Downstream tasks use the pre-projection encoder output, as in the
  // original GraphCL evaluation protocol.
  return encoder_.ForwardGraphs(MakeBatch(dataset)).value();
}

}  // namespace gradgcl
