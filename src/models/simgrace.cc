#include "models/simgrace.h"

namespace gradgcl {

SimGrace::SimGrace(const SimGraceConfig& config, Rng& rng)
    : config_(config),
      encoder_(config.encoder, rng),
      perturbed_encoder_(config.encoder, rng),
      proj_({config.encoder.out_dim, config.proj_dim, config.proj_dim}, rng),
      loss_(config.grad_gcl) {
  GRADGCL_CHECK(config.perturb_magnitude >= 0.0);
  RegisterChild(encoder_);
  RegisterChild(proj_);
}

TwoViewBatch SimGrace::EncodeTwoViews(const std::vector<Graph>& dataset,
                                      const std::vector<int>& indices,
                                      Rng& rng, bool project) {
  std::vector<Graph> batch_graphs;
  batch_graphs.reserve(indices.size());
  for (int idx : indices) batch_graphs.push_back(dataset[idx]);
  const GraphBatch batch = MakeBatch(batch_graphs);

  // The perturbation draws come first, serially; then the online view
  // and the perturbed view run as the two branches of a fork-join. The
  // perturbed view is a stochastic constant for the optimiser
  // (gradients flow through the online path only), hence the detach;
  // with projection on, its gradient still reaches the shared head.
  perturbed_encoder_.LoadState(
      PerturbState(encoder_.StateCopy(), config_.perturb_magnitude, rng));
  const std::array<Variable, 2> h = ag::ForkJoin2([&](int k) {
    Variable view = k == 0 ? encoder_.ForwardGraphs(batch)
                           : perturbed_encoder_.ForwardGraphs(batch).Detach();
    return project ? proj_.Forward(view) : view;
  });
  return TwoViewBatch{h[0], h[1]};
}

Variable SimGrace::BatchLoss(const std::vector<Graph>& dataset,
                             const std::vector<int>& indices, Rng& rng) {
  return loss_(EncodeTwoViews(dataset, indices, rng));
}

Matrix SimGrace::EmbedGraphs(const std::vector<Graph>& dataset) {
  return encoder_.ForwardGraphs(MakeBatch(dataset)).value();
}

}  // namespace gradgcl
