#include "train/trainer.h"

#include <cmath>
#include <numeric>

#include "common/stopwatch.h"
#include "obs/collapse.h"
#include "obs/trace.h"
#include "tensor/pool.h"

namespace gradgcl {

namespace {

// L2 norm over all parameter gradients, accumulated serially in
// parameter order (deterministic; only computed when observability is
// on).
double ParameterGradNorm(const std::vector<Variable>& params) {
  double sum_sq = 0.0;
  for (const Variable& p : params) {
    const double n = p.grad().FrobeniusNorm();
    sum_sq += n * n;
  }
  return std::sqrt(sum_sq);
}

}  // namespace

std::vector<std::vector<int>> MakeMiniBatches(int n, int batch_size,
                                              Rng& rng) {
  GRADGCL_CHECK(n >= 2 && batch_size >= 2);
  std::vector<int> perm = rng.Permutation(n);
  std::vector<std::vector<int>> batches;
  for (int start = 0; start < n; start += batch_size) {
    const int end = std::min(n, start + batch_size);
    batches.emplace_back(perm.begin() + start, perm.begin() + end);
  }
  // Contrastive losses need >= 2 samples: fold a trailing singleton in.
  if (batches.size() >= 2 && batches.back().size() < 2) {
    batches[batches.size() - 2].push_back(batches.back()[0]);
    batches.pop_back();
  }
  return batches;
}

namespace {

// SplitMix64 finalizer (same constants as common/rng.cc's seeder).
uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

uint64_t BatchStreamSeed(uint64_t seed, int64_t epoch, int64_t batch) {
  // Fold each coordinate through a full avalanche round so adjacent
  // (epoch, batch) pairs land in statistically unrelated streams.
  uint64_t x = Mix64(seed);
  x = Mix64(x ^ static_cast<uint64_t>(epoch));
  x = Mix64(x ^ static_cast<uint64_t>(batch));
  return x;
}

void StreamedFeed::BeginEpoch(const std::vector<std::vector<int>>& plan,
                              const std::vector<int64_t>& owned) {
  std::vector<std::vector<int>> sub;
  sub.reserve(owned.size());
  for (int64_t b : owned) sub.push_back(plan[static_cast<size_t>(b)]);
  source_.BeginEpoch(sub);
}

Variable StreamedFeed::Loss(GraphSslModel& model, int64_t /*batch*/,
                            Rng& rng) {
  GRADGCL_CHECK_MSG(source_.NextBatch(&gathered_),
                    "streaming batch source failed (corrupt shard?)");
  iota_.resize(gathered_.size());
  for (size_t k = 0; k < iota_.size(); ++k) iota_[k] = static_cast<int>(k);
  return model.BatchLoss(gathered_, iota_, rng);
}

namespace {

// The graph-level training loop, whatever feeds it.
std::vector<EpochStats> TrainGraphLoop(
    GraphSslModel& model, BatchFeed& feed, const TrainOptions& options,
    const std::function<void(const EpochStats&)>& on_epoch) {
  const int64_t n = feed.num_graphs();
  GRADGCL_CHECK(n >= 2);
  Adam optimizer(model.parameters(), options.lr, 0.9, 0.999, 1e-8,
                 options.weight_decay);
  Rng rng(options.seed);

  obs::CollapseMonitor& monitor = obs::CollapseMonitor::Instance();
  std::vector<EpochStats> history;
  history.reserve(options.epochs);
  int64_t global_step = 0;
  std::vector<int64_t> owned;  // every batch of the plan, in order
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    obs::TraceScope epoch_span("train/epoch");
    optimizer.set_lr(
        ScheduledLr(options.schedule, options.lr, epoch, options.epochs));
    Stopwatch watch;
    double epoch_loss = 0.0;
    int steps = 0;
    const std::vector<std::vector<int>> plan = MakeMiniBatches(
        static_cast<int>(n), options.batch_size, rng);
    owned.resize(plan.size());
    std::iota(owned.begin(), owned.end(), int64_t{0});
    feed.BeginEpoch(plan, owned);
    for (size_t b = 0; b < plan.size(); ++b) {
      obs::TraceScope step_span("train/step");
      Stopwatch step_watch;
      monitor.BeginStep(obs::StepContext{global_step, epoch});
      // Each batch gets its own derived Rng stream (see BatchStreamSeed)
      // so the distributed trainer can reproduce this loop with batches
      // spread across ranks.
      Rng batch_rng(BatchStreamSeed(options.seed, epoch,
                                    static_cast<int64_t>(b)));
      // Step-scoped pooling: every Matrix the forward/backward pass
      // allocates inside this scope recycles through the MatrixPool.
      // Parameters and optimizer state were created outside any scope
      // and stay heap-backed (tensor/pool.h).
      TapeScope tape;
      optimizer.ZeroGrad();
      Variable loss = feed.Loss(model, static_cast<int64_t>(b), batch_rng);
      Backward(loss);
      const double loss_value = loss.scalar();
      const double grad_norm =
          monitor.enabled() ? ParameterGradNorm(model.parameters()) : 0.0;
      optimizer.Step();
      model.PostStep();
      // Inside the tape so the monitor's temporaries recycle through
      // the pool.
      if (monitor.enabled()) {
        monitor.EndStep(loss_value, grad_norm, step_watch.ElapsedSeconds());
      }
      epoch_loss += loss_value;
      ++steps;
      ++global_step;
    }
    EpochStats stats;
    stats.epoch = epoch;
    stats.loss = steps > 0 ? epoch_loss / steps : 0.0;
    stats.seconds = watch.ElapsedSeconds();
    if (on_epoch) on_epoch(stats);
    history.push_back(stats);
  }
  return history;
}

}  // namespace

std::vector<EpochStats> TrainGraphSsl(
    GraphSslModel& model, const std::vector<Graph>& dataset,
    const TrainOptions& options,
    const std::function<void(const EpochStats&)>& on_epoch) {
  InRamFeed feed(dataset);
  return TrainGraphLoop(model, feed, options, on_epoch);
}

std::vector<EpochStats> TrainGraphSslStreamed(
    GraphSslModel& model, GraphBatchSource& source,
    const TrainOptions& options,
    const std::function<void(const EpochStats&)>& on_epoch) {
  StreamedFeed feed(source);
  return TrainGraphLoop(model, feed, options, on_epoch);
}

std::vector<EpochStats> TrainNodeSsl(
    NodeSslModel& model, const NodeDataset& dataset,
    const TrainOptions& options,
    const std::function<void(const EpochStats&)>& on_epoch) {
  Adam optimizer(model.parameters(), options.lr, 0.9, 0.999, 1e-8,
                 options.weight_decay);
  Rng rng(options.seed);

  obs::CollapseMonitor& monitor = obs::CollapseMonitor::Instance();
  std::vector<EpochStats> history;
  history.reserve(options.epochs);
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    optimizer.set_lr(
        ScheduledLr(options.schedule, options.lr, epoch, options.epochs));
    Stopwatch watch;
    EpochStats stats;
    {
      obs::TraceScope step_span("train/step");
      monitor.BeginStep(obs::StepContext{epoch, epoch});
      TapeScope tape;  // step-scoped pooling, as in TrainGraphSsl
      optimizer.ZeroGrad();
      Variable loss = model.EpochLoss(dataset, rng);
      Backward(loss);
      stats.loss = loss.scalar();
      const double grad_norm =
          monitor.enabled() ? ParameterGradNorm(model.parameters()) : 0.0;
      optimizer.Step();
      model.PostStep();
      if (monitor.enabled()) {
        monitor.EndStep(stats.loss, grad_norm, watch.ElapsedSeconds());
      }
    }
    stats.epoch = epoch;
    stats.seconds = watch.ElapsedSeconds();
    if (on_epoch) on_epoch(stats);
    history.push_back(stats);
  }
  return history;
}

}  // namespace gradgcl
