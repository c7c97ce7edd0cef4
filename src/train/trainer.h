// Self-supervised training loops shared by all backbone models.
//
// Models implement one of two small interfaces (graph-level, trained
// on shuffled mini-batches of graphs; node-level, trained full-graph)
// and the loops here own shuffling, optimisation, timing, and optional
// per-epoch callbacks (used by the Fig. 7 trajectory bench).

#ifndef GRADGCL_TRAIN_TRAINER_H_
#define GRADGCL_TRAIN_TRAINER_H_

#include <functional>
#include <vector>

#include "datasets/node_synthetic.h"
#include "graph/batch.h"
#include "nn/module.h"
#include "train/optimizer.h"
#include "train/scheduler.h"

namespace gradgcl {

// Hyperparameters of a training run.
struct TrainOptions {
  int epochs = 20;
  int batch_size = 64;   // graph-level only
  double lr = 0.01;
  double weight_decay = 0.0;
  LrSchedule schedule = LrSchedule::kConstant;
  uint64_t seed = 1;
};

// Per-epoch record.
struct EpochStats {
  int epoch = 0;
  double loss = 0.0;
  double seconds = 0.0;
};

// Interface of a graph-level self-supervised model (GraphCL, JOAO,
// SimGRACE, InfoGraph, MVGRL — with or without GradGCL).
class GraphSslModel : public Module {
 public:
  // Self-supervised loss on dataset[indices]; `rng` drives the model's
  // stochastic views (augmentations / perturbations).
  //
  // Gather-invariance contract: implementations may only touch
  // dataset[idx] for idx in `indices`, visiting them in `indices`
  // order (including rng consumption). Then BatchLoss(dataset, batch)
  // == BatchLoss(gathered, iota) bit-for-bit, which is what lets the
  // streaming feed (StreamedFeed over a GraphBatchSource) train
  // bit-identically to the in-RAM feed.
  virtual Variable BatchLoss(const std::vector<Graph>& dataset,
                             const std::vector<int>& indices, Rng& rng) = 0;

  // Deterministic inference embeddings, one row per graph.
  virtual Matrix EmbedGraphs(const std::vector<Graph>& dataset) = 0;

  // Hook invoked after each optimiser step (JOAO's augmentation-
  // distribution update, BGRL's EMA, ...). Default: nothing.
  virtual void PostStep() {}
};

// Interface of a node-level self-supervised model (GRACE, GCA, BGRL,
// COSTA, SGCL, node-MVGRL).
class NodeSslModel : public Module {
 public:
  // Full-graph self-supervised loss for one epoch step.
  virtual Variable EpochLoss(const NodeDataset& dataset, Rng& rng) = 0;

  // Deterministic inference embeddings, one row per node.
  virtual Matrix EmbedNodes(const NodeDataset& dataset) = 0;

  virtual void PostStep() {}
};

// Trains a graph-level model with Adam over shuffled mini-batches.
// `on_epoch` (optional) observes the stats of each finished epoch.
std::vector<EpochStats> TrainGraphSsl(
    GraphSslModel& model, const std::vector<Graph>& dataset,
    const TrainOptions& options,
    const std::function<void(const EpochStats&)>& on_epoch = nullptr);

// Source of materialised mini-batches for the streaming training path
// — the trainer-facing face of the sharded on-disk pipeline
// (data/prefetch_reader.h implements it by mmap-reading shards on
// background threads). The trainer plans an epoch's batches up front
// (same MakeMiniBatches stream as the in-RAM loop), installs the plan
// with BeginEpoch, then consumes the batches in plan order.
class GraphBatchSource {
 public:
  virtual ~GraphBatchSource() = default;

  // Total graphs in the underlying dataset (batch plans index into
  // [0, num_graphs())).
  virtual int64_t num_graphs() const = 0;

  // Installs the mini-batch plan for the next epoch. Requires the
  // previous epoch to be fully consumed.
  virtual void BeginEpoch(const std::vector<std::vector<int>>& batches) = 0;

  // Produces the next planned batch: graphs[k] is the graph at the
  // plan's k-th index, so a batch pairs with indices {0, 1, ...} —
  // exactly what a gather-invariant BatchLoss expects. Returns false
  // on unrecoverable read failure (corrupt shard).
  virtual bool NextBatch(std::vector<Graph>* graphs) = 0;
};

// TrainGraphSsl with the graphs arriving through `source` instead of
// a resident vector: the same loop, optimiser, batch plan and per-batch
// Rng streams. With a gather-invariant model (see
// GraphSslModel::BatchLoss) and a source that reproduces the dataset's
// graphs bit-for-bit, the loss trajectory is bit-identical to
// TrainGraphSsl on the same seed, regardless of the source's reader
// thread count. Aborts on source read failure.
std::vector<EpochStats> TrainGraphSslStreamed(
    GraphSslModel& model, GraphBatchSource& source,
    const TrainOptions& options,
    const std::function<void(const EpochStats&)>& on_epoch = nullptr);

// Where a graph-level trainer's batches come from: the one feed
// description shared by the loop behind TrainGraphSsl /
// TrainGraphSslStreamed and the data-parallel trainer
// (src/distributed/). The trainer plans an epoch, installs it with
// BeginEpoch together with `owned`, the plan indices it will evaluate
// in consumption order, then calls Loss exactly once per owned index,
// in that order.
class BatchFeed {
 public:
  virtual ~BatchFeed() = default;
  // Graphs the batch plans index into.
  virtual int64_t num_graphs() const = 0;
  virtual void BeginEpoch(const std::vector<std::vector<int>>& plan,
                          const std::vector<int64_t>& owned) = 0;
  // model.BatchLoss over the graphs of plan[batch].
  virtual Variable Loss(GraphSslModel& model, int64_t batch, Rng& rng) = 0;
};

// Resident graphs: BatchLoss(dataset, plan[batch]), no copy.
class InRamFeed final : public BatchFeed {
 public:
  explicit InRamFeed(const std::vector<Graph>& dataset) : dataset_(dataset) {}
  int64_t num_graphs() const override {
    return static_cast<int64_t>(dataset_.size());
  }
  void BeginEpoch(const std::vector<std::vector<int>>& plan,
                  const std::vector<int64_t>& /*owned*/) override {
    plan_ = &plan;
  }
  Variable Loss(GraphSslModel& model, int64_t batch, Rng& rng) override {
    return model.BatchLoss(dataset_, (*plan_)[static_cast<size_t>(batch)],
                           rng);
  }

 private:
  const std::vector<Graph>& dataset_;
  const std::vector<std::vector<int>>* plan_ = nullptr;
};

// Streamed graphs: the source sees only the owned sub-plan, and each
// Loss is source.NextBatch followed by BatchLoss(gathered, iota) —
// bit-equal to InRamFeed by the gather-invariance contract.
class StreamedFeed final : public BatchFeed {
 public:
  explicit StreamedFeed(GraphBatchSource& source) : source_(source) {}
  int64_t num_graphs() const override { return source_.num_graphs(); }
  void BeginEpoch(const std::vector<std::vector<int>>& plan,
                  const std::vector<int64_t>& owned) override;
  Variable Loss(GraphSslModel& model, int64_t batch, Rng& rng) override;

 private:
  GraphBatchSource& source_;
  // Reused across steps: the gathered batch and its identity indices.
  std::vector<Graph> gathered_;
  std::vector<int> iota_;
};

// Trains a node-level model with Adam, one full-graph step per epoch.
std::vector<EpochStats> TrainNodeSsl(
    NodeSslModel& model, const NodeDataset& dataset,
    const TrainOptions& options,
    const std::function<void(const EpochStats&)>& on_epoch = nullptr);

// Shuffled mini-batch index lists covering 0..n-1 (last batch may be
// smaller, but never smaller than 2 — singleton batches are folded
// into the previous one since contrastive losses need negatives).
std::vector<std::vector<int>> MakeMiniBatches(int n, int batch_size, Rng& rng);

// Seed of the per-batch Rng stream: a pure function of (run seed,
// epoch, batch index within the epoch's plan). Both graph trainers
// drive batch b of epoch e with Rng(BatchStreamSeed(seed, e, b)) —
// rather than one sequential stream — so any consumer that knows the
// plan can reproduce an arbitrary batch's randomness without replaying
// the batches before it. This is what lets the data-parallel trainer
// (src/distributed/) evaluate disjoint batches on different ranks
// bit-identically to this loop: no rank needs to know how much
// randomness the others consumed. SplitMix64-style avalanche mixing;
// the run-level Rng(seed) still drives MakeMiniBatches, so plans are
// unchanged by construction.
uint64_t BatchStreamSeed(uint64_t seed, int64_t epoch, int64_t batch);

}  // namespace gradgcl

#endif  // GRADGCL_TRAIN_TRAINER_H_
