// Deterministic data-parallel training over a comm ring.
//
// Contrastive losses couple every graph in a batch (InfoNCE negatives),
// so splitting one batch across ranks can never be bitwise-equal to
// full-batch backprop. The unit of parallelism here is therefore the
// *micro-batch*: each global optimizer step consumes a window of
// `micro_batches_per_step` (A) consecutive batches from the epoch plan,
// and rank r of W owns the contiguous slot block
// [r*A/W, (r+1)*A/W). The window's total gradient is defined as a
// stride-doubling pairwise tree over the A slots (empty trailing slots
// contribute exact zeros), reduced in slot order — a pure function of
// the window, independent of W. Because A and W are powers of two and
// W divides A, each rank's block is an aligned subtree: ranks reduce
// their own slots locally with the same tree, then combine partials
// across ranks in absolute rank order inside the fixed-tree ring
// all-reduce (ring_allreduce.h). Result: 1-, 2-, and 4-rank training
// produce bit-identical parameters and loss trajectories, pinned by
// tests over both transports.
//
// Batch plans come from the same Rng(seed)-driven MakeMiniBatches
// stream as the single-process trainers, replicated identically on
// every rank; per-batch randomness comes from the per-batch streams
// (train/trainer.h BatchStreamSeed), so ranks never need to know each
// other's Rng consumption. With W = 1 and A = 1 this loop degenerates
// exactly to TrainGraphSsl, completing the equivalence chain to the
// single-process path.
//
// Fault model: gradients are applied only after a fully successful
// all-reduce, so a rank death mid-step (CommStatus::kPeerDead /
// kTimeout within the configured timeout) leaves every survivor's
// parameters exactly as they were after the last completed step — no
// partial update, no hang. Checkpoint/resume (checkpoint.h) is
// bit-exact at any step boundary.
//
// Model requirement: PostStep() must evolve replicated state only as a
// function of parameters/gradients (GraphCL, InfoGraph, BGRL's EMA).
// Models whose PostStep consumes rank-local batch statistics (JOAO's
// augmentation-distribution update) would diverge across ranks and are
// not supported by this trainer.

#ifndef GRADGCL_DISTRIBUTED_DATA_PARALLEL_H_
#define GRADGCL_DISTRIBUTED_DATA_PARALLEL_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "distributed/checkpoint.h"
#include "distributed/comm.h"
#include "train/trainer.h"

namespace gradgcl {
namespace dist {

struct DistOptions {
  TrainOptions train;
  // Ranks in the ring; must equal the comm's world size (1 without a
  // comm). Must be a power of two.
  int world_size = 1;
  // Micro-batches per optimizer step (A). Power of two, divisible by
  // the world size. A = 1, W = 1 reproduces TrainGraphSsl exactly.
  int micro_batches_per_step = 4;
  // All-reduce bucket size; changes message sizes, never bits.
  int64_t bucket_bytes = int64_t{1} << 20;
  // Deadline for every blocking comm operation.
  int64_t timeout_millis = 30000;
  // Empty disables checkpointing. Rank 0 writes; on resume all ranks
  // read the same file.
  std::string checkpoint_path;
  // Save every k optimizer steps (0 = only at stop/end of training).
  int64_t checkpoint_every_steps = 0;
  // Stop (after saving, if a path is set) once global_step reaches this
  // value; < 0 runs to completion. Used by kill-and-resume tests.
  int64_t stop_at_step = -1;
  // Load checkpoint_path before training and continue from its cursor.
  bool resume = false;
};

struct DistResult {
  CommStatus status = CommStatus::kOk;  // non-kOk: aborted, params intact
  int64_t steps_completed = 0;          // global optimizer steps at return
  std::vector<double> step_losses;      // per-step mean loss, this call only
  std::vector<EpochStats> history;      // epochs processed in this call
};

class DataParallelTrainer {
 public:
  explicit DataParallelTrainer(const DistOptions& options);

  // Trains `model` as one rank of `comm`'s ring (comm == nullptr: the
  // single-rank degenerate case, no communication). All ranks must use
  // identical options; parameters are broadcast from rank 0 before the
  // first step so replicas start bit-identical. With more than one
  // rank, the calling thread counts as inside a parallel region for the
  // run (InlineRegionScope), so kernels and the view fork run inline.
  DistResult Run(GraphSslModel& model, const std::vector<Graph>& dataset,
                 CommBackend* comm = nullptr);

  // Run with the graphs arriving through `source` (the rank consumes
  // only its own slots' batches; bit-identical to Run on an equivalent
  // source).
  DistResult RunStreamed(GraphSslModel& model, GraphBatchSource& source,
                         CommBackend* comm = nullptr);

  const DistOptions& options() const { return options_; }

 private:
  DistOptions options_;
};

// --- Multi-rank harness ---------------------------------------------------

// Comm transport: shared-memory mailboxes or Unix-domain sockets.
enum class DistBackend { kThread, kSocket };

// Runs options.world_size rank threads over a fresh ring of `backend`
// endpoints; `model_factory(rank)` builds each rank's replica inside
// its own thread (per-rank arenas). Returns one result per rank — on
// success all ranks report bit-identical losses and hold bit-identical
// parameters.
std::vector<DistResult> RunDataParallelRanks(
    const DistOptions& options, DistBackend backend,
    const std::function<std::unique_ptr<GraphSslModel>(int rank)>&
        model_factory,
    const std::vector<Graph>& dataset);

// Streamed variant: `source_factory(rank)` builds each rank's batch
// source (each rank consumes only its own slots through it).
std::vector<DistResult> RunDataParallelRanksStreamed(
    const DistOptions& options, DistBackend backend,
    const std::function<std::unique_ptr<GraphSslModel>(int rank)>&
        model_factory,
    const std::function<std::unique_ptr<GraphBatchSource>(int rank)>&
        source_factory);

}  // namespace dist
}  // namespace gradgcl

#endif  // GRADGCL_DISTRIBUTED_DATA_PARALLEL_H_
