#include "distributed/data_parallel.h"

#include <algorithm>
#include <cstring>
#include <thread>

#include "common/check.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "distributed/comm_socket.h"
#include "distributed/ring_allreduce.h"
#include "tensor/pool.h"
#include "train/scheduler.h"

namespace gradgcl {
namespace dist {

namespace {

bool IsPow2(int64_t x) { return x > 0 && (x & (x - 1)) == 0; }

int64_t FlatParamSize(const std::vector<Variable>& params) {
  int64_t total = 0;
  for (const Variable& p : params) total += p.value().size();
  return total;
}

void FlattenValues(const std::vector<Variable>& params, double* out) {
  for (const Variable& p : params) {
    std::memcpy(out, p.value().data(), sizeof(double) * p.value().size());
    out += p.value().size();
  }
}

void UnflattenValues(const double* in, std::vector<Variable>& params) {
  for (Variable& p : params) {
    Matrix value = Matrix::Uninitialized(p.rows(), p.cols());
    std::memcpy(value.data(), in, sizeof(double) * value.size());
    in += value.size();
    p.set_value(std::move(value));
  }
}

TrainCheckpoint MakeCheckpoint(int64_t global_step, int64_t epoch,
                               int64_t window, const RngState& plan_rng,
                               int accum,
                               const std::vector<Variable>& params,
                               const Adam& optimizer) {
  TrainCheckpoint ckpt;
  ckpt.global_step = global_step;
  ckpt.epoch = epoch;
  ckpt.window = window;
  ckpt.adam_t = optimizer.step_count();
  ckpt.plan_rng = plan_rng;
  ckpt.accum = accum;
  ckpt.params.reserve(params.size());
  for (const Variable& p : params) ckpt.params.push_back(p.value());
  ckpt.adam_m = optimizer.first_moments();
  ckpt.adam_v = optimizer.second_moments();
  return ckpt;
}

DistResult RunCore(GraphSslModel& model, BatchFeed& feed,
                   const DistOptions& opt, CommBackend* comm) {
  const int W = comm != nullptr ? comm->world_size() : 1;
  const int rank = comm != nullptr ? comm->rank() : 0;
  GRADGCL_CHECK_MSG(opt.world_size == W,
                    "options.world_size must match the comm ring");
  const int A = opt.micro_batches_per_step;
  GRADGCL_CHECK_MSG(IsPow2(W), "world size must be a power of two");
  GRADGCL_CHECK_MSG(IsPow2(A),
                    "micro_batches_per_step must be a power of two");
  GRADGCL_CHECK_MSG(A % W == 0,
                    "micro_batches_per_step must be divisible by world size");
  const int B = A / W;  // slots owned by this rank per window
  // Every core already holds a rank: kernels and the view fork run
  // inline instead of queueing on the one pool behind the other ranks.
  InlineRegionScope rank_owns_core(W > 1);
  if (comm != nullptr) comm->set_timeout_millis(opt.timeout_millis);
  const int64_t n = feed.num_graphs();
  GRADGCL_CHECK(n >= 2);

  const TrainOptions& t = opt.train;
  Adam optimizer(model.parameters(), t.lr, 0.9, 0.999, 1e-8, t.weight_decay);
  std::vector<Variable> params = model.parameters();
  const int64_t P = FlatParamSize(params);
  Rng plan_rng(t.seed);
  int64_t global_step = 0;
  int64_t start_epoch = 0;
  int64_t start_window = 0;

  DistResult result;
  // Rank-private arenas: slot gradients, the loss table, and the
  // all-reduce staging inside RingAllReduceSum are all owned by this
  // rank's thread; only the comm ring is shared.
  std::vector<std::vector<double>> slot_grads(
      static_cast<size_t>(B), std::vector<double>(static_cast<size_t>(P)));
  std::vector<double*> slot_ptrs(static_cast<size_t>(B));
  std::vector<double> loss_buf(static_cast<size_t>(A));

  if (opt.resume) {
    TrainCheckpoint ckpt;
    GRADGCL_CHECK_MSG(LoadCheckpoint(opt.checkpoint_path, &ckpt),
                      "failed to load checkpoint");
    GRADGCL_CHECK_MSG(ckpt.accum == A,
                      "checkpoint micro_batches_per_step mismatch");
    GRADGCL_CHECK_MSG(ckpt.params.size() == params.size(),
                      "checkpoint parameter count mismatch");
    for (size_t k = 0; k < params.size(); ++k) {
      GRADGCL_CHECK_MSG(ckpt.params[k].rows() == params[k].rows() &&
                            ckpt.params[k].cols() == params[k].cols(),
                        "checkpoint parameter shape mismatch");
      params[k].set_value(ckpt.params[k]);
    }
    GRADGCL_CHECK(ckpt.adam_t <= INT32_MAX);
    optimizer.RestoreState(std::move(ckpt.adam_m), std::move(ckpt.adam_v),
                           static_cast<int>(ckpt.adam_t));
    plan_rng.set_state(ckpt.plan_rng);
    global_step = ckpt.global_step;
    start_epoch = ckpt.epoch;
    start_window = ckpt.window;
  } else if (comm != nullptr && W > 1) {
    // Replicas must start bit-identical: rank 0's initial parameters
    // win (models are usually seeded identically anyway).
    std::vector<double> flat(static_cast<size_t>(P));
    if (rank == 0) FlattenValues(params, flat.data());
    const CommStatus st = comm->Broadcast(flat.data(), P * 8, /*root=*/0);
    if (st != CommStatus::kOk) {
      result.status = st;
      return result;
    }
    if (rank != 0) UnflattenValues(flat.data(), params);
  }

  const auto save_checkpoint = [&](int64_t epoch, int64_t window,
                                   const RngState& epoch_rng) {
    if (opt.checkpoint_path.empty() || rank != 0) return;
    GRADGCL_CHECK_MSG(
        SaveCheckpoint(opt.checkpoint_path,
                       MakeCheckpoint(global_step, epoch, window, epoch_rng, A,
                                      params, optimizer)),
        "checkpoint save failed");
  };

  for (int64_t epoch = start_epoch; epoch < t.epochs; ++epoch) {
    // Plan stream state at epoch start: what a checkpoint inside this
    // epoch records, so resume can regenerate the identical plan.
    const RngState epoch_rng = plan_rng.state();
    const std::vector<std::vector<int>> plan =
        MakeMiniBatches(static_cast<int>(n), t.batch_size, plan_rng);
    const int64_t num_batches = static_cast<int64_t>(plan.size());
    const int64_t windows = (num_batches + A - 1) / A;
    const int64_t w0 = epoch == start_epoch ? start_window : 0;
    if (w0 >= windows) continue;  // epoch finished before the checkpoint

    std::vector<int64_t> owned;
    for (int64_t w = w0; w < windows; ++w) {
      for (int j = 0; j < B; ++j) {
        const int64_t b = w * A + static_cast<int64_t>(rank) * B + j;
        if (b < num_batches) owned.push_back(b);
      }
    }
    feed.BeginEpoch(plan, owned);

    Stopwatch epoch_watch;
    double epoch_loss = 0.0;
    int64_t epoch_steps = 0;
    optimizer.set_lr(ScheduledLr(t.schedule, t.lr, static_cast<int>(epoch),
                                 t.epochs));
    for (int64_t w = w0; w < windows; ++w) {
      const int64_t m = std::min<int64_t>(A, num_batches - w * A);
      std::fill(loss_buf.begin(), loss_buf.end(), 0.0);
      for (int j = 0; j < B; ++j) {
        const int64_t slot = static_cast<int64_t>(rank) * B + j;
        const int64_t b = w * A + slot;
        if (b >= num_batches) {
          // Trailing empty slot: an exact-zero contribution, identical
          // at every world size, keeps the reduction tree's shape a
          // pure function of A.
          std::fill(slot_grads[j].begin(), slot_grads[j].end(), 0.0);
          continue;
        }
        Rng batch_rng(BatchStreamSeed(t.seed, epoch, b));
        TapeScope tape;  // step-scoped pooling, as in TrainGraphSsl
        optimizer.ZeroGrad();
        Variable loss = feed.Loss(model, b, batch_rng);
        Backward(loss);
        double* out = slot_grads[j].data();
        for (const Variable& p : params) {
          std::memcpy(out, p.grad().data(),
                      sizeof(double) * p.grad().size());
          out += p.grad().size();
        }
        loss_buf[slot] = loss.scalar();
      }
      // Local fixed tree over this rank's aligned slot block — an
      // exact subtree of the global A-slot tree.
      for (int j = 0; j < B; ++j) slot_ptrs[j] = slot_grads[j].data();
      TreeReduceInPlace(slot_ptrs.data(), B, P);
      double* grad_sum = slot_grads[0].data();
      if (comm != nullptr && W > 1) {
        CommStatus st = comm->AllReduceSum(grad_sum, P, opt.bucket_bytes);
        if (st == CommStatus::kOk) {
          // Loss slots are disjoint across ranks (zeros elsewhere), so
          // the tree sum is exact and W-invariant.
          st = comm->AllReduceSum(loss_buf.data(), A, opt.bucket_bytes);
        }
        if (st != CommStatus::kOk) {
          // No partial update: parameters still hold the last
          // completed step's values.
          result.status = st;
          result.steps_completed = global_step;
          return result;
        }
      }
      double window_loss = 0.0;
      for (int64_t s = 0; s < m; ++s) window_loss += loss_buf[s];
      window_loss /= static_cast<double>(m);
      const double inv = 1.0 / static_cast<double>(m);
      for (int64_t k = 0; k < P; ++k) grad_sum[k] *= inv;
      const double* in = grad_sum;
      for (Variable& p : params) {
        Matrix g = Matrix::Uninitialized(p.rows(), p.cols());
        std::memcpy(g.data(), in, sizeof(double) * g.size());
        in += g.size();
        p.set_grad(std::move(g));
      }
      optimizer.Step();
      model.PostStep();

      result.step_losses.push_back(window_loss);
      epoch_loss += window_loss;
      ++epoch_steps;
      ++global_step;
      if (opt.checkpoint_every_steps > 0 &&
          global_step % opt.checkpoint_every_steps == 0) {
        save_checkpoint(epoch, w + 1, epoch_rng);
      }
      if (opt.stop_at_step >= 0 && global_step >= opt.stop_at_step) {
        save_checkpoint(epoch, w + 1, epoch_rng);
        result.steps_completed = global_step;
        if (epoch_steps > 0) {
          EpochStats stats;
          stats.epoch = static_cast<int>(epoch);
          stats.loss = epoch_loss / static_cast<double>(epoch_steps);
          stats.seconds = epoch_watch.ElapsedSeconds();
          result.history.push_back(stats);
        }
        return result;
      }
    }
    EpochStats stats;
    stats.epoch = static_cast<int>(epoch);
    stats.loss = epoch_steps > 0 ? epoch_loss / static_cast<double>(epoch_steps)
                                 : 0.0;
    stats.seconds = epoch_watch.ElapsedSeconds();
    result.history.push_back(stats);
  }
  // Final checkpoint so a later resume is a no-op continuation.
  {
    const RngState final_rng = plan_rng.state();
    save_checkpoint(t.epochs, 0, final_rng);
  }
  result.steps_completed = global_step;
  return result;
}

}  // namespace

DataParallelTrainer::DataParallelTrainer(const DistOptions& options)
    : options_(options) {}

DistResult DataParallelTrainer::Run(GraphSslModel& model,
                                    const std::vector<Graph>& dataset,
                                    CommBackend* comm) {
  InRamFeed feed(dataset);
  return RunCore(model, feed, options_, comm);
}

DistResult DataParallelTrainer::RunStreamed(GraphSslModel& model,
                                            GraphBatchSource& source,
                                            CommBackend* comm) {
  StreamedFeed feed(source);
  return RunCore(model, feed, options_, comm);
}

namespace {

std::vector<std::unique_ptr<CommBackend>> CreateRing(DistBackend backend,
                                                     int world) {
  if (backend == DistBackend::kSocket) {
    std::vector<std::unique_ptr<CommBackend>> ring;
    ring.reserve(world);
    for (auto& endpoint : CreateSocketRing(world)) {
      ring.push_back(std::move(endpoint));
    }
    return ring;
  }
  return CreateThreadRing(world);
}

// Runs options.world_size rank threads over a fresh ring of `backend`
// endpoints; `run_rank(rank, comm)` trains one rank inside its thread.
std::vector<DistResult> RunRanks(
    const DistOptions& options, DistBackend backend,
    const std::function<DistResult(int rank, CommBackend* comm)>& run_rank) {
  const int W = options.world_size;
  auto ring = CreateRing(backend, W);
  std::vector<DistResult> results(static_cast<size_t>(W));
  std::vector<std::thread> ranks;
  ranks.reserve(W);
  for (int r = 0; r < W; ++r) {
    ranks.emplace_back([&, r] {
      results[static_cast<size_t>(r)] =
          run_rank(r, ring[static_cast<size_t>(r)].get());
    });
  }
  for (std::thread& th : ranks) th.join();
  return results;
}

}  // namespace

std::vector<DistResult> RunDataParallelRanks(
    const DistOptions& options, DistBackend backend,
    const std::function<std::unique_ptr<GraphSslModel>(int rank)>&
        model_factory,
    const std::vector<Graph>& dataset) {
  return RunRanks(options, backend, [&](int rank, CommBackend* comm) {
    std::unique_ptr<GraphSslModel> model = model_factory(rank);
    return DataParallelTrainer(options).Run(*model, dataset, comm);
  });
}

std::vector<DistResult> RunDataParallelRanksStreamed(
    const DistOptions& options, DistBackend backend,
    const std::function<std::unique_ptr<GraphSslModel>(int rank)>&
        model_factory,
    const std::function<std::unique_ptr<GraphBatchSource>(int rank)>&
        source_factory) {
  return RunRanks(options, backend, [&](int rank, CommBackend* comm) {
    std::unique_ptr<GraphSslModel> model = model_factory(rank);
    std::unique_ptr<GraphBatchSource> source = source_factory(rank);
    return DataParallelTrainer(options).RunStreamed(*model, *source, comm);
  });
}

}  // namespace dist
}  // namespace gradgcl
