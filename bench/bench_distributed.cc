// Distributed training bench: steps/sec, speedup and efficiency of the
// deterministic data-parallel trainer (src/distributed/) on the Table
// VIII efficiency workload — GraphCL + GradGCL on synthetic PROTEINS,
// batch 64 — at 1/2/4 ranks over both transports (ranks run as threads
// of this process on one host; the socket legs still pay real kernel
// socket traffic).
//
// Every leg is parity-gated: the per-step loss trajectory must be
// bitwise identical to the single-rank baseline (that is the
// subsystem's whole contract), and a kill-and-resume leg stops a
// 2-rank run mid-training, resumes from the checkpoint, and asserts
// the stitched trajectory equals the uninterrupted one bit-for-bit.
// Any mismatch exits non-zero — a steps/sec number from a diverged
// trajectory is worthless (same policy as bench_serve / bench_data).
//
// Knobs: GRADGCL_BENCH_DIST_GRAPHS (default 256) and
// GRADGCL_BENCH_DIST_EPOCHS (default 24) size the workload. Writes
// BENCH_distributed.json.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "datasets/tu_synthetic.h"
#include "distributed/data_parallel.h"

namespace gradgcl {
namespace {

using dist::CommStatus;
using dist::DistBackend;
using dist::DistOptions;
using dist::DistResult;
using dist::RunDataParallelRanks;

constexpr double kGradGclWeight = 0.5;
constexpr uint64_t kModelSeed = 9;

int64_t EnvCount(const char* name, int64_t fallback, int64_t min) {
  if (const char* env = std::getenv(name)) {
    const long long v = std::atoll(env);
    if (v >= min) return static_cast<int64_t>(v);
  }
  return fallback;
}

const char* BackendName(DistBackend backend) {
  return backend == DistBackend::kSocket ? "socket" : "thread";
}

DistOptions BenchOptions(int epochs) {
  DistOptions opt;
  opt.train.epochs = epochs;
  opt.train.batch_size = 64;
  opt.train.lr = 0.01;
  opt.train.seed = 5;
  opt.micro_batches_per_step = 4;
  return opt;
}

bool LossesBitEqual(const std::vector<double>& a,
                    const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0);
}

struct Leg {
  const char* backend = "thread";
  int world = 1;
  double seconds = 0.0;
  double steps_per_sec = 0.0;
  double speedup = 1.0;     // steps_per_sec / same-backend 1-rank rate
  double efficiency = 1.0;  // speedup / ranks
  int64_t steps = 0;
};

}  // namespace
}  // namespace gradgcl

int main() {
  using namespace gradgcl;

  const int64_t num_graphs = EnvCount("GRADGCL_BENCH_DIST_GRAPHS", 256, 8);
  const int epochs =
      static_cast<int>(EnvCount("GRADGCL_BENCH_DIST_EPOCHS", 24, 2));

  TuProfile profile = TuProfileByName("PROTEINS");
  profile.num_graphs = static_cast<int>(num_graphs);
  const std::vector<Graph> data = GenerateTuDataset(profile, 51);
  const int feature_dim = data[0].feature_dim();

  std::printf("bench_distributed: deterministic data-parallel training\n");
  std::printf(
      "workload: GraphCL+GradGCL(w=%.1f) on synthetic PROTEINS, "
      "%lld graphs, batch 64, accum 4, %d epochs\n",
      kGradGclWeight, static_cast<long long>(num_graphs), epochs);

  const std::function<std::unique_ptr<GraphSslModel>(int)> model_factory =
      [&](int) {
        return bench::MakeGraphModel(bench::Backbone::kGraphCl, feature_dim,
                                     kGradGclWeight, kModelSeed);
      };

  // Single-rank baseline trajectory: the parity gate for every leg.
  std::vector<double> baseline;
  std::vector<Leg> legs;
  for (const DistBackend backend :
       {DistBackend::kThread, DistBackend::kSocket}) {
    double one_rank_rate = 0.0;
    for (const int world : {1, 2, 4}) {
      DistOptions opt = BenchOptions(epochs);
      opt.world_size = world;
      Stopwatch watch;
      const std::vector<DistResult> results =
          RunDataParallelRanks(opt, backend, model_factory, data);
      const double seconds = watch.ElapsedSeconds();
      for (int r = 0; r < world; ++r) {
        if (results[r].status != CommStatus::kOk) {
          std::fprintf(stderr, "FAIL: %s x%d rank %d status %s\n",
                       BackendName(backend), world, r,
                       dist::CommStatusName(results[r].status));
          return 1;
        }
      }
      if (baseline.empty()) baseline = results[0].step_losses;
      for (int r = 0; r < world; ++r) {
        if (!LossesBitEqual(results[r].step_losses, baseline)) {
          std::fprintf(stderr,
                       "FAIL: %s x%d rank %d loss trajectory diverged "
                       "from the single-rank baseline\n",
                       BackendName(backend), world, r);
          return 1;
        }
      }
      Leg leg;
      leg.backend = BackendName(backend);
      leg.world = world;
      leg.steps = results[0].steps_completed;
      leg.seconds = seconds;
      leg.steps_per_sec = static_cast<double>(leg.steps) / seconds;
      if (world == 1) one_rank_rate = leg.steps_per_sec;
      leg.speedup =
          one_rank_rate > 0.0 ? leg.steps_per_sec / one_rank_rate : 1.0;
      leg.efficiency = leg.speedup / world;
      legs.push_back(leg);
      std::printf(
          "%s x%d: %lld steps in %.2fs -> %.2f steps/sec "
          "(speedup %.2fx, efficiency %.2f), trajectory bitwise == "
          "baseline\n",
          leg.backend, world, static_cast<long long>(leg.steps), seconds,
          leg.steps_per_sec, leg.speedup, leg.efficiency);
    }
  }

  // Kill-and-resume: stop a 2-rank run mid-training, resume from the
  // checkpoint, and require the stitched trajectory to be bitwise
  // equal to the uninterrupted baseline.
  const std::string ckpt = "BENCH_distributed.ckpt";
  std::remove(ckpt.c_str());
  const int64_t stop_at = static_cast<int64_t>(baseline.size()) / 2;
  Stopwatch resume_watch;
  DistOptions stop_opt = BenchOptions(epochs);
  stop_opt.world_size = 2;
  stop_opt.checkpoint_path = ckpt;
  stop_opt.stop_at_step = stop_at;
  const std::vector<DistResult> leg1 =
      RunDataParallelRanks(stop_opt, DistBackend::kThread, model_factory, data);
  DistOptions resume_opt = stop_opt;
  resume_opt.stop_at_step = -1;
  resume_opt.resume = true;
  const std::vector<DistResult> leg2 = RunDataParallelRanks(
      resume_opt, DistBackend::kThread, model_factory, data);
  const double resume_seconds = resume_watch.ElapsedSeconds();
  bool resume_ok =
      leg1[0].status == CommStatus::kOk && leg2[0].status == CommStatus::kOk;
  if (resume_ok) {
    std::vector<double> stitched = leg1[0].step_losses;
    stitched.insert(stitched.end(), leg2[0].step_losses.begin(),
                    leg2[0].step_losses.end());
    resume_ok = LossesBitEqual(stitched, baseline);
  }
  std::remove(ckpt.c_str());
  if (!resume_ok) {
    std::fprintf(stderr,
                 "FAIL: kill-and-resume trajectory diverged from the "
                 "uninterrupted run\n");
    return 1;
  }
  std::printf(
      "kill-and-resume (2 ranks, stop at step %lld): stitched trajectory "
      "bitwise == uninterrupted, %.2fs total\n",
      static_cast<long long>(stop_at), resume_seconds);

  std::FILE* json = std::fopen("BENCH_distributed.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_distributed.json for writing\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"distributed\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"workload\": {\"dataset\": \"PROTEINS-sim\", "
               "\"num_graphs\": %lld, \"batch_size\": 64, "
               "\"micro_batches_per_step\": 4, \"epochs\": %d, "
               "\"steps\": %lld, \"grad_gcl_weight\": %.1f, "
               "\"bucket_bytes\": %lld},\n"
               "  \"ranks_as\": \"threads of one process\",\n",
               std::thread::hardware_concurrency(),
               static_cast<long long>(num_graphs), epochs,
               static_cast<long long>(baseline.size()), kGradGclWeight,
               static_cast<long long>(BenchOptions(epochs).bucket_bytes));
  std::fprintf(json, "  \"legs\": [\n");
  for (size_t i = 0; i < legs.size(); ++i) {
    std::fprintf(json,
                 "    {\"backend\": \"%s\", \"ranks\": %d, "
                 "\"seconds\": %.3f, \"steps_per_sec\": %.3f, "
                 "\"speedup_vs_1rank\": %.3f, \"efficiency\": %.3f, "
                 "\"bitwise_equal_to_single_rank\": true}%s\n",
                 legs[i].backend, legs[i].world, legs[i].seconds,
                 legs[i].steps_per_sec, legs[i].speedup, legs[i].efficiency,
                 i + 1 < legs.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n"
               "  \"kill_and_resume\": {\"backend\": \"thread\", "
               "\"ranks\": 2, \"stopped_at_step\": %lld, "
               "\"seconds\": %.3f, "
               "\"trajectory_bitwise_equal\": true}\n}\n",
               static_cast<long long>(stop_at), resume_seconds);
  std::fclose(json);
  std::printf("wrote BENCH_distributed.json\n");
  return 0;
}
