// Op-level microbenchmarks (not a paper table; supports the Table VIII
// overhead analysis): raw kernels, the InfoNCE loss, and the gradient-
// feature op, forward and forward+backward — the loss-pipeline ops run
// as fused/unfused pairs, and a tape-step benchmark compares the
// pooled allocator against plain heap buffers with per-step allocation
// counters. After the google-benchmark section, a kernel-scaling grid
// times the parallel kernels (dense matmul, the batched-graph SpMM
// aggregation, row softmax, and a node-level GradGCL loss step with its
// n x n backward passes) at 1/2/4/8 pool threads, checks the outputs
// are bit-identical across thread counts, and emits BENCH_kernels.json
// so the perf trajectory is machine-readable across PRs. A second grid
// times the GEMM-family kernels with the scalar table (GRADGCL_SIMD=0)
// against the active vector table and emits BENCH_gemm.json with
// GFLOP/s per kernel and the SIMD speedup.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "autograd/ops.h"
#include "common/json.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "core/grad_gcl_loss.h"
#include "core/gradient_features.h"
#include "datasets/tu_synthetic.h"
#include "graph/batch.h"
#include "losses/contrastive.h"
#include "tensor/linalg.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/simd.h"
#include "tensor/sparse.h"

namespace {

using namespace gradgcl;

void BM_MatMul(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::RandomNormal(n, n, rng);
  const Matrix b = Matrix::RandomNormal(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(64)->Arg(128)->Complexity();

void BM_RowSoftmax(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(2);
  const Matrix a = Matrix::RandomNormal(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(RowSoftmax(a));
  }
}
BENCHMARK(BM_RowSoftmax)->Arg(64)->Arg(256);

void BM_CovarianceSpectrum(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Rng rng(3);
  const Matrix x = Matrix::RandomNormal(4 * d, d, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CovarianceSpectrum(x));
  }
}
BENCHMARK(BM_CovarianceSpectrum)->Arg(16)->Arg(48);

void BM_InfoNceForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(4);
  Variable u(Matrix::RandomNormal(n, 32, rng));
  Variable v(Matrix::RandomNormal(n, 32, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(InfoNce(u, v, 0.5).scalar());
  }
}
BENCHMARK(BM_InfoNceForward)->Arg(64)->Arg(256);

void BM_InfoNceBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  Rng rng(5);
  Variable u(Matrix::RandomNormal(n, 32, rng), true);
  Variable v(Matrix::RandomNormal(n, 32, rng), true);
  for (auto _ : state) {
    u.ZeroGrad();
    v.ZeroGrad();
    Variable loss = InfoNce(u, v, 0.5);
    Backward(loss);
    benchmark::DoNotOptimize(u.grad());
  }
}
BENCHMARK(BM_InfoNceBackward)->Arg(64)->Arg(256);

// range(1) selects the kernel path: 0 = unfused reference composition,
// 1 = fused kernels (both bit-identical; see tests/pool_test.cc).
void BM_GradientFeaturesForward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool fused = state.range(1) == 1;
  const bool restore = FusedKernelsEnabled();
  SetFusedKernelsEnabled(fused);
  Rng rng(6);
  Variable u(Matrix::RandomNormal(n, 32, rng));
  Variable v(Matrix::RandomNormal(n, 32, rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        InfoNceGradientFeatures(u, v, 0.5).value().FrobeniusNorm());
  }
  state.SetLabel(fused ? "fused" : "unfused");
  SetFusedKernelsEnabled(restore);
}
BENCHMARK(BM_GradientFeaturesForward)->ArgsProduct({{64, 256}, {0, 1}});

void BM_GradientFeaturesBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool fused = state.range(1) == 1;
  const bool restore = FusedKernelsEnabled();
  SetFusedKernelsEnabled(fused);
  Rng rng(8);
  Variable u(Matrix::RandomNormal(n, 32, rng), true);
  Variable v(Matrix::RandomNormal(n, 32, rng), true);
  for (auto _ : state) {
    u.ZeroGrad();
    v.ZeroGrad();
    Backward(ag::Sum(InfoNceGradientFeatures(u, v, 0.5)));
    benchmark::DoNotOptimize(u.grad());
  }
  state.SetLabel(fused ? "fused" : "unfused");
  SetFusedKernelsEnabled(restore);
}
BENCHMARK(BM_GradientFeaturesBackward)->ArgsProduct({{64, 256}, {0, 1}});

void BM_GradGclCombinedBackward(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const bool fused = state.range(1) == 1;
  const bool restore = FusedKernelsEnabled();
  SetFusedKernelsEnabled(fused);
  Rng rng(7);
  Variable u(Matrix::RandomNormal(n, 32, rng), true);
  Variable v(Matrix::RandomNormal(n, 32, rng), true);
  for (auto _ : state) {
    u.ZeroGrad();
    v.ZeroGrad();
    Variable lf = InfoNce(u, v, 0.5);
    Variable g = InfoNceGradientFeatures(u, v, 0.5);
    Variable g2 = InfoNceGradientFeatures(v, u, 0.5);
    Variable lg = InfoNce(g, g2, 0.5);
    Backward(ag::Add(ag::ScalarMul(lf, 0.5), ag::ScalarMul(lg, 0.5)));
    benchmark::DoNotOptimize(u.grad());
  }
  state.SetLabel(fused ? "fused" : "unfused");
  SetFusedKernelsEnabled(restore);
}
BENCHMARK(BM_GradGclCombinedBackward)->ArgsProduct({{64, 256}, {0, 1}});

// A full tape step (forward, backward, grad read) under a TapeScope,
// with the pool on (range(0) = 1) or off. The counters expose the
// per-step allocation behaviour: the pooled leg should report ~0 heap
// allocations per step after its warm-up.
void BM_TapeStepAlloc(benchmark::State& state) {
  const bool pooled = state.range(0) == 1;
  const bool restore = PoolingEnabled();
  SetPoolingEnabled(pooled);
  Rng rng(9);
  // Parameter created outside any scope: pool-exempt, like the trainer.
  Variable w(Matrix::RandomNormal(32, 32, rng), true);
  const Matrix x = Matrix::RandomNormal(128, 32, rng);
  const Matrix y = Matrix::RandomNormal(128, 32, rng);
  const auto step = [&] {
    TapeScope tape;
    w.ZeroGrad();
    Variable u = ag::Tanh(ag::MatMul(Variable(x), w));
    Variable v = ag::Tanh(ag::MatMul(Variable(y), w));
    Variable loss = InfoNce(u, v, 0.5);
    Backward(loss);
    return loss.scalar();
  };
  for (int i = 0; i < 3; ++i) step();  // warm the pool buckets

  const PoolStats before = MatrixPool::Instance().stats();
  int64_t steps = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(step());
    ++steps;
  }
  const PoolStats after = MatrixPool::Instance().stats();
  const double denom = static_cast<double>(steps);
  state.counters["heap_allocs/step"] =
      static_cast<double>(after.heap_allocs - before.heap_allocs) / denom;
  state.counters["pool_hits/step"] =
      static_cast<double>(after.pool_hits - before.pool_hits) / denom;
  state.SetLabel(pooled ? "pooled" : "unpooled");
  SetPoolingEnabled(restore);
  MatrixPool::Instance().Trim();
}
BENCHMARK(BM_TapeStepAlloc)->Arg(0)->Arg(1);

// --- Kernel-scaling grid ----------------------------------------------------

// One timed kernel of the scaling grid, evaluated at several pool
// sizes. Apply() must be a pure function of the prebuilt inputs.
struct ScalingCase {
  std::string name;
  std::function<Matrix()> apply;
};

// Best-of wall time of one invocation, after one warm-up. Runs at
// least `reps` reps and keeps going until the measurement window spans
// `min_window_s` of accumulated kernel time (capped at 4000 reps), so
// microsecond-scale kernels are judged over thousands of samples
// instead of a jitter-sized handful.
double TimeKernel(const std::function<Matrix()>& apply, int reps,
                  double min_window_s = 0.0) {
  benchmark::DoNotOptimize(apply());
  double best = 0.0;
  double total = 0.0;
  constexpr int kMaxReps = 20000;
  for (int r = 0; r < kMaxReps; ++r) {
    if (r >= reps && total >= min_window_s) break;
    Stopwatch watch;
    Matrix out = apply();
    const double elapsed = watch.ElapsedSeconds();
    benchmark::DoNotOptimize(out);
    total += elapsed;
    if (r == 0 || elapsed < best) best = elapsed;
  }
  return best;
}

// Times every case at each thread count, verifies bit-identity against
// the single-thread output, prints a table, and writes `path` as JSON
// with per-thread-count speedup and efficiency (speedup / threads).
// matmul_64/128 sit below the cost-model threshold
// (GRADGCL_PARALLEL_MIN_COST), so they take the direct serial call at
// every pool size and must hold ~1.0x instead of regressing.
void WriteKernelScalingReport(const char* path) {
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  constexpr int kReps = 20;

  Rng rng(11);
  const Matrix a64 = Matrix::RandomNormal(64, 64, rng);
  const Matrix b64 = Matrix::RandomNormal(64, 64, rng);
  const Matrix a128 = Matrix::RandomNormal(128, 128, rng);
  const Matrix b128 = Matrix::RandomNormal(128, 128, rng);
  const Matrix a256 = Matrix::RandomNormal(256, 256, rng);
  const Matrix b256 = Matrix::RandomNormal(256, 256, rng);
  const Matrix a512 = Matrix::RandomNormal(512, 512, rng);
  const Matrix b512 = Matrix::RandomNormal(512, 512, rng);
  const Matrix soft = Matrix::RandomNormal(1024, 256, rng);

  // Table-IV-shape aggregation operator: a disjoint-union batch of one
  // full TU profile, SpMM against stacked node features.
  const std::vector<Graph> graphs =
      GenerateTuDataset(TuProfileByName("IMDB-B"), /*seed=*/7);
  const GraphBatch batch = MakeBatch(graphs);
  const Matrix features = Matrix::RandomNormal(batch.total_nodes, 32, rng);

  // train_node-shape GradGCL step: forward plus backward of the a = 0.5
  // InfoNCE loss on two 1000 x 32 views in a TapeScope, as a training
  // step runs it; the output is du.
  const Matrix node_u = Matrix::RandomNormal(1000, 32, rng);
  const Matrix node_v = Matrix::RandomNormal(1000, 32, rng);
  const GradGclLoss node_loss{GradGclConfig{}};

  const std::vector<ScalingCase> cases = {
      {"matmul_64", [&] { return MatMul(a64, b64); }},
      {"matmul_128", [&] { return MatMul(a128, b128); }},
      {"matmul_256", [&] { return MatMul(a256, b256); }},
      {"matmul_512", [&] { return MatMul(a512, b512); }},
      {"spmm_imdb_batch", [&] { return batch.norm_adj.Multiply(features); }},
      {"row_softmax_1024x256", [&] { return RowSoftmax(soft); }},
      {"gradgcl_loss_bwd_n1000",
       [&] {
         TapeScope tape;
         Variable u(node_u, /*requires_grad=*/true);
         Variable v(node_v, /*requires_grad=*/true);
         Backward(node_loss(TwoViewBatch{u, v}));
         return u.grad();
       }},
  };

  const int restore_threads = gradgcl::NumThreads();
  std::FILE* json = std::fopen(path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(json, "{\n  \"bench\": \"kernels\",\n  \"threads\": [");
  for (size_t t = 0; t < thread_counts.size(); ++t) {
    std::fprintf(json, "%d%s", thread_counts[t],
                 t + 1 < thread_counts.size() ? ", " : "");
  }
  std::fprintf(json, "],\n  \"hardware_threads\": %u,\n  \"kernels\": [\n",
               std::thread::hardware_concurrency());

  std::printf("\nKernel scaling (best over >=%d reps / >=150ms window, "
              "seconds; speedup vs 1 thread)\n", kReps);
  std::printf("%-22s", "kernel");
  for (int threads : thread_counts) std::printf("   t=%-7d", threads);
  for (size_t t = 1; t < thread_counts.size(); ++t) {
    std::printf("     x%d", thread_counts[t]);
  }
  std::printf("  bit-identical\n");
  for (size_t c = 0; c < cases.size(); ++c) {
    std::vector<double> seconds;
    Matrix reference;
    bool bit_identical = true;
    for (int threads : thread_counts) {
      gradgcl::SetNumThreads(threads);
      seconds.push_back(TimeKernel(cases[c].apply, kReps,
                                   /*min_window_s=*/0.15));
      Matrix out = cases[c].apply();
      if (threads == thread_counts.front()) {
        reference = out;
      } else if (out.size() != reference.size() ||
                 std::memcmp(out.data(), reference.data(),
                             sizeof(double) * out.size()) != 0) {
        bit_identical = false;
      }
    }
    std::printf("%-22s", cases[c].name.c_str());
    for (double s : seconds) std::printf(" %10.6f", s);
    for (size_t t = 1; t < seconds.size(); ++t) {
      std::printf(" %5.2fx", seconds[0] / seconds[t]);
    }
    std::printf("  %13s\n", bit_identical ? "yes" : "NO");
    std::fprintf(json, "    {\"name\": %s, \"seconds\": [",
                 JsonString(cases[c].name).c_str());
    for (size_t t = 0; t < seconds.size(); ++t) {
      std::fprintf(json, "%.9f%s", seconds[t],
                   t + 1 < seconds.size() ? ", " : "");
    }
    std::fprintf(json, "], \"speedup_vs_1t\": [");
    for (size_t t = 0; t < seconds.size(); ++t) {
      std::fprintf(json, "%.4f%s", seconds[0] / seconds[t],
                   t + 1 < seconds.size() ? ", " : "");
    }
    std::fprintf(json, "], \"efficiency\": [");
    for (size_t t = 0; t < seconds.size(); ++t) {
      std::fprintf(json, "%.4f%s",
                   seconds[0] / seconds[t] / thread_counts[t],
                   t + 1 < seconds.size() ? ", " : "");
    }
    std::fprintf(json, "], \"bit_identical\": %s}%s\n",
                 bit_identical ? "true" : "false",
                 c + 1 < cases.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", path);
  gradgcl::SetNumThreads(restore_threads);
}

// --- SIMD GEMM grid ---------------------------------------------------------

// One GEMM-family kernel timed scalar-vs-SIMD; flops = 2 n k m.
struct GemmCase {
  std::string name;
  double flops;
  std::function<Matrix()> apply;
};

// Times each GEMM kernel with the scalar table (GRADGCL_SIMD=0) and the
// active vector table, reports GFLOP/s and the SIMD speedup, and writes
// `path` as JSON (the ISSUE acceptance gate: >= 2x on AVX2 hardware).
void WriteGemmSimdReport(const char* path) {
  constexpr int kReps = 5;

  Rng rng(12);
  const Matrix a256 = Matrix::RandomNormal(256, 256, rng);
  const Matrix b256 = Matrix::RandomNormal(256, 256, rng);
  const Matrix a512 = Matrix::RandomNormal(512, 512, rng);
  const Matrix b512 = Matrix::RandomNormal(512, 512, rng);
  const Matrix scale256 = Matrix::RandomNormal(256, 1, rng);

  const double f256 = 2.0 * 256 * 256 * 256;
  const std::vector<GemmCase> cases = {
      {"matmul_256", f256, [&] { return MatMul(a256, b256); }},
      {"matmul_512", 2.0 * 512 * 512 * 512,
       [&] { return MatMul(a512, b512); }},
      {"matmul_trans_a_256", f256, [&] { return MatMulTransA(a256, b256); }},
      {"matmul_trans_b_256", f256, [&] { return MatMulTransB(a256, b256); }},
      {"matmul_trans_b_scaled_256", f256,
       [&] { return MatMulTransBScaled(a256, b256, 0.5); }},
      {"scale_rows_matmul_256", f256,
       [&] { return ScaleRowsMatMulScaled(a256, scale256, b256, 2.0); }},
  };

  const bool restore_simd = simd::Enabled();
  std::FILE* json = std::fopen(path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path);
    return;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"gemm\",\n  \"isa\": \"%s\",\n"
               "  \"kernels\": [\n",
               simd::IsaName(simd::CompiledIsa()));

  std::printf("\nGEMM SIMD dispatch (best of %d reps; isa=%s)\n", kReps,
              simd::IsaName(simd::CompiledIsa()));
  std::printf("%-26s %12s %12s %10s %10s %8s\n", "kernel", "scalar(s)",
              "simd(s)", "scalar GF/s", "simd GF/s", "speedup");
  for (size_t c = 0; c < cases.size(); ++c) {
    simd::SetEnabled(false);
    const double scalar_s = TimeKernel(cases[c].apply, kReps);
    simd::SetEnabled(true);
    const double simd_s = TimeKernel(cases[c].apply, kReps);
    const double scalar_gflops = cases[c].flops / scalar_s / 1e9;
    const double simd_gflops = cases[c].flops / simd_s / 1e9;
    const double speedup = scalar_s / simd_s;
    std::printf("%-26s %12.6f %12.6f %10.2f %10.2f %7.2fx\n",
                cases[c].name.c_str(), scalar_s, simd_s, scalar_gflops,
                simd_gflops, speedup);
    std::fprintf(json,
                 "    {\"name\": %s, \"flops\": %.0f, "
                 "\"scalar_seconds\": %.9f, \"simd_seconds\": %.9f, "
                 "\"scalar_gflops\": %.4f, \"simd_gflops\": %.4f, "
                 "\"speedup\": %.4f}%s\n",
                 JsonString(cases[c].name).c_str(), cases[c].flops, scalar_s,
                 simd_s, scalar_gflops, simd_gflops, speedup,
                 c + 1 < cases.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("wrote %s\n", path);
  simd::SetEnabled(restore_simd);
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  WriteKernelScalingReport("BENCH_kernels.json");
  WriteGemmSimdReport("BENCH_gemm.json");
  return 0;
}
