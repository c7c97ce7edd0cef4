// Table VIII — training-time overhead of the gradient loss. Times one
// full training epoch of each backbone/dataset pair with a = 0 (raw)
// and a = 0.5 ((f+g)) using google-benchmark, and prints the overhead
// ratio. Paper shape: the gradient loss adds ~2–6% wall-clock.

#include <benchmark/benchmark.h>

#include <map>
#include <string>

#include "bench_common.h"

namespace {

using namespace gradgcl;
using namespace gradgcl::bench;

struct Pair {
  const char* dataset;
  Backbone backbone;
};

constexpr Pair kPairs[] = {
    {"DD", Backbone::kInfoGraph},
    {"PROTEINS", Backbone::kGraphCl},
    {"IMDB-B", Backbone::kJoao},
    {"RDT-B", Backbone::kSimGrace},
};

const std::vector<Graph>& DatasetFor(const char* name) {
  static std::map<std::string, std::vector<Graph>>& cache =
      *new std::map<std::string, std::vector<Graph>>();
  auto it = cache.find(name);
  if (it == cache.end()) {
    it = cache.emplace(name, GenerateTuDataset(TuProfileByName(name), 51))
             .first;
  }
  return it->second;
}

void BM_TrainEpoch(benchmark::State& state) {
  const Pair& pair = kPairs[state.range(0)];
  const double weight = state.range(1) == 0 ? 0.0 : 0.5;
  const std::vector<Graph>& data = DatasetFor(pair.dataset);

  TrainOptions options;
  options.epochs = 1;
  options.batch_size = 64;
  options.seed = 5;
  for (auto _ : state) {
    // Fresh model each iteration: epoch cost depends on the weights'
    // activation sparsity, so timing a progressively-trained model
    // would bias whichever variant runs more iterations.
    state.PauseTiming();
    std::unique_ptr<GraphSslModel> model = MakeGraphModel(
        pair.backbone, data[0].feature_dim(), weight, 9, 24);
    state.ResumeTiming();
    const std::vector<EpochStats> history =
        TrainGraphSsl(*model, data, options);
    benchmark::DoNotOptimize(history);
  }
  state.SetLabel(std::string(BackboneName(pair.backbone)) +
                 VariantSuffix(weight) + " / " + pair.dataset);
}

}  // namespace

BENCHMARK(BM_TrainEpoch)
    ->ArgsProduct({{0, 1, 2, 3}, {0, 1}})
    ->Unit(benchmark::kMillisecond)
    ->MinWarmUpTime(0.05)
    ->MinTime(0.4);

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  // Global warm-up: touch every dataset and run one epoch of the
  // heaviest pair so allocator/page-cache growth doesn't bias the
  // first benchmarks (raw variants would otherwise look slower than
  // the later (f+g) ones for reasons unrelated to the gradient loss).
  for (const Pair& pair : kPairs) {
    const std::vector<Graph>& data = DatasetFor(pair.dataset);
    std::unique_ptr<GraphSslModel> model = MakeGraphModel(
        pair.backbone, data[0].feature_dim(), 0.5, 9, 24);
    TrainOptions options;
    options.epochs = 1;
    options.batch_size = 64;
    TrainGraphSsl(*model, data, options);
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  gradgcl::bench::FinishObservability();
  std::printf(
      "\nTable VIII reading: compare each backbone's (f+g) row against "
      "its raw row — the gradient loss should add a single-digit "
      "percentage of wall-clock per epoch (paper: +2-6%%).\n");
  return 0;
}
