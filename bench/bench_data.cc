// Streaming data-pipeline bench: writes (or reuses) the
// MoleculeUniverse-at-scale shard set — >= 1M ZINC-sim graphs by
// default — then measures
//
//  * streamed write throughput (graphs/sec into ShardWriter, one graph
//    resident at a time);
//  * streamed read throughput through the PrefetchReader at 1/2/4
//    reader threads, cold page cache (DropPageCache before the pass)
//    vs warm;
//  * peak RSS (VmHWM), which must stay far under the dataset's dense
//    in-RAM footprint — the point of the mmap pipeline.
//
// The bench doubles as a parity gate: every batch streamed through the
// PrefetchReader is compared bitwise against the in-RAM generator's
// graphs, and any mismatch exits non-zero — a throughput number from
// wrong bytes is worthless (same policy as bench_serve).
//
// Knobs: GRADGCL_DATA_DIR places the shard directory (default ./data;
// an existing matching dataset is reused, so the ~1M-graph write cost
// is paid once); GRADGCL_BENCH_DATA_GRAPHS overrides the graph count
// (smoke runs). Writes BENCH_data.json.

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <algorithm>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/stopwatch.h"
#include "data/prefetch_reader.h"
#include "data/shard_reader.h"
#include "data/stream_profiles.h"
#include "datasets/molecule_universe.h"

namespace gradgcl {
namespace {

using data::PrefetchOptions;
using data::PrefetchReader;
using data::ShardedDataset;
using data::UniverseScaleProfile;

constexpr int kReadBatch = 256;     // graphs per planned batch
constexpr int kParityGraphs = 4096; // prefix compared bitwise vs generator

// Peak resident set in MiB: VmHWM from /proc/self/status, falling back
// to getrusage (ru_maxrss is KiB on Linux).
double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    while (std::fgets(line, sizeof(line), f) != nullptr) {
      long kb = 0;
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
        std::fclose(f);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(f);
  }
  struct rusage usage;
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int64_t GraphCount() {
  if (const char* env = std::getenv("GRADGCL_BENCH_DATA_GRAPHS")) {
    const long long v = std::atoll(env);
    if (v >= 2) return static_cast<int64_t>(v);
  }
  return 1'000'000;
}

int64_t DirBytes(const std::string& dir, int num_shards) {
  int64_t total = 0;
  for (int s = 0; s < num_shards; ++s) {
    const std::string path = dir + "/" + data::ShardFileName(s);
    if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
      std::fseek(f, 0, SEEK_END);
      total += static_cast<int64_t>(std::ftell(f));
      std::fclose(f);
    }
  }
  return total;
}

// Sequential full-scan plan in kReadBatch-graph batches.
std::vector<std::vector<int>> SequentialPlan(int64_t num_graphs) {
  std::vector<std::vector<int>> plan;
  plan.reserve(static_cast<size_t>((num_graphs + kReadBatch - 1) / kReadBatch));
  for (int64_t begin = 0; begin < num_graphs; begin += kReadBatch) {
    const int64_t end = std::min<int64_t>(begin + kReadBatch, num_graphs);
    std::vector<int> batch;
    batch.reserve(static_cast<size_t>(end - begin));
    for (int64_t i = begin; i < end; ++i) batch.push_back(static_cast<int>(i));
    plan.push_back(std::move(batch));
  }
  return plan;
}

struct ReadLeg {
  int threads = 1;
  double cold_gps = 0.0;
  double warm_gps = 0.0;
};

// One full streamed pass; returns graphs/sec.
double TimedPass(const ShardedDataset& ds,
                 const std::vector<std::vector<int>>& plan, int threads,
                 bool cold) {
  if (cold) ds.DropPageCache();
  PrefetchReader reader(ds, PrefetchOptions{.num_threads = threads});
  Stopwatch watch;
  reader.BeginEpoch(plan);
  std::vector<Graph> batch;
  int64_t consumed = 0;
  while (reader.NextBatch(&batch)) consumed += static_cast<int64_t>(batch.size());
  const double seconds = watch.ElapsedSeconds();
  if (consumed != ds.num_graphs()) {
    std::fprintf(stderr, "FAIL: streamed %lld of %lld graphs\n",
                 static_cast<long long>(consumed),
                 static_cast<long long>(ds.num_graphs()));
    std::exit(1);
  }
  return static_cast<double>(consumed) / seconds;
}

// Bitwise parity gate: the first kParityGraphs graphs streamed in
// batches through the PrefetchReader must equal the in-RAM generator's
// output exactly (the generator prefix stream is count-independent).
// Returns the number of graphs checked; exits 1 on any mismatch.
int64_t ParityGate(const ShardedDataset& ds, uint64_t seed) {
  const int64_t count = std::min<int64_t>(kParityGraphs, ds.num_graphs());
  const std::vector<Graph> in_ram = GeneratePretrainSet(
      PretrainKind::kZinc, static_cast<int>(count), seed);
  for (int threads : {1, 2, 4}) {
    PrefetchReader reader(ds, PrefetchOptions{.num_threads = threads});
    reader.BeginEpoch(SequentialPlan(count));
    std::vector<Graph> batch;
    int64_t i = 0;
    while (reader.NextBatch(&batch)) {
      for (const Graph& g : batch) {
        if (!data::GraphsBitwiseEqual(in_ram[static_cast<size_t>(i)], g)) {
          std::fprintf(stderr,
                       "FAIL: streamed graph %lld mismatches the in-RAM "
                       "generator (threads=%d)\n",
                       static_cast<long long>(i), threads);
          std::exit(1);
        }
        ++i;
      }
    }
    if (i != count) {
      std::fprintf(stderr, "FAIL: parity pass truncated at %lld/%lld\n",
                   static_cast<long long>(i), static_cast<long long>(count));
      std::exit(1);
    }
  }
  return count;
}

}  // namespace
}  // namespace gradgcl

int main() {
  using namespace gradgcl;

  UniverseScaleProfile profile;
  profile.num_graphs = GraphCount();
  const std::string dir = data::DefaultDataDir() + "/universe_" +
                          std::to_string(profile.num_graphs);

  std::printf("bench_data: MoleculeUniverse-at-scale streaming pipeline\n");
  std::printf("dataset: %lld ZINC-sim graphs at %s\n",
              static_cast<long long>(profile.num_graphs), dir.c_str());

  // Write leg — skipped when a matching dataset already exists (the
  // at-scale write is the expensive part; page-cache state is reset
  // per read pass anyway).
  double write_seconds = 0.0;
  double write_gps = 0.0;
  bool wrote = false;
  ShardedDataset ds;
  if (ds.Open(dir) && ds.num_graphs() == profile.num_graphs) {
    std::printf("write: reusing existing shard set\n");
  } else {
    Stopwatch watch;
    if (!data::StreamMoleculeUniverseAtScale(profile, dir)) {
      std::fprintf(stderr, "FAIL: shard write failed (disk full?)\n");
      return 1;
    }
    write_seconds = watch.ElapsedSeconds();
    write_gps = static_cast<double>(profile.num_graphs) / write_seconds;
    wrote = true;
    if (!ds.Open(dir)) {
      std::fprintf(stderr, "FAIL: cannot re-open written dataset\n");
      return 1;
    }
    std::printf("write: %.1fs, %.0f graphs/sec (one graph resident)\n",
                write_seconds, write_gps);
  }
  const int64_t bytes = DirBytes(dir, ds.num_shards());
  std::printf("on disk: %d shards, %.1f MiB (%.1f bytes/graph)\n",
              ds.num_shards(), static_cast<double>(bytes) / (1024.0 * 1024.0),
              static_cast<double>(bytes) /
                  static_cast<double>(ds.num_graphs()));

  const int64_t parity_checked = ParityGate(ds, profile.seed);
  std::printf("parity: %lld graphs bitwise-identical to the in-RAM "
              "generator at 1/2/4 reader threads\n",
              static_cast<long long>(parity_checked));

  const std::vector<std::vector<int>> plan = SequentialPlan(ds.num_graphs());
  std::vector<ReadLeg> legs;
  for (int threads : {1, 2, 4}) {
    ReadLeg leg;
    leg.threads = threads;
    leg.cold_gps = TimedPass(ds, plan, threads, /*cold=*/true);
    leg.warm_gps = TimedPass(ds, plan, threads, /*cold=*/false);
    legs.push_back(leg);
    std::printf("read t=%d: cold %.0f graphs/sec, warm %.0f graphs/sec\n",
                threads, leg.cold_gps, leg.warm_gps);
  }

  const double peak_rss_mb = PeakRssMb();
  std::printf("peak RSS: %.1f MiB\n", peak_rss_mb);

  std::FILE* json = std::fopen("BENCH_data.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_data.json for writing\n");
    return 1;
  }
  std::fprintf(json,
               "{\n  \"bench\": \"data\",\n"
               "  \"hardware_threads\": %u,\n"
               "  \"dataset\": {\"profile\": \"molecule_universe_at_scale\", "
               "\"num_graphs\": %lld, \"seed\": %llu, \"num_shards\": %d, "
               "\"feature_dim\": %d, \"bytes\": %lld, "
               "\"graphs_per_shard\": %lld},\n",
               std::thread::hardware_concurrency(),
               static_cast<long long>(ds.num_graphs()),
               static_cast<unsigned long long>(profile.seed), ds.num_shards(),
               ds.feature_dim(), static_cast<long long>(bytes),
               static_cast<long long>(profile.graphs_per_shard));
  if (wrote) {
    std::fprintf(json,
                 "  \"write\": {\"seconds\": %.3f, \"graphs_per_sec\": %.1f},\n",
                 write_seconds, write_gps);
  } else {
    std::fprintf(json, "  \"write\": {\"reused_existing\": true},\n");
  }
  std::fprintf(json,
               "  \"parity\": {\"checked_graphs\": %lld, \"mismatches\": 0, "
               "\"reader_threads\": [1, 2, 4]},\n  \"reads\": [\n",
               static_cast<long long>(parity_checked));
  for (size_t i = 0; i < legs.size(); ++i) {
    std::fprintf(json,
                 "    {\"reader_threads\": %d, \"batch_graphs\": %d, "
                 "\"cold_graphs_per_sec\": %.1f, "
                 "\"warm_graphs_per_sec\": %.1f}%s\n",
                 legs[i].threads, kReadBatch, legs[i].cold_gps,
                 legs[i].warm_gps, i + 1 < legs.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"peak_rss_mb\": %.1f\n}\n", peak_rss_mb);
  std::fclose(json);
  std::printf("wrote BENCH_data.json\n");
  return 0;
}
