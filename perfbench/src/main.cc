// Benchmark entry point:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--inject <gate>] [--work-dir <dir>] [--commit <id>]
//
// Prints a host record, the correctness gates, every metric as a
// name/value/unit line, and last a one-line JSON result. Exits 0 when
// every gate passes, 1 when one fails, 2 on bad usage or a refused
// environment.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "harness.h"
#include "tensor/simd.h"
#include "workloads.h"

extern char** environ;

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "train_graph|train_dp4|train_node|serve_query --seed N "
               "--seconds S --trace 0|1 [--inject GATE] [--work-dir DIR] "
               "[--commit ID]\n",
               why);
  return 2;
}

// Every GRADGCL_* variable changes the program under test (thread
// count, fan-out threshold, SIMD table, pooling, observability, shard
// counts...), so a run with any of them set would not measure the
// defaults users run.
bool RefuseKnobEnvironment() {
  bool refused = false;
  for (char** env = environ; *env != nullptr; ++env) {
    if (std::strncmp(*env, "GRADGCL_", 8) == 0) {
      std::fprintf(stderr, "perfbench: refusing to run with %s set\n", *env);
      refused = true;
    }
  }
  return refused;
}

int Main(int argc, char** argv) {
  RunConfig config;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--inject") {
      config.inject = value;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--commit") {
      commit = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");
  if (config.work_dir.empty()) config.work_dir = ".";
  if (RefuseKnobEnvironment()) return 2;

  void (*run)(const RunConfig&, Result*) = nullptr;
  if (config.workload == "train_graph") run = RunTrainGraph;
  if (config.workload == "train_dp4") run = RunTrainDp4;
  if (config.workload == "train_node") run = RunTrainNode;
  if (config.workload == "serve_query") run = RunServeQuery;
  if (run == nullptr) return Usage("unknown workload");

  Result result;
  char host[320];
  std::snprintf(
      host, sizeof(host),
      "host nproc=%u isa=%s build=%s threads=%d min_parallel_cost=%lld "
      "commit=%s workload=%s seed=%llu seconds=%g trace=%d",
      std::thread::hardware_concurrency(),
      gradgcl::simd::IsaName(gradgcl::simd::ActiveIsa()), PERFBENCH_BUILD_TYPE,
      gradgcl::NumThreads(),
      static_cast<long long>(gradgcl::internal::MinParallelCost()), commit.c_str(),
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.seconds, config.trace ? 1 : 0);
  result.Note(host);
  if (config.trace) {
    // A traced run reports every per-layer metric; layers a workload
    // never calls into read 0.
    for (const MetricSpec& spec : PerLayerMetrics()) result.Set(spec.name, 0.0);
  }
  run(config, &result);
  if (!config.trace) result.Set("peak_rss_mb", PeakRssMb());
  if (!result.Print(config.trace ? PerLayerMetrics() : EndToEndMetrics())) {
    return 3;
  }
  return result.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
