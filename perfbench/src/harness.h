// Shared plumbing of the benchmark binary: clocks and order
// statistics, the metric tables every result is checked against, the
// per-run result (metrics + correctness gates), and the span recorder
// the traced runs use to attribute time to library layers.
//
// Everything here lives in the benchmark; the libraries under test are
// only ever called through their public headers.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

// Monotonic time in nanoseconds.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) * 1e-3; }
inline double NsToS(int64_t ns) { return static_cast<double>(ns) * 1e-9; }

// Independent seed for stream `stream` of a run seeded with `seed`
// (SplitMix64 finalizer over both).
inline uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// Linear-interpolation percentile (p in [0, 100]) of `values`; 0 for
// an empty sample.
double Percentile(std::vector<double> values, double p);
inline double Median(const std::vector<double>& values) {
  return Percentile(values, 50.0);
}

// Peak resident set of this process (VmHWM), in MiB.
double PeakRssMb();

// A metric the benchmark can emit: stable name and unit.
struct MetricSpec {
  const char* name;
  const char* unit;
};

// The end-to-end metrics (emitted by every untraced run) and the
// per-layer metrics (emitted by every traced run). BENCHMARK.json
// lists the same names and units; `run.py --smoke` checks they agree.
const std::vector<MetricSpec>& EndToEndMetrics();
const std::vector<MetricSpec>& PerLayerMetrics();

// Options of one benchmark run, parsed from the command line.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Name of a correctness gate to break on purpose (smoke tests); the
  // run must then report correct = false.
  std::string inject;
  // Directory inside the checkout for the files the run writes.
  std::string work_dir;

  bool Inject(const char* gate) const { return inject == gate; }
};

// Outcome of one run: metric values, operation counts and gates.
class Result {
 public:
  // Sets metric `name`, which must appear in one of the metric tables.
  void Set(const std::string& name, double value);

  // Records a correctness gate; any failing gate makes the run
  // incorrect.
  void Gate(const std::string& name, bool ok, const std::string& detail);

  // Adds to the attempted / failed operation counts.
  void Count(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }

  // A free-form line printed before the result (host record, span
  // breakdown, secondary figures).
  void Note(const std::string& line);

  bool correct() const;

  // Prints notes, gates, the metrics of `table` as name/value/unit
  // lines, and last the one-line JSON result. Returns false (printing
  // nothing) if a metric of `table` was never set.
  bool Print(const std::vector<MetricSpec>& table) const;

 private:
  struct Value {
    std::string name;
    double value;
  };
  struct GateRecord {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Value> values_;
  std::vector<GateRecord> gates_;
  std::vector<std::string> notes_;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// In-memory span recorder for one thread: nested begin/end pairs form
// a tree. Self time of a span is its duration minus the durations of
// its direct children (children never overlap on one thread).
class SpanTree {
 public:
  // Opens a span as a child of the innermost open span.
  void Begin(const char* name);
  // Closes the innermost open span.
  void End();

  struct Totals {
    std::string name;
    int64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
    int depth = 0;  // nesting depth of the span's first occurrence
  };
  // Per-name totals, in order of first appearance.
  std::vector<Totals> Summarize() const;
  // Durations of every closed span called `name`, in order.
  std::vector<int64_t> Durations(const char* name) const;
  static const Totals* Find(const std::vector<Totals>& totals,
                            const char* name);

  // Appends an indented name/count/total/self table to `result`.
  void Report(Result* result, const std::string& title, int64_t steps) const;

 private:
  struct Span {
    const char* name;
    int parent;
    int depth;
    int64_t begin_ns;
    int64_t end_ns;
  };
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// RAII span on a SpanTree; a null tree records nothing.
class Span {
 public:
  Span(SpanTree* tree, const char* name) : tree_(tree) {
    if (tree_ != nullptr) tree_->Begin(name);
  }
  ~Span() {
    if (tree_ != nullptr) tree_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanTree* tree_;
};

// Median over `repeats` set-up passes of the seconds `fn` takes; the
// workload keeps the state of the last pass.
template <typename Fn>
double MedianSetupSeconds(int repeats, Fn&& fn) {
  std::vector<double> seconds;
  for (int i = 0; i < repeats; ++i) {
    const int64_t t0 = NowNs();
    fn(i);
    seconds.push_back(NsToS(NowNs() - t0));
  }
  return Median(seconds);
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
