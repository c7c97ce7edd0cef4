#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

const std::vector<MetricSpec>& EndToEndMetrics() {
  static const std::vector<MetricSpec> table = {
      {"setup_s", "s"},
      {"samples_per_s", "1/s"},
      {"latency_p50_us", "us"},
      {"peak_rss_mb", "MB"},
  };
  return table;
}

const std::vector<MetricSpec>& PerLayerMetrics() {
  static const std::vector<MetricSpec> table = {
      // Training step anatomy (benchmark-owned step loop).
      {"train.step_ms_p50", "ms"},
      {"train.step_ms_p99", "ms"},
      {"train.step_self_ms", "ms"},
      {"train.loss_end", "nats"},
      {"models.encode_ms", "ms"},
      {"augment.ms", "ms"},
      {"graph.batch_ms", "ms"},
      {"nn.encoder_fwd_ms", "ms"},
      {"losses.loss_f_ms", "ms"},
      {"core.grad_features_ms", "ms"},
      {"core.loss_g_ms", "ms"},
      {"autograd.backward_ms", "ms"},
      {"train.adam_ms", "ms"},
      {"tensor.pool_hit_ratio", "ratio"},
      {"tensor.heap_allocs_per_step", "count"},
      {"tensor.heap_kib_per_step", "KiB"},
      {"core.gradgcl_overhead_pct", "%"},
      {"parallel.speedup_4v1", "x"},
      // Data-parallel training (timed comm wrappers).
      {"distributed.comm_ms_per_step", "ms"},
      {"distributed.bytes_per_step", "B"},
      {"distributed.calls_per_step", "count"},
      {"distributed.rank_skew_ms", "ms"},
      {"distributed.compute_ms_per_step", "ms"},
      {"distributed.speedup_vs_1rank", "x"},
      {"distributed.efficiency", "ratio"},
      // Serving and retrieval.
      {"serve.embed_us_p50", "us"},
      {"serve.embed_us_p99", "us"},
      {"serve.bulk_embed_ms_p50", "ms"},
      {"serve.bulk_graphs_per_s", "1/s"},
      {"retrieval.search_us_p50", "us"},
      {"retrieval.search_us_p99", "us"},
      {"serve.mean_batch_graphs", "count"},
      {"retrieval.mean_batch_queries", "count"},
      {"serve.steals", "count"},
      {"retrieval.steals", "count"},
      {"serve.rejected_frac", "ratio"},
      {"retrieval.rejected_frac", "ratio"},
      {"retrieval.recall_at_10", "ratio"},
      {"loadgen.query_us_p90", "us"},
      {"loadgen.query_us_p99", "us"},
      {"loadgen.late_us_p99", "us"},
      {"loadgen.slo_qps", "1/s"},
      {"data.corpus_read_graphs_per_s", "1/s"},
      {"retrieval.ivf_build_s", "s"},
      // Cost of the tracing itself.
      {"bench.trace_overhead_pct", "%"},
  };
  return table;
}

namespace {

const MetricSpec* FindSpec(const std::string& name) {
  for (const auto* table : {&EndToEndMetrics(), &PerLayerMetrics()}) {
    for (const MetricSpec& spec : *table) {
      if (name == spec.name) return &spec;
    }
  }
  return nullptr;
}

}  // namespace

void Result::Set(const std::string& name, double value) {
  if (FindSpec(name) == nullptr) {
    std::fprintf(stderr, "perfbench: unknown metric '%s'\n", name.c_str());
    std::abort();
  }
  for (Value& v : values_) {
    if (v.name == name) {
      v.value = value;
      return;
    }
  }
  values_.push_back({name, value});
}

void Result::Gate(const std::string& name, bool ok, const std::string& detail) {
  gates_.push_back({name, ok, detail});
}

void Result::Note(const std::string& line) { notes_.push_back(line); }

bool Result::correct() const {
  for (const GateRecord& g : gates_) {
    if (!g.ok) return false;
  }
  return true;
}

bool Result::Print(const std::vector<MetricSpec>& table) const {
  std::map<std::string, double> by_name;
  for (const Value& v : values_) by_name[v.name] = v.value;
  for (const MetricSpec& spec : table) {
    if (by_name.count(spec.name) == 0) {
      std::fprintf(stderr, "perfbench: metric '%s' was not measured\n",
                   spec.name);
      return false;
    }
  }
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const GateRecord& g : gates_) {
    std::printf("gate %-14s %s  %s\n", g.name.c_str(), g.ok ? "pass" : "FAIL",
                g.detail.c_str());
  }
  for (const MetricSpec& spec : table) {
    std::printf("metric %-32s %.6g %s\n", spec.name, by_name[spec.name],
                spec.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& spec : table) {
    double value = by_name[spec.name];
    if (!std::isfinite(value)) value = 0.0;  // JSON has no NaN/Inf
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    json += first ? "\"" : ", \"";
    first = false;
    json += spec.name;
    json += "\": {\"value\": ";
    json += buf;
    json += ", \"unit\": \"";
    json += spec.unit;
    json += "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return true;
}

void SpanTree::Begin(const char* name) {
  const int parent = open_.empty() ? -1 : open_.back();
  const int depth = parent < 0 ? 0 : spans_[parent].depth + 1;
  spans_.push_back({name, parent, depth, NowNs(), 0});
  open_.push_back(static_cast<int>(spans_.size()) - 1);
}

void SpanTree::End() {
  spans_[open_.back()].end_ns = NowNs();
  open_.pop_back();
}

std::vector<SpanTree::Totals> SpanTree::Summarize() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.begin_ns;
  }
  std::vector<Totals> totals;
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto [it, inserted] = index.emplace(s.name, totals.size());
    if (inserted) {
      Totals t;
      t.name = s.name;
      t.depth = s.depth;
      totals.push_back(t);
    }
    Totals& t = totals[it->second];
    const int64_t dur = s.end_ns - s.begin_ns;
    t.count += 1;
    t.total_ns += dur;
    t.self_ns += dur - child_ns[i];
  }
  return totals;
}

std::vector<int64_t> SpanTree::Durations(const char* name) const {
  std::vector<int64_t> out;
  for (const Span& s : spans_) {
    if (std::strcmp(s.name, name) == 0) out.push_back(s.end_ns - s.begin_ns);
  }
  return out;
}

const SpanTree::Totals* SpanTree::Find(const std::vector<Totals>& totals,
                                       const char* name) {
  for (const Totals& t : totals) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

void SpanTree::Report(Result* result, const std::string& title,
                      int64_t steps) const {
  result->Note("spans " + title + " (per step over " + std::to_string(steps) +
               " steps: total ms, self ms, calls)");
  for (const Totals& t : Summarize()) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %*s%-28s %9.4f %9.4f %8lld",
                  2 * t.depth, "", t.name.c_str(),
                  NsToMs(t.total_ns) / static_cast<double>(steps),
                  NsToMs(t.self_ns) / static_cast<double>(steps),
                  static_cast<long long>(t.count));
    result->Note(buf);
  }
}

}  // namespace perfbench
