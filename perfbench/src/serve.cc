// serve_query: open-loop graph similarity search.
//
// Set-up generates a PROTEINS-profile corpus, writes it to GGSH shards,
// reads it back through data::ShardedDataset, embeds it with a frozen
// GraphCL encoder and builds an int8 IvfIndex over the embeddings.
// Traffic is a seeded Poisson schedule: 95% of requests are queries
// (one held-out graph through EmbeddingEngine, then its top-10 through
// RetrievalEngine), 5% are bulk embeds of 32 graphs sharing the embed
// engine. Two generator threads release requests at their scheduled
// times to a pool of client connections that block in the engines, so
// a stall delays later requests instead of the schedule (open loop);
// latency is measured from each request's scheduled send time.
//
// Every response is checked against a direct InferenceSession embed
// plus IvfIndex::Search of the same graph.

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "corpus.h"
#include "datasets/tu_synthetic.h"
#include "harness.h"
#include "models/graphcl.h"
#include "obs/metrics.h"
#include "retrieval/engine.h"
#include "retrieval/flat_index.h"
#include "retrieval/ivf_index.h"
#include "serve/engine.h"
#include "serve/session.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gradgcl::Graph;
using gradgcl::Matrix;
using gradgcl::Neighbor;
using gradgcl::Rng;

constexpr int kCorpusGraphs = 10000;
constexpr int kPoolGraphs = 512;    // held-out query graphs
constexpr int kBulkGroups = 64;     // distinct bulk-embed requests
constexpr int kBulkGraphs = 32;
constexpr double kBulkShare = 0.05;
constexpr int kTopK = 10;
constexpr int kWidth = 32;
constexpr int kGeneratorThreads = 2;
constexpr int kConnections = 16;
constexpr int kSetupRepeats = 3;
constexpr int kWarmupQueries = 300;
// Traffic: the nominal rate the latency metrics are taken at, and the
// fixed ladder searched for the highest rate meeting the p99 limit.
constexpr double kNominalQps = 2000.0;
constexpr double kSloP99Us = 5000.0;
constexpr double kRungSeconds = 1.0;
// Tail latencies are medians over windows of this length of each
// window's percentile, so one scheduler stall on a shared host moves
// one window, not the run.
constexpr double kWindowSeconds = 0.5;
constexpr double kLadderQps[] = {1000, 2000, 3000, 4000, 5000, 6000, 8000};
// Recall@10 of the served IVF index against exact f64 search must stay
// above this floor.
constexpr double kRecallFloor = 0.8;

enum Stream : uint64_t {
  kCorpusStream = 11,
  kPoolStream,
  kModelStream,
  kIndexStream,
  kTrafficStream
};

bool SameRow(const Matrix& m, int row, const Matrix& ref, int ref_row) {
  return m.cols() == ref.cols() &&
         std::memcmp(m.data() + static_cast<size_t>(row) * m.cols(),
                     ref.data() + static_cast<size_t>(ref_row) * ref.cols(),
                     sizeof(double) * static_cast<size_t>(m.cols())) == 0;
}

bool SameNeighbors(const std::vector<Neighbor>& a,
                   const std::vector<Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].index != b[i].index ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

// Everything set-up builds; the engines serve from it.
struct Corpus {
  std::vector<Graph> graphs;                  // read back from the shards
  std::vector<std::vector<Graph>> queries;    // one held-out graph each
  std::vector<std::vector<Graph>> bulks;      // kBulkGraphs pool graphs each
  std::vector<std::vector<int>> bulk_members;  // pool index of each graph
  std::unique_ptr<gradgcl::serve::InferenceSession> session;
  std::unique_ptr<gradgcl::retrieval::IvfIndex> index;
  Matrix embeddings;                          // corpus, one row per graph
  Matrix pool_embeddings;                     // reference, one row per query
  std::vector<std::vector<Neighbor>> pool_neighbors;  // reference top-10
  double read_graphs_per_s = 0.0;
  double ivf_build_s = 0.0;
};

void BuildCorpus(const RunConfig& config, int pass, Corpus* c) {
  c->graphs = ShardedProteinsCorpus(
      config, "serve_corpus_" + std::to_string(pass), kCorpusGraphs,
      SubSeed(config.seed, kCorpusStream), &c->read_graphs_per_s);

  const std::vector<Graph> pool = gradgcl::GenerateTuDataset(
      ProteinsProfile(kPoolGraphs), SubSeed(config.seed, kPoolStream));
  c->queries.clear();
  for (const Graph& g : pool) c->queries.push_back({g});
  Rng pick(SubSeed(config.seed, kPoolStream) + 1);
  c->bulks.assign(kBulkGroups, {});
  c->bulk_members.assign(kBulkGroups, {});
  for (int b = 0; b < kBulkGroups; ++b) {
    for (int k = 0; k < kBulkGraphs; ++k) {
      const int member = pick.UniformInt(kPoolGraphs);
      c->bulks[b].push_back(pool[member]);
      c->bulk_members[b].push_back(member);
    }
  }

  gradgcl::GraphClConfig model_config;
  model_config.encoder.in_dim = pool[0].feature_dim();
  model_config.encoder.hidden_dim = kWidth;
  model_config.encoder.out_dim = kWidth;
  model_config.proj_dim = kWidth;
  Rng model_rng(SubSeed(config.seed, kModelStream));
  gradgcl::GraphCl model(model_config, model_rng);
  c->session = gradgcl::serve::InferenceSession::FromEncoder(model.encoder());

  c->embeddings = Matrix(kCorpusGraphs, kWidth);
  constexpr int kChunk = 512;
  for (int begin = 0; begin < kCorpusGraphs; begin += kChunk) {
    const int end = std::min(kCorpusGraphs, begin + kChunk);
    const std::vector<Graph> chunk(c->graphs.begin() + begin,
                                   c->graphs.begin() + end);
    const Matrix part = c->session->EmbedGraphs(chunk);
    std::memcpy(c->embeddings.data() + static_cast<size_t>(begin) * kWidth,
                part.data(), sizeof(double) * part.size());
  }
  gradgcl::retrieval::IvfConfig ivf;
  ivf.seed = SubSeed(config.seed, kIndexStream);
  const int64_t t0 = NowNs();
  c->index = std::make_unique<gradgcl::retrieval::IvfIndex>(
      gradgcl::retrieval::IvfIndex::Build(c->embeddings, ivf));
  c->ivf_build_s = NsToS(NowNs() - t0);

  c->pool_embeddings = c->session->EmbedGraphs(pool);
  c->pool_neighbors.clear();
  for (int q = 0; q < kPoolGraphs; ++q) {
    c->pool_neighbors.push_back(c->index->Search(
        c->pool_embeddings.data() + static_cast<size_t>(q) * kWidth, kTopK));
  }
}

// Recall@10 of the reference IVF answers against exact f64 search over
// the same corpus embeddings.
double RecallAt10(const Corpus& c) {
  const auto exact = gradgcl::retrieval::FlatIndex::BuildExact(c.embeddings);
  double hits = 0.0;
  for (int q = 0; q < kPoolGraphs; ++q) {
    const auto truth = exact.Search(
        c.pool_embeddings.data() + static_cast<size_t>(q) * kWidth, kTopK);
    for (const Neighbor& n : c.pool_neighbors[q]) {
      for (const Neighbor& t : truth) hits += n.index == t.index ? 1.0 : 0.0;
    }
  }
  return hits / (static_cast<double>(kPoolGraphs) * kTopK);
}

// One scheduled request and what happened to it.
struct Request {
  int64_t due_ns = 0;
  int bulk = -1;   // bulk group, or -1 for a query
  int query = 0;   // pool graph of a query
  // Outcome.
  int64_t picked_ns = 0;
  int64_t done_ns = 0;
  int64_t embed_ns = 0;
  int64_t search_ns = 0;
  bool ok = false;
};

std::vector<Request> Schedule(uint64_t seed, double qps, double seconds) {
  Rng rng(seed);
  std::vector<Request> requests;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.Uniform()) / qps;
    if (t >= seconds) break;
    Request r;
    r.due_ns = static_cast<int64_t>(t * 1e9);
    if (rng.Uniform() < kBulkShare) {
      r.bulk = rng.UniformInt(kBulkGroups);
    } else {
      r.query = rng.UniformInt(kPoolGraphs);
    }
    requests.push_back(r);
  }
  return requests;
}

// The serving engines under test plus the client side of the traffic.
class Server {
 public:
  explicit Server(const Corpus& corpus)
      : corpus_(corpus),
        embed_(*corpus.session, gradgcl::serve::ServeOptions{}),
        search_(*corpus.index, gradgcl::retrieval::RetrievalOptions{}) {}

  // Sends `requests` open loop (due times relative to now) and waits
  // for every response; fills each request's outcome. `timed` records
  // the duration of each engine call.
  void Run(std::vector<Request>* requests, bool timed) {
    requests_ = requests;
    timed_ = timed;
    const int64_t start = NowNs() + 20'000'000;  // connections spin up
    for (Request& r : *requests) r.due_ns += start;
    std::vector<std::thread> connections;
    for (int i = 0; i < kConnections; ++i) {
      connections.emplace_back([this] { ConnectionLoop(); });
    }
    std::vector<std::thread> generators;
    for (int g = 0; g < kGeneratorThreads; ++g) {
      generators.emplace_back([this, g] {
        const std::vector<Request>& reqs = *requests_;
        for (size_t i = g; i < reqs.size(); i += kGeneratorThreads) {
          std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(reqs[i].due_ns)));
          {
            std::lock_guard<std::mutex> lock(mu_);
            ready_.push_back(static_cast<int>(i));
          }
          cv_.notify_one();
        }
      });
    }
    for (std::thread& t : generators) t.join();
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (int i = 0; i < kConnections; ++i) ready_.push_back(-1);
    }
    cv_.notify_all();
    for (std::thread& t : connections) t.join();
  }

  void Shutdown() {
    embed_.Shutdown();
    search_.Shutdown();
  }

 private:
  void ConnectionLoop() {
    while (true) {
      int i = -1;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return !ready_.empty(); });
        i = ready_.front();
        ready_.pop_front();
      }
      if (i < 0) return;
      Execute(&(*requests_)[static_cast<size_t>(i)]);
    }
  }

  void Execute(Request* r) {
    r->picked_ns = NowNs();
    if (r->bulk >= 0) {
      const auto result = embed_.Embed(corpus_.bulks[r->bulk]);
      r->done_ns = NowNs();
      if (timed_) r->embed_ns = r->done_ns - r->picked_ns;
      bool ok = result.status == gradgcl::serve::ServeStatus::kOk &&
                result.embeddings.rows() == kBulkGraphs;
      for (int k = 0; ok && k < kBulkGraphs; ++k) {
        ok = SameRow(result.embeddings, k, corpus_.pool_embeddings,
                     corpus_.bulk_members[r->bulk][k]);
      }
      r->ok = ok;
      return;
    }
    const auto embedded = embed_.Embed(corpus_.queries[r->query]);
    const int64_t t1 = timed_ ? NowNs() : 0;
    if (embedded.status != gradgcl::serve::ServeStatus::kOk) {
      r->done_ns = NowNs();
      return;
    }
    const auto found = search_.Search(embedded.embeddings, kTopK);
    r->done_ns = NowNs();
    if (timed_) {
      r->embed_ns = t1 - r->picked_ns;
      r->search_ns = r->done_ns - t1;
    }
    r->ok = found.status == gradgcl::retrieval::RetrievalStatus::kOk &&
            SameRow(embedded.embeddings, 0, corpus_.pool_embeddings,
                    r->query) &&
            found.neighbors.size() == 1 &&
            SameNeighbors(found.neighbors[0],
                          corpus_.pool_neighbors[r->query]);
  }

  const Corpus& corpus_;
  gradgcl::serve::EmbeddingEngine embed_;
  gradgcl::retrieval::RetrievalEngine search_;
  std::vector<Request>* requests_ = nullptr;
  bool timed_ = false;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<int> ready_;
};

// Summary of one open-loop phase.
struct Phase {
  std::vector<double> query_us;  // from scheduled send to response
  std::vector<double> bulk_us;
  std::vector<double> late_us;   // scheduled send to pick-up
  std::vector<double> embed_us;  // query embed calls (timed runs)
  std::vector<double> search_us;
  std::vector<double> bulk_embed_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
};

Phase Summarize(const std::vector<Request>& requests) {
  Phase p;
  for (const Request& r : requests) {
    ++p.attempted;
    if (!r.ok) ++p.failed;
    const double latency = NsToUs(r.done_ns - r.due_ns);
    p.late_us.push_back(NsToUs(r.picked_ns - r.due_ns));
    if (r.bulk >= 0) {
      p.bulk_us.push_back(latency);
      p.bulk_embed_ms.push_back(NsToMs(r.embed_ns));
    } else {
      p.query_us.push_back(latency);
      p.embed_us.push_back(NsToUs(r.embed_ns));
      p.search_us.push_back(NsToUs(r.search_ns));
    }
  }
  return p;
}

// Median over kWindowSeconds windows (by scheduled send time) of each
// window's query-latency percentile `pct`.
double WindowedPercentile(const std::vector<Request>& requests, double pct) {
  if (requests.empty()) return 0.0;
  const int64_t window = static_cast<int64_t>(kWindowSeconds * 1e9);
  const int64_t start = requests.front().due_ns;
  std::vector<std::vector<double>> windows;
  for (const Request& r : requests) {
    if (r.bulk >= 0) continue;
    const size_t w = static_cast<size_t>((r.due_ns - start) / window);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(NsToUs(r.done_ns - r.due_ns));
  }
  std::vector<double> per_window;
  for (const std::vector<double>& w : windows) {
    if (w.size() >= 100) per_window.push_back(Percentile(w, pct));
  }
  return Median(per_window);
}

// Highest ladder rate whose queries meet the p99 limit (windowed, as
// at the nominal rate) with no failed request and no growing backlog
// (the last tenth of the rung's queries must also meet the limit at
// their median). Stops at the first rung that misses.
double SloQps(Server& server, uint64_t seed, Result* result) {
  double best = 0.0;
  int rung = 0;
  for (double qps : kLadderQps) {
    std::vector<Request> requests = Schedule(
        SubSeed(seed, kTrafficStream + 100 + rung++), qps, kRungSeconds);
    server.Run(&requests, false);
    const Phase p = Summarize(requests);
    result->Count(p.attempted, p.failed);
    const size_t tail = p.query_us.size() / 10;
    const std::vector<double> last(p.query_us.end() - tail, p.query_us.end());
    const double p99 = WindowedPercentile(requests, 99.0);
    const bool meets =
        p.failed == 0 && p99 <= kSloP99Us && Median(last) <= kSloP99Us;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "ladder %6.0f qps: p99 %9.1f us over %zu queries, last-tenth "
                  "p50 %8.1f us -> %s",
                  qps, p99, p.query_us.size(), Median(last),
                  meets ? "meets" : "misses");
    result->Note(line);
    if (!meets) break;
    best = qps;
  }
  return best;
}

struct EngineCounters {
  uint64_t serve_requests, serve_rejected, serve_batches, serve_graphs,
      serve_steals, retrieval_requests, retrieval_rejected, retrieval_batches,
      retrieval_queries, retrieval_steals;
};

EngineCounters ReadCounters() {
  const gradgcl::obs::MetricsSnapshot s =
      gradgcl::obs::MetricsRegistry::Instance().Snapshot();
  return {s.counter("serve/requests"),     s.counter("serve/rejected"),
          s.counter("serve/batches"),      s.counter("serve/graphs"),
          s.counter("serve/steals"),       s.counter("retrieval/requests"),
          s.counter("retrieval/rejected"), s.counter("retrieval/batches"),
          s.counter("retrieval/queries"),  s.counter("retrieval/steals")};
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

void RunServeQuery(const RunConfig& config, Result* result) {
  Corpus corpus;
  std::vector<double> read_rates;
  std::vector<double> build_seconds;
  std::unique_ptr<Server> server;
  result->Set("setup_s", MedianSetupSeconds(kSetupRepeats, [&](int pass) {
    server.reset();
    BuildCorpus(config, pass, &corpus);
    read_rates.push_back(corpus.read_graphs_per_s);
    build_seconds.push_back(corpus.ivf_build_s);
    server = std::make_unique<Server>(corpus);
    std::vector<Request> warm =
        Schedule(SubSeed(config.seed, kTrafficStream + 99), 1000.0,
                 kWarmupQueries / 1000.0);
    server->Run(&warm, false);
  }));

  double recall = RecallAt10(corpus);
  if (config.Inject("recall_floor")) recall = kRecallFloor - 1e-9;
  result->Gate("recall_floor", recall >= kRecallFloor,
               "recall@10 " + std::to_string(recall) + " vs floor " +
                   std::to_string(kRecallFloor));
  if (config.Inject("serve_equal")) {
    // Every response for pool graph 0 must now be reported as wrong.
    double* v = corpus.pool_embeddings.data();
    v[0] = std::nextafter(v[0], 1e300);
  }

  // Nominal-rate phase. The traced run sends its first half untimed and
  // times every engine call in the second half.
  std::vector<Request> requests = Schedule(
      SubSeed(config.seed, kTrafficStream), kNominalQps, config.seconds * 0.6);
  const size_t split = config.trace ? requests.size() / 2 : 0;
  std::vector<Request> untimed(requests.begin(), requests.begin() + split);
  std::vector<Request> timed(requests.begin() + split, requests.end());
  const int64_t shift = timed.empty() ? 0 : timed.front().due_ns;
  for (Request& r : timed) r.due_ns -= shift;
  const EngineCounters before = ReadCounters();
  if (!untimed.empty()) server->Run(&untimed, false);
  server->Run(&timed, config.trace);
  const EngineCounters after = ReadCounters();
  const Phase base = Summarize(untimed);
  const Phase phase = Summarize(timed);
  const int64_t attempted = base.attempted + phase.attempted;
  const int64_t failed = base.failed + phase.failed;
  result->Gate("serve_equal", failed == 0,
               std::to_string(attempted - failed) + "/" +
                   std::to_string(attempted) +
                   " responses equal direct EmbedGraphs + IvfIndex::Search");
  result->Count(attempted, failed);

  const double slo = SloQps(*server, config.seed, result);
  server->Shutdown();
  std::vector<double> bulk_rates;
  for (double us : phase.bulk_us) bulk_rates.push_back(kBulkGraphs / us * 1e6);

  if (!config.trace) {
    const double p50 = Percentile(phase.query_us, 50.0);
    const double p90 = WindowedPercentile(timed, 90.0);
    const double p99 = WindowedPercentile(timed, 99.0);
    result->Set("samples_per_s", Median(bulk_rates));
    result->Set("latency_p50_us", p50);
    char line[280];
    std::snprintf(
        line, sizeof(line),
        "query_p50_us %.6g us | query_p90_us %.6g us | query_p99_us %.6g us "
        "(%zu queries at %.0f qps) | query_slo_qps %.6g 1/s | "
        "bulk_graphs_per_s %.6g 1/s | recall_at_10 %.6g",
        p50, p90, p99, phase.query_us.size(), kNominalQps, slo,
        Median(bulk_rates), recall);
    result->Note(line);
    return;
  }
  result->Set("serve.embed_us_p50", Percentile(phase.embed_us, 50.0));
  result->Set("serve.embed_us_p99", Percentile(phase.embed_us, 99.0));
  result->Set("serve.bulk_embed_ms_p50", Median(phase.bulk_embed_ms));
  result->Set("serve.bulk_graphs_per_s", Median(bulk_rates));
  result->Set("retrieval.search_us_p50", Percentile(phase.search_us, 50.0));
  result->Set("retrieval.search_us_p99", Percentile(phase.search_us, 99.0));
  result->Set("serve.mean_batch_graphs",
              Ratio(after.serve_graphs - before.serve_graphs,
                    after.serve_batches - before.serve_batches));
  result->Set("retrieval.mean_batch_queries",
              Ratio(after.retrieval_queries - before.retrieval_queries,
                    after.retrieval_batches - before.retrieval_batches));
  result->Set("serve.steals",
              static_cast<double>(after.serve_steals - before.serve_steals));
  result->Set("retrieval.steals", static_cast<double>(after.retrieval_steals -
                                                      before.retrieval_steals));
  result->Set("serve.rejected_frac",
              Ratio(after.serve_rejected - before.serve_rejected,
                    after.serve_requests - before.serve_requests));
  result->Set("retrieval.rejected_frac",
              Ratio(after.retrieval_rejected - before.retrieval_rejected,
                    after.retrieval_requests - before.retrieval_requests));
  result->Set("retrieval.recall_at_10", recall);
  result->Set("loadgen.query_us_p90", WindowedPercentile(timed, 90.0));
  result->Set("loadgen.query_us_p99", WindowedPercentile(timed, 99.0));
  result->Set("loadgen.late_us_p99", Percentile(phase.late_us, 99.0));
  result->Set("loadgen.slo_qps", slo);
  result->Set("data.corpus_read_graphs_per_s", Median(read_rates));
  result->Set("retrieval.ivf_build_s", Median(build_seconds));
  result->Set("bench.trace_overhead_pct",
              100.0 * (Median(phase.query_us) / Median(base.query_us) - 1.0));
}

}  // namespace perfbench
