// Training workloads: train_graph, train_dp4 and train_node.
//
// Untraced runs call the library's own loops (TrainGraphSsl,
// DataParallelTrainer, TrainNodeSsl) in rounds: each round trains a
// fresh model from the same seed for a fixed number of steps, so every
// round must end bit-identical to the first. A thin model wrapper
// timestamps each optimizer step through the public PostStep hook.
//
// Traced runs replay the library loop in a step loop owned by this
// file, built from the same public calls (MakeMiniBatches,
// BatchStreamSeed, TapeScope, EncodeTwoViews, the Eq. 18 loss parts,
// Backward, Adam::Step, PostStep), with a span around each call. The
// loop is gated bit-identical to the library loop.

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "augment/augment.h"
#include "corpus.h"
#include "common/parallel.h"
#include "core/grad_gcl_loss.h"
#include "core/gradient_features.h"
#include "datasets/node_synthetic.h"
#include "distributed/comm.h"
#include "distributed/data_parallel.h"
#include "graph/batch.h"
#include "harness.h"
#include "models/grace.h"
#include "models/graphcl.h"
#include "tensor/pool.h"
#include "train/scheduler.h"
#include "train/trainer.h"
#include "workloads.h"

namespace perfbench {
namespace {

using gradgcl::Graph;
using gradgcl::Matrix;
using gradgcl::Rng;
using gradgcl::TrainOptions;
using gradgcl::Variable;

// --- Workload shapes --------------------------------------------------------

constexpr int kGraphCorpus = 2048;   // PROTEINS profile, scaled up
constexpr int kWarmupGraphs = 256;   // set-up warm-up subset
constexpr int kBatch = 64;
constexpr int kWidth = 32;
constexpr double kGradWeight = 0.5;  // a in Eq. 18: GraphCL(f+g)
constexpr int kGraphRoundEpochs = 2;  // 64 steps of 64 graphs
constexpr int kRanks = 4;
constexpr int kMicroBatches = 4;
constexpr int kDpRoundEpochs = 4;  // 32 optimizer steps of 4 x 64 graphs
constexpr int kNodes = 1000;
constexpr int kNodeRoundSteps = 8;
constexpr int kSetupRepeats = 7;
constexpr int kMinRounds = 3;

// Seed streams derived from the run seed.
enum Stream : uint64_t { kDataStream = 1, kModelStream, kTrainStream };

// The graph-level corpus, round-tripped through GGSH shards.
std::vector<Graph> GraphCorpus(const RunConfig& config) {
  double read_rate = 0.0;
  return ShardedProteinsCorpus(config, "train_corpus", kGraphCorpus,
                               SubSeed(config.seed, kDataStream), &read_rate);
}

gradgcl::NodeDataset NodeCorpus(uint64_t seed) {
  gradgcl::NodeProfile profile = gradgcl::NodeProfileByName("PubMed");
  profile.name = "SBM-1000";
  profile.num_nodes = kNodes;
  return gradgcl::GenerateNodeDataset(profile, SubSeed(seed, kDataStream));
}

std::unique_ptr<gradgcl::GraphCl> GraphModel(int in_dim, double weight,
                                             uint64_t seed) {
  gradgcl::GraphClConfig config;
  config.encoder.kind = gradgcl::EncoderKind::kGin;
  config.encoder.in_dim = in_dim;
  config.encoder.hidden_dim = kWidth;
  config.encoder.out_dim = kWidth;
  config.encoder.num_layers = 2;
  config.proj_dim = kWidth;
  config.grad_gcl.weight = weight;
  Rng rng(SubSeed(seed, kModelStream));
  return std::make_unique<gradgcl::GraphCl>(config, rng);
}

std::unique_ptr<gradgcl::Grace> NodeModel(int in_dim, double weight,
                                          uint64_t seed) {
  gradgcl::GraceConfig config;
  config.encoder.kind = gradgcl::EncoderKind::kGcn;
  config.encoder.in_dim = in_dim;
  config.encoder.hidden_dim = kWidth;
  config.encoder.out_dim = kWidth;
  config.encoder.num_layers = 2;
  config.proj_dim = kWidth;
  config.grad_gcl.weight = weight;
  Rng rng(SubSeed(seed, kModelStream));
  return std::make_unique<gradgcl::Grace>(config, rng);
}

TrainOptions Options(uint64_t seed, int epochs) {
  TrainOptions options;
  options.epochs = epochs;
  options.batch_size = kBatch;
  options.seed = SubSeed(seed, kTrainStream);
  return options;
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameBits(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].rows() != b[i].rows() || a[i].cols() != b[i].cols()) return false;
    if (std::memcmp(a[i].data(), b[i].data(),
                    sizeof(double) * static_cast<size_t>(a[i].size())) != 0) {
      return false;
    }
  }
  return true;
}

// Moves the first value to its next representable neighbour: the
// smallest possible mismatch, used to prove a gate fires.
void Perturb(std::vector<double>* values) {
  if (!values->empty()) (*values)[0] = std::nextafter((*values)[0], 1e300);
}

// Timestamps optimizer steps of a library loop from the outside. Each
// step ends at PostStep and begins where the previous one ended (the
// first at the first loss evaluation, so one-time start-up work such
// as the data-parallel parameter broadcast is not charged to a step).
class StepRecorder {
 public:
  void LossComputed(double loss) {
    if (begin_ns_ == 0) begin_ns_ = NowNs();
    micro_losses_.push_back(loss);
  }
  void StepDone() {
    const int64_t now = NowNs();
    bounds_.push_back({begin_ns_, now});
    begin_ns_ = now;
  }
  // [begin, end] of every step, in order.
  const std::vector<std::pair<int64_t, int64_t>>& bounds() const {
    return bounds_;
  }
  const std::vector<double>& micro_losses() const { return micro_losses_; }
  std::vector<double> StepMicros() const {
    std::vector<double> us;
    for (const auto& [b, e] : bounds_) us.push_back(NsToUs(e - b));
    return us;
  }

 private:
  int64_t begin_ns_ = 0;
  std::vector<std::pair<int64_t, int64_t>> bounds_;
  std::vector<double> micro_losses_;
};

// Forwards every call to a graph-level model and reports steps to a
// StepRecorder. Shares the inner model's parameters, so optimizers see
// the same Variables.
class RecordedGraphModel : public gradgcl::GraphSslModel {
 public:
  RecordedGraphModel(gradgcl::GraphSslModel& inner, StepRecorder& recorder)
      : inner_(inner), recorder_(recorder) {
    RegisterChild(inner);
  }
  Variable BatchLoss(const std::vector<Graph>& dataset,
                     const std::vector<int>& indices, Rng& rng) override {
    Variable loss = inner_.BatchLoss(dataset, indices, rng);
    recorder_.LossComputed(loss.scalar());
    return loss;
  }
  Matrix EmbedGraphs(const std::vector<Graph>& dataset) override {
    return inner_.EmbedGraphs(dataset);
  }
  void PostStep() override {
    inner_.PostStep();
    recorder_.StepDone();
  }

 private:
  gradgcl::GraphSslModel& inner_;
  StepRecorder& recorder_;
};

class RecordedNodeModel : public gradgcl::NodeSslModel {
 public:
  RecordedNodeModel(gradgcl::NodeSslModel& inner, StepRecorder& recorder)
      : inner_(inner), recorder_(recorder) {
    RegisterChild(inner);
  }
  Variable EpochLoss(const gradgcl::NodeDataset& dataset, Rng& rng) override {
    Variable loss = inner_.EpochLoss(dataset, rng);
    recorder_.LossComputed(loss.scalar());
    return loss;
  }
  Matrix EmbedNodes(const gradgcl::NodeDataset& dataset) override {
    return inner_.EmbedNodes(dataset);
  }
  void PostStep() override {
    inner_.PostStep();
    recorder_.StepDone();
  }

 private:
  gradgcl::NodeSslModel& inner_;
  StepRecorder& recorder_;
};

// What one library training round produced.
struct Round {
  int64_t ns = 0;
  int64_t steps = 0;
  std::vector<double> losses;  // per step
  std::vector<Matrix> params;
  double loss_end = 0.0;  // mean loss of the last epoch
};

Round LibraryGraphRound(const std::vector<Graph>& data, uint64_t seed,
                        int epochs, double weight, StepRecorder* recorder) {
  auto model = GraphModel(data[0].feature_dim(), weight, seed);
  StepRecorder local;
  StepRecorder& rec = recorder != nullptr ? *recorder : local;
  RecordedGraphModel recorded(*model, rec);
  Round round;
  const int64_t t0 = NowNs();
  const auto history = gradgcl::TrainGraphSsl(recorded, data,
                                              Options(seed, epochs));
  round.ns = NowNs() - t0;
  round.steps = static_cast<int64_t>(rec.bounds().size());
  round.losses = rec.micro_losses();
  round.params = model->StateCopy();
  round.loss_end = history.back().loss;
  return round;
}

Round LibraryNodeRound(const gradgcl::NodeDataset& data, uint64_t seed,
                       int steps, double weight, StepRecorder* recorder) {
  auto model = NodeModel(data.graph.feature_dim(), weight, seed);
  StepRecorder local;
  StepRecorder& rec = recorder != nullptr ? *recorder : local;
  RecordedNodeModel recorded(*model, rec);
  Round round;
  const int64_t t0 = NowNs();
  const auto history =
      gradgcl::TrainNodeSsl(recorded, data, Options(seed, steps));
  round.ns = NowNs() - t0;
  round.steps = static_cast<int64_t>(rec.bounds().size());
  round.losses = rec.micro_losses();
  round.params = model->StateCopy();
  round.loss_end = history.back().loss;
  return round;
}

// --- The benchmark-owned step loop -------------------------------------------

// Eq. 18 from GradGclLoss's public parts, one span per part; the same
// calls in the same order as GradGclLoss::operator().
Variable TracedGradGclLoss(const gradgcl::GradGclConfig& config,
                           const gradgcl::TwoViewBatch& views,
                           SpanTree* tree) {
  const gradgcl::GradGclLoss loss(config);
  const auto gradient_loss = [&] {
    Variable u = views.u;
    Variable v = views.u_prime;
    if (config.detach_features) {
      u = u.Detach();
      v = v.Detach();
    }
    Variable g;
    Variable g_prime;
    {
      Span span(tree, "core.grad_features");
      g = gradgcl::GradientFeatures(config.loss, u, v, config.tau);
      g_prime = gradgcl::GradientFeatures(config.loss, v, u, config.tau);
    }
    Span span(tree, "core.loss_g");
    return gradgcl::InfoNce(g, g_prime, config.tau);
  };
  const double a = config.weight;
  if (a == 1.0) return gradient_loss();
  Variable lf;
  {
    Span span(tree, "losses.loss_f");
    lf = loss.RepresentationLoss(views);
  }
  if (a == 0.0) return lf;
  Variable lg = gradient_loss();
  Span span(tree, "core.combine");
  return gradgcl::ag::Add(gradgcl::ag::ScalarMul(lf, 1.0 - a),
                          gradgcl::ag::ScalarMul(lg, a));
}

// One step of the library loops from ZeroGrad to PostStep, with spans;
// `encode` builds the two projected views.
template <typename Model, typename Encode>
double TracedStep(Model& model, gradgcl::Adam& optimizer, SpanTree* tree,
                  Encode&& encode) {
  Span step(tree, "train.step");
  gradgcl::TapeScope tape;
  {
    Span span(tree, "train.zero_grad");
    optimizer.ZeroGrad();
  }
  const gradgcl::TwoViewBatch views = encode();
  Variable loss = TracedGradGclLoss(model.config().grad_gcl, views, tree);
  {
    Span span(tree, "autograd.backward");
    gradgcl::Backward(loss);
  }
  const double value = loss.scalar();
  {
    Span span(tree, "train.adam");
    optimizer.Step();
  }
  Span span(tree, "train.post_step");
  model.PostStep();
  return value;
}

// GraphCl::SampleAugPair with random_augs (the default): the same Rng
// draws in the same order.
std::pair<gradgcl::AugmentKind, gradgcl::AugmentKind> SampleAugPair(
    const gradgcl::GraphClConfig& config, Rng& rng) {
  if (!config.random_augs) return {config.aug1, config.aug2};
  const std::vector<gradgcl::AugmentKind> menu = gradgcl::AllAugmentKinds();
  const auto first = menu[rng.UniformInt(static_cast<int>(menu.size()))];
  const auto second = menu[rng.UniformInt(static_cast<int>(menu.size()))];
  return {first, second};
}

// Matrix-pool traffic of the timed steps.
struct PoolTally {
  gradgcl::PoolStats before;
  uint64_t heap_allocs = 0;
  uint64_t heap_bytes = 0;
  uint64_t hits = 0;
  uint64_t acquires = 0;
  void Begin() { before = gradgcl::MatrixPool::Instance().stats(); }
  void End() {
    const gradgcl::PoolStats after = gradgcl::MatrixPool::Instance().stats();
    heap_allocs += after.heap_allocs - before.heap_allocs;
    heap_bytes += after.heap_bytes - before.heap_bytes;
    hits += after.pool_hits - before.pool_hits;
    acquires += after.acquires - before.acquires;
  }
};

// Time and results of a traced loop; `step_ns` excludes the replays.
struct TracedRound {
  int64_t step_ns = 0;
  int64_t steps = 0;
  std::vector<double> losses;
  std::vector<Matrix> params;
  double loss_end = 0.0;
};

// Re-runs a batch's view construction on a copy of its Rng, timing the
// layers EncodeTwoViews hides: augmentation, batching, encoder forward.
void ReplayGraphViews(gradgcl::GraphCl& model, const std::vector<Graph>& data,
                      const std::vector<int>& indices, Rng rng,
                      SpanTree* tree) {
  gradgcl::TapeScope tape;
  Span root(tree, "replay.encode_two_views");
  const auto [kind1, kind2] = SampleAugPair(model.config(), rng);
  std::vector<Graph> view1;
  std::vector<Graph> view2;
  {
    Span span(tree, "augment");
    for (int idx : indices) {
      view1.push_back(gradgcl::Augment(data[idx], kind1,
                                       model.config().aug_strength, rng));
      view2.push_back(gradgcl::Augment(data[idx], kind2,
                                       model.config().aug_strength, rng));
    }
  }
  gradgcl::GraphBatch batch1;
  gradgcl::GraphBatch batch2;
  {
    Span span(tree, "graph.batch");
    batch1 = gradgcl::MakeBatch(view1);
    batch2 = gradgcl::MakeBatch(view2);
  }
  Span span(tree, "nn.encoder_fwd");
  const Variable h1 = model.encoder().ForwardGraphs(batch1);
  const Variable h2 = model.encoder().ForwardGraphs(batch2);
}

// TrainGraphSsl, step for step, with spans.
TracedRound TracedGraphRound(const std::vector<Graph>& data, uint64_t seed,
                             int epochs, SpanTree* tree, PoolTally* pool) {
  auto model = GraphModel(data[0].feature_dim(), kGradWeight, seed);
  const TrainOptions options = Options(seed, epochs);
  gradgcl::Adam optimizer(model->parameters(), options.lr, 0.9, 0.999, 1e-8,
                          options.weight_decay);
  Rng rng(options.seed);
  TracedRound out;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    int64_t t0 = NowNs();
    optimizer.set_lr(gradgcl::ScheduledLr(options.schedule, options.lr, epoch,
                                          options.epochs));
    std::vector<std::vector<int>> plan;
    {
      Span span(tree, "train.plan");
      plan = gradgcl::MakeMiniBatches(static_cast<int>(data.size()),
                                      options.batch_size, rng);
    }
    out.step_ns += NowNs() - t0;
    double epoch_loss = 0.0;
    for (size_t b = 0; b < plan.size(); ++b) {
      Rng batch_rng(gradgcl::BatchStreamSeed(options.seed, epoch,
                                             static_cast<int64_t>(b)));
      const Rng replay_rng = batch_rng;
      pool->Begin();
      t0 = NowNs();
      const double loss_value = TracedStep(*model, optimizer, tree, [&] {
        const auto [kind1, kind2] = SampleAugPair(model->config(), batch_rng);
        Span span(tree, "models.encode_two_views");
        return model->EncodeTwoViews(data, plan[b], kind1, kind2, batch_rng);
      });
      out.step_ns += NowNs() - t0;
      pool->End();
      out.losses.push_back(loss_value);
      epoch_loss += loss_value;
      ++out.steps;
      ReplayGraphViews(*model, data, plan[b], replay_rng, tree);
    }
    out.loss_end = epoch_loss / static_cast<double>(plan.size());
  }
  out.params = model->StateCopy();
  return out;
}

// Grace's view construction replayed on a copy of the epoch Rng, with
// a twin encoder holding the model's current encoder weights (Grace
// keeps its encoder private).
void ReplayNodeViews(gradgcl::Grace& model, const gradgcl::NodeDataset& data,
                     Rng rng, SpanTree* tree) {
  const gradgcl::GraceConfig& config = model.config();
  Rng init(0);
  gradgcl::GraphEncoder twin(config.encoder, init);
  std::vector<Matrix> state = model.StateCopy();
  state.resize(twin.parameters().size());  // encoder registers first
  twin.LoadState(state);
  gradgcl::TapeScope tape;
  Span root(tree, "replay.encode_two_views");
  const auto make_view = [&](double edge_drop, double feat_mask) {
    Graph view = config.adaptive
                     ? gradgcl::AdaptiveEdgeDrop(data.graph, edge_drop, rng)
                     : gradgcl::EdgeDrop(data.graph, edge_drop, rng);
    return gradgcl::AttrMask(view, feat_mask, rng);
  };
  std::vector<Graph> view1;
  std::vector<Graph> view2;
  {
    Span span(tree, "augment");
    view1.push_back(make_view(config.edge_drop1, config.feat_mask1));
    view2.push_back(make_view(config.edge_drop2, config.feat_mask2));
  }
  gradgcl::GraphBatch batch1;
  gradgcl::GraphBatch batch2;
  {
    Span span(tree, "graph.batch");
    batch1 = gradgcl::MakeBatch(view1);
    batch2 = gradgcl::MakeBatch(view2);
  }
  Span span(tree, "nn.encoder_fwd");
  const Variable h1 = twin.ForwardNodes(batch1);
  const Variable h2 = twin.ForwardNodes(batch2);
}

// TrainNodeSsl, step for step, with spans.
TracedRound TracedNodeRound(const gradgcl::NodeDataset& data, uint64_t seed,
                            int steps, SpanTree* tree, PoolTally* pool) {
  auto model = NodeModel(data.graph.feature_dim(), kGradWeight, seed);
  const TrainOptions options = Options(seed, steps);
  gradgcl::Adam optimizer(model->parameters(), options.lr, 0.9, 0.999, 1e-8,
                          options.weight_decay);
  Rng rng(options.seed);
  TracedRound out;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    const Rng replay_rng = rng;
    pool->Begin();
    const int64_t t0 = NowNs();
    optimizer.set_lr(gradgcl::ScheduledLr(options.schedule, options.lr, epoch,
                                          options.epochs));
    const double loss_value = TracedStep(*model, optimizer, tree, [&] {
      Span span(tree, "models.encode_two_views");
      return model->EncodeTwoViews(data, rng);
    });
    out.step_ns += NowNs() - t0;
    pool->End();
    out.losses.push_back(loss_value);
    out.loss_end = loss_value;
    ++out.steps;
    ReplayNodeViews(*model, data, replay_rng, tree);
  }
  out.params = model->StateCopy();
  return out;
}

// --- Shared reporting ----------------------------------------------------------

// Runs `round` until `seconds` have passed (and at least kMinRounds
// times), checking every round against the first bit for bit, and
// sets the training end-to-end metrics from the rounds.
void MeasureRounds(const RunConfig& config, double samples_per_round,
                   const std::function<Round(StepRecorder*)>& round,
                   Result* result) {
  std::vector<double> rates;
  std::vector<double> step_us;
  Round first;
  int64_t mismatched = 0;
  int64_t steps = 0;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  for (int r = 0; r < kMinRounds || NowNs() < deadline; ++r) {
    StepRecorder recorder;
    Round current = round(&recorder);
    rates.push_back(samples_per_round / NsToS(current.ns));
    const std::vector<double> us = recorder.StepMicros();
    step_us.insert(step_us.end(), us.begin(), us.end());
    steps += current.steps;
    if (r == 0) {
      first = std::move(current);
      if (config.Inject("rounds_equal")) Perturb(&first.losses);
      continue;
    }
    if (!SameBits(first.losses, current.losses) ||
        !SameBits(first.params, current.params)) {
      ++mismatched;
    }
  }
  double loss_end = first.loss_end;
  if (config.Inject("loss_finite")) loss_end = std::nan("");
  result->Gate("rounds_equal", mismatched == 0,
               std::to_string(rates.size()) +
                   " rounds; losses and parameters bit-identical to round 1");
  result->Gate("loss_finite", std::isfinite(loss_end),
               "train_loss_end " + std::to_string(loss_end));
  result->Count(steps, mismatched * (steps / static_cast<int64_t>(rates.size())));
  result->Set("samples_per_s", Median(rates));
  result->Set("latency_p50_us", Percentile(step_us, 50.0));
  char line[200];
  std::snprintf(line, sizeof(line),
                "train_samples_per_s %.6g 1/s | train_loss_end %.17g nats | "
                "rounds %zu | steps %lld | failed_frac %.6g",
                Median(rates), loss_end, rates.size(),
                static_cast<long long>(steps),
                static_cast<double>(mismatched) /
                    static_cast<double>(rates.size()));
  result->Note(line);
}

// Sets the step-anatomy metrics of a traced loop.
void ReportAnatomy(const SpanTree& tree, const PoolTally& pool, int64_t steps,
                   double loss_end, Result* result) {
  const auto totals = tree.Summarize();
  const double per_step = 1.0 / static_cast<double>(steps);
  const auto total_ms = [&](const char* name) {
    const SpanTree::Totals* t = tree.Find(totals, name);
    return t == nullptr ? 0.0 : NsToMs(t->total_ns) * per_step;
  };
  std::vector<double> step_ms;
  for (int64_t ns : tree.Durations("train.step")) step_ms.push_back(NsToMs(ns));
  const SpanTree::Totals* step = tree.Find(totals, "train.step");
  result->Set("train.step_ms_p50", Percentile(step_ms, 50.0));
  result->Set("train.step_ms_p99", Percentile(step_ms, 99.0));
  result->Set("train.step_self_ms", NsToMs(step->self_ns) * per_step);
  result->Set("train.loss_end", loss_end);
  result->Set("models.encode_ms", total_ms("models.encode_two_views"));
  result->Set("augment.ms", total_ms("augment"));
  result->Set("graph.batch_ms", total_ms("graph.batch"));
  result->Set("nn.encoder_fwd_ms", total_ms("nn.encoder_fwd"));
  result->Set("losses.loss_f_ms", total_ms("losses.loss_f"));
  result->Set("core.grad_features_ms", total_ms("core.grad_features"));
  result->Set("core.loss_g_ms", total_ms("core.loss_g"));
  result->Set("autograd.backward_ms", total_ms("autograd.backward"));
  result->Set("train.adam_ms", total_ms("train.adam"));
  result->Set("tensor.pool_hit_ratio",
              pool.acquires == 0 ? 0.0
                                 : static_cast<double>(pool.hits) /
                                       static_cast<double>(pool.acquires));
  result->Set("tensor.heap_allocs_per_step",
              static_cast<double>(pool.heap_allocs) * per_step);
  result->Set("tensor.heap_kib_per_step",
              static_cast<double>(pool.heap_bytes) / 1024.0 * per_step);
  tree.Report(result, "train", steps);
}

// Median over alternating pairs of (numerator / denominator) timings.
double MedianPairRatio(double seconds, const std::function<int64_t()>& num,
                       const std::function<int64_t()>& den) {
  std::vector<double> ratios;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  for (int i = 0; i < 2 || NowNs() < deadline; ++i) {
    const int64_t n = num();
    const int64_t d = den();
    ratios.push_back(static_cast<double>(n) / static_cast<double>(d));
  }
  return Median(ratios);
}

// The traced run of a single-process training workload: the anatomy
// loop (gated against the library loop), the GradGCL overhead against
// an a = 0 twin, and the speed-up of the default thread count over 1.
template <typename Traced, typename Library, typename Twin>
void TracedTraining(const RunConfig& config, Traced traced, Library library,
                    Twin twin, Result* result) {
  SpanTree tree;
  PoolTally pool;
  int64_t steps = 0;
  int64_t mismatched = 0;
  double loss_end = 0.0;
  std::vector<double> overhead;
  const int64_t anatomy_end =
      NowNs() + static_cast<int64_t>(config.seconds * 0.45e9);
  for (int rep = 0; rep == 0 || NowNs() < anatomy_end; ++rep) {
    TracedRound bench = traced(&tree, &pool);
    const Round lib = library();
    if (config.Inject("loop_bitwise")) Perturb(&bench.losses);
    if (!SameBits(bench.losses, lib.losses) ||
        !SameBits(bench.params, lib.params) || bench.loss_end != lib.loss_end) {
      ++mismatched;
    }
    steps += bench.steps;
    loss_end = bench.loss_end;
    overhead.push_back(static_cast<double>(bench.step_ns) /
                           static_cast<double>(lib.ns) -
                       1.0);
  }
  result->Gate("loop_bitwise", mismatched == 0,
               "benchmark step loop == library loop (losses, parameters) over " +
                   std::to_string(steps) + " steps");
  result->Count(steps, mismatched);
  ReportAnatomy(tree, pool, steps, loss_end, result);
  result->Set("bench.trace_overhead_pct", 100.0 * Median(overhead));

  result->Set("core.gradgcl_overhead_pct",
              100.0 * (MedianPairRatio(config.seconds * 0.25,
                                       [&] { return twin(kGradWeight); },
                                       [&] { return twin(0.0); }) -
                       1.0));
  const int default_threads = gradgcl::NumThreads();
  result->Set("parallel.speedup_4v1",
              MedianPairRatio(
                  config.seconds * 0.25,
                  [&] {
                    gradgcl::SetNumThreads(1);
                    const int64_t ns = twin(kGradWeight);
                    gradgcl::SetNumThreads(default_threads);
                    return ns;
                  },
                  [&] { return twin(kGradWeight); }));
}

// --- Data-parallel plumbing ----------------------------------------------------

// A CommBackend that forwards to a real ring endpoint and times every
// transport call. The ring collectives (Broadcast, Barrier,
// AllReduceSum) are built on these calls, so every byte the trainer
// moves passes through here.
class TimedComm : public gradgcl::dist::CommBackend {
 public:
  struct Call {
    int64_t begin_ns;
    int64_t end_ns;
    int64_t bytes_sent;
  };

  explicit TimedComm(gradgcl::dist::CommBackend* inner) : inner_(inner) {}

  int rank() const override { return inner_->rank(); }
  int world_size() const override { return inner_->world_size(); }
  const char* name() const override { return inner_->name(); }

  gradgcl::dist::CommStatus SendNext(const void* bytes, int64_t n) override {
    const int64_t t0 = NowNs();
    const auto status = inner_->SendNext(bytes, n);
    calls_.push_back({t0, NowNs(), n});
    return status;
  }
  gradgcl::dist::CommStatus RecvPrev(void* bytes, int64_t n) override {
    const int64_t t0 = NowNs();
    const auto status = inner_->RecvPrev(bytes, n);
    calls_.push_back({t0, NowNs(), 0});
    return status;
  }
  gradgcl::dist::CommStatus SendRecv(const void* send, int64_t send_n,
                                     void* recv, int64_t recv_n) override {
    const int64_t t0 = NowNs();
    const auto status = inner_->SendRecv(send, send_n, recv, recv_n);
    calls_.push_back({t0, NowNs(), send_n});
    return status;
  }
  void Abort() override { inner_->Abort(); }

  const std::vector<Call>& calls() const { return calls_; }

 private:
  gradgcl::dist::CommBackend* inner_;
  std::vector<Call> calls_;
};

struct RankRun {
  gradgcl::dist::DistResult result;
  std::vector<Matrix> params;
  StepRecorder recorder;
  std::unique_ptr<TimedComm> timed;
};

struct DpRound {
  int64_t ns = 0;
  std::vector<RankRun> ranks;
};

gradgcl::dist::DistOptions DpOptions(uint64_t seed, int epochs, int world) {
  gradgcl::dist::DistOptions options;
  options.train = Options(seed, epochs);
  options.world_size = world;
  options.micro_batches_per_step = kMicroBatches;
  return options;
}

// One data-parallel round on `world` thread ranks of a fresh
// CreateThreadRing (world == 1: the single-rank trainer, no ring). Each
// rank builds its replica inside its own thread, as the library's
// RunDataParallelRanks does.
DpRound DataParallelRound(const std::vector<Graph>& data, uint64_t seed,
                          int epochs, int world, bool timed) {
  const gradgcl::dist::DistOptions options = DpOptions(seed, epochs, world);
  std::vector<std::unique_ptr<gradgcl::dist::CommBackend>> ring;
  if (world > 1) ring = gradgcl::dist::CreateThreadRing(world);
  DpRound round;
  round.ranks.resize(static_cast<size_t>(world));
  std::vector<std::thread> threads;
  const int64_t t0 = NowNs();
  for (int r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      RankRun& rank = round.ranks[static_cast<size_t>(r)];
      gradgcl::dist::CommBackend* comm =
          world > 1 ? ring[static_cast<size_t>(r)].get() : nullptr;
      if (timed && comm != nullptr) {
        rank.timed = std::make_unique<TimedComm>(comm);
        comm = rank.timed.get();
      }
      auto model = GraphModel(data[0].feature_dim(), kGradWeight, seed);
      RecordedGraphModel recorded(*model, rank.recorder);
      gradgcl::dist::DataParallelTrainer trainer(options);
      rank.result = trainer.Run(recorded, data, comm);
      rank.params = model->StateCopy();
    });
  }
  for (std::thread& t : threads) t.join();
  round.ns = NowNs() - t0;
  return round;
}

// Losses and parameters every rank of a data-parallel run must match.
struct RankReference {
  std::vector<double> losses;
  std::vector<Matrix> params;
};

RankReference ReferenceOf(const RankRun& rank, bool inject) {
  RankReference ref{rank.result.step_losses, rank.params};
  if (inject) Perturb(&ref.losses);
  return ref;
}

// True when every rank finished cleanly with the reference's losses
// and parameters.
bool RanksMatch(const DpRound& round, const RankReference& reference) {
  for (const RankRun& rank : round.ranks) {
    if (rank.result.status != gradgcl::dist::CommStatus::kOk ||
        !SameBits(rank.result.step_losses, reference.losses) ||
        !SameBits(rank.params, reference.params)) {
      return false;
    }
  }
  return true;
}

void ReportComm(const DpRound& round, Result* result) {
  const int world = static_cast<int>(round.ranks.size());
  const size_t steps = round.ranks[0].recorder.bounds().size();
  double comm_ns = 0.0;
  double bytes = 0.0;
  double calls = 0.0;
  double compute_ns = 0.0;
  double skew_ns = 0.0;
  for (size_t s = 0; s < steps; ++s) {
    double lo = 1e300;
    double hi = -1e300;
    for (const RankRun& rank : round.ranks) {
      const auto [begin, end] = rank.recorder.bounds()[s];
      double step_comm = 0.0;
      for (const TimedComm::Call& c : rank.timed->calls()) {
        if (c.begin_ns < begin || c.end_ns > end) continue;
        step_comm += static_cast<double>(c.end_ns - c.begin_ns);
        bytes += static_cast<double>(c.bytes_sent);
        calls += 1.0;
      }
      const double compute = static_cast<double>(end - begin) - step_comm;
      comm_ns += step_comm;
      compute_ns += compute;
      lo = std::min(lo, compute);
      hi = std::max(hi, compute);
    }
    skew_ns += hi - lo;
  }
  const double rank_steps = static_cast<double>(steps) * world;
  result->Set("distributed.comm_ms_per_step", comm_ns / rank_steps * 1e-6);
  result->Set("distributed.compute_ms_per_step",
              compute_ns / rank_steps * 1e-6);
  result->Set("distributed.bytes_per_step", bytes / static_cast<double>(steps));
  result->Set("distributed.calls_per_step", calls / static_cast<double>(steps));
  result->Set("distributed.rank_skew_ms",
              skew_ns / static_cast<double>(steps) * 1e-6);
}

}  // namespace

// --- Workloads -----------------------------------------------------------------

void RunTrainGraph(const RunConfig& config, Result* result) {
  std::vector<Graph> data;
  result->Set("setup_s", MedianSetupSeconds(kSetupRepeats, [&](int) {
    data = GraphCorpus(config);
    const std::vector<Graph> warm(data.begin(), data.begin() + kWarmupGraphs);
    LibraryGraphRound(warm, config.seed, 1, kGradWeight, nullptr);
  }));
  if (!config.trace) {
    MeasureRounds(config, static_cast<double>(kGraphRoundEpochs) * kGraphCorpus,
                  [&](StepRecorder* rec) {
                    return LibraryGraphRound(data, config.seed,
                                             kGraphRoundEpochs, kGradWeight,
                                             rec);
                  },
                  result);
    return;
  }
  TracedTraining(
      config,
      [&](SpanTree* tree, PoolTally* pool) {
        return TracedGraphRound(data, config.seed, kGraphRoundEpochs, tree,
                                pool);
      },
      [&] {
        return LibraryGraphRound(data, config.seed, kGraphRoundEpochs,
                                 kGradWeight, nullptr);
      },
      [&](double weight) {
        return LibraryGraphRound(data, config.seed, 1, weight, nullptr).ns;
      },
      result);
}

void RunTrainNode(const RunConfig& config, Result* result) {
  gradgcl::NodeDataset data;
  result->Set("setup_s", MedianSetupSeconds(kSetupRepeats, [&](int) {
    data = NodeCorpus(config.seed);
    LibraryNodeRound(data, config.seed, 2, kGradWeight, nullptr);
  }));
  if (!config.trace) {
    MeasureRounds(config, static_cast<double>(kNodeRoundSteps) * kNodes,
                  [&](StepRecorder* rec) {
                    return LibraryNodeRound(data, config.seed, kNodeRoundSteps,
                                            kGradWeight, rec);
                  },
                  result);
    return;
  }
  TracedTraining(
      config,
      [&](SpanTree* tree, PoolTally* pool) {
        return TracedNodeRound(data, config.seed, kNodeRoundSteps, tree, pool);
      },
      [&] {
        return LibraryNodeRound(data, config.seed, kNodeRoundSteps,
                                kGradWeight, nullptr);
      },
      [&](double weight) {
        return LibraryNodeRound(data, config.seed, kNodeRoundSteps / 2, weight,
                                nullptr)
            .ns;
      },
      result);
}

void RunTrainDp4(const RunConfig& config, Result* result) {
  std::vector<Graph> data;
  result->Set("setup_s", MedianSetupSeconds(kSetupRepeats, [&](int) {
    data = GraphCorpus(config);
    const std::vector<Graph> warm(data.begin(), data.begin() + kWarmupGraphs);
    DataParallelRound(warm, config.seed, 1, kRanks, false);
  }));
  const double samples_per_round =
      static_cast<double>(kDpRoundEpochs) * kGraphCorpus;
  if (!config.trace) {
    // Every round's ranks must agree with each other; MeasureRounds then
    // checks rank 0 of every round against the first round.
    int64_t split_rounds = 0;
    int64_t rounds = 0;
    MeasureRounds(config, samples_per_round,
                  [&](StepRecorder* rec) {
                    DpRound round = DataParallelRound(
                        data, config.seed, kDpRoundEpochs, kRanks, false);
                    RankRun& lead = round.ranks[0];
                    if (!RanksMatch(round, ReferenceOf(lead, config.Inject(
                                                                 "rank_equal")))) {
                      ++split_rounds;
                    }
                    ++rounds;
                    *rec = std::move(lead.recorder);
                    Round out;
                    out.ns = round.ns;
                    out.steps = static_cast<int64_t>(
                        lead.result.step_losses.size());
                    out.losses = std::move(lead.result.step_losses);
                    out.params = std::move(lead.params);
                    out.loss_end = lead.result.history.back().loss;
                    return out;
                  },
                  result);
    result->Gate("rank_equal", split_rounds == 0,
                 std::to_string(rounds) +
                     " rounds; all ranks memcmp-equal (losses, parameters)");
    result->Count(0, split_rounds);
    return;
  }

  // Traced: alternating rounds of 4 ranks with timed comm wrappers,
  // 4 ranks without, and 1 rank, all of the same DistOptions.
  std::vector<double> speedup;
  std::vector<double> overhead;
  DpRound timed;
  RankReference reference;
  bool match = true;
  const int64_t deadline =
      NowNs() + static_cast<int64_t>(config.seconds * 1e9);
  for (int i = 0; i < 2 || NowNs() < deadline; ++i) {
    timed = DataParallelRound(data, config.seed, kDpRoundEpochs, kRanks,
                              /*timed=*/true);
    if (i == 0) {
      reference = ReferenceOf(timed.ranks[0], config.Inject("rank_equal"));
    }
    const DpRound four =
        DataParallelRound(data, config.seed, kDpRoundEpochs, kRanks, false);
    const DpRound one =
        DataParallelRound(data, config.seed, kDpRoundEpochs, 1, false);
    match = match && RanksMatch(timed, reference) &&
            RanksMatch(four, reference) && RanksMatch(one, reference);
    speedup.push_back(static_cast<double>(one.ns) /
                      static_cast<double>(four.ns));
    overhead.push_back(static_cast<double>(timed.ns) /
                           static_cast<double>(four.ns) -
                       1.0);
  }
  result->Gate("rank_equal", match,
               std::to_string(speedup.size()) +
                   " x (timed 4-rank, 4-rank, 1-rank) runs memcmp-equal");
  result->Count(static_cast<int64_t>(speedup.size()) * 3, match ? 0 : 1);
  ReportComm(timed, result);
  const double s = Median(speedup);
  result->Set("distributed.speedup_vs_1rank", s);
  result->Set("distributed.efficiency", s / kRanks);
  result->Set("bench.trace_overhead_pct", 100.0 * Median(overhead));
  result->Set("train.loss_end", timed.ranks[0].result.history.back().loss);
}

}  // namespace perfbench
