// Tests for ag::ForkJoin2 (autograd/variable.h), the fork-join that runs
// the two augmented views of a contrastive step on their own cores:
//
//   1. GraphCL(f+g), JOAO and SimGRACE training steps through the fork
//      are memcmp-equal — per-step losses, parameter gradients and
//      parameters — to a serial composition of the two-view code
//      written out in this file, at 1, 2 and 4 threads, with the SIMD
//      tables on and off, pooled and unpooled.
//   2. Tape semantics: an output nobody uses is never walked and its
//      leaves stay untouched; outputs that need no gradient get no
//      join; a fork inside a parallel region runs inline; the leaf
//      sink is cleared after every walk; nested forks fold correctly.

#include <atomic>
#include <cmath>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "datasets/tu_synthetic.h"
#include "models/graphcl.h"
#include "models/joao.h"
#include "models/simgrace.h"
#include "tensor/pool.h"
#include "tensor/simd.h"
#include "train/optimizer.h"

namespace gradgcl {
namespace {

using internal::Node;

bool BitEqual(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), sizeof(double) * a.size()) == 0;
}

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Restores the thread count, SIMD switch and pooling switch.
class ForkTest : public ::testing::Test {
 protected:
  void SetUp() override {
    threads_ = NumThreads();
    simd_ = simd::Enabled();
    pooling_ = PoolingEnabled();
  }
  void TearDown() override {
    SetNumThreads(threads_);
    simd::SetEnabled(simd_);
    SetPoolingEnabled(pooling_);
  }

 private:
  int threads_ = 1;
  bool simd_ = true;
  bool pooling_ = true;
};

// --- 1. Model steps against the serial two-view composition -------------

// Everything a run leaves behind that the fork could change.
struct Trace {
  std::vector<double> losses;
  std::vector<Matrix> grads;  // every parameter's gradient, every step
  std::vector<Matrix> params;
};

void ExpectTracesEqual(const Trace& got, const Trace& want) {
  ASSERT_EQ(got.losses.size(), want.losses.size());
  for (size_t i = 0; i < want.losses.size(); ++i) {
    EXPECT_TRUE(BitEqual(got.losses[i], want.losses[i]))
        << "step " << i << ": " << got.losses[i] << " vs " << want.losses[i];
  }
  ASSERT_EQ(got.grads.size(), want.grads.size());
  for (size_t i = 0; i < want.grads.size(); ++i) {
    EXPECT_TRUE(BitEqual(got.grads[i], want.grads[i])) << "gradient " << i;
  }
  ASSERT_EQ(got.params.size(), want.params.size());
  for (size_t i = 0; i < want.params.size(); ++i) {
    EXPECT_TRUE(BitEqual(got.params[i], want.params[i])) << "parameter " << i;
  }
}

const std::vector<Graph>& Dataset() {
  static const std::vector<Graph> data = [] {
    TuProfile profile = TuProfileByName("MUTAG");
    profile.num_graphs = 24;
    return GenerateTuDataset(profile, 3);
  }();
  return data;
}

EncoderConfig SmallEncoder() {
  EncoderConfig config;
  config.in_dim = Dataset()[0].feature_dim();
  config.hidden_dim = 8;
  config.out_dim = 8;
  return config;
}

// Trains `params` for a few steps the way TrainGraphSsl does; batch_loss
// maps (indices, batch Rng) to the step's loss.
template <typename BatchLoss>
Trace Train(const std::vector<Variable>& params, BatchLoss&& batch_loss) {
  constexpr int kSteps = 4;
  Adam optimizer(params, 0.02);
  Trace trace;
  for (int step = 0; step < kSteps; ++step) {
    std::vector<int> indices;
    for (int i = 0; i < 8; ++i) indices.push_back((step * 5 + i) % 24);
    Rng rng(BatchStreamSeed(11, 0, step));
    TapeScope tape;
    optimizer.ZeroGrad();
    Variable loss = batch_loss(indices, rng);
    Backward(loss);
    trace.losses.push_back(loss.scalar());
    for (const Variable& p : params) trace.grads.push_back(p.grad());
    optimizer.Step();
  }
  for (const Variable& p : params) trace.params.push_back(p.value());
  return trace;
}

std::vector<Variable> Concat(const Module& a, const Module& b) {
  std::vector<Variable> params = a.parameters();
  params.insert(params.end(), b.parameters().begin(), b.parameters().end());
  return params;
}

// GraphCL's two-view code before the fork: interleaved augmentation,
// then batch, encoder and projection of view 1, then of view 2, all on
// the calling thread. Built from the same Rng as the model, so it holds
// the same weights.
struct SerialGraphCl {
  SerialGraphCl(const GraphClConfig& config, uint64_t seed)
      : config(config),
        rng(seed),
        encoder(config.encoder, rng),
        proj({config.encoder.out_dim, config.proj_dim, config.proj_dim},
             rng),
        loss(config.grad_gcl) {}

  Variable Loss(const std::vector<int>& indices, AugmentKind kind1,
                AugmentKind kind2, Rng& batch_rng) {
    std::vector<Graph> view1;
    std::vector<Graph> view2;
    for (int idx : indices) {
      view1.push_back(
          Augment(Dataset()[idx], kind1, config.aug_strength, batch_rng));
      view2.push_back(
          Augment(Dataset()[idx], kind2, config.aug_strength, batch_rng));
    }
    const GraphBatch batch1 = MakeBatch(view1);
    const GraphBatch batch2 = MakeBatch(view2);
    TwoViewBatch views;
    views.u = proj.Forward(encoder.ForwardGraphs(batch1));
    views.u_prime = proj.Forward(encoder.ForwardGraphs(batch2));
    return loss(views);
  }

  // GraphCl::SampleAugPair with random_augs.
  Variable BatchLoss(const std::vector<int>& indices, Rng& batch_rng) {
    const std::vector<AugmentKind> menu = AllAugmentKinds();
    const int n = static_cast<int>(menu.size());
    const AugmentKind kind1 = menu[batch_rng.UniformInt(n)];
    const AugmentKind kind2 = menu[batch_rng.UniformInt(n)];
    return Loss(indices, kind1, kind2, batch_rng);
  }

  std::vector<Variable> parameters() const { return Concat(encoder, proj); }

  GraphClConfig config;
  Rng rng;
  GraphEncoder encoder;
  Mlp proj;
  GradGclLoss loss;
};

// JOAO's pair distribution written out: inverse-CDF sampling and the
// exponentiated-gradient update from the previous step's loss.
struct SerialJoao {
  SerialJoao(const JoaoConfig& config, uint64_t seed)
      : config(config),
        graphcl(config.graphcl, seed),
        menu(AllAugmentKinds()),
        k(static_cast<int>(menu.size())),
        probs(k, k, 1.0 / (k * k)) {}

  Variable BatchLoss(const std::vector<int>& indices, Rng& batch_rng) {
    if (has_observation) {
      probs(pi, pj) *= std::exp(config.gamma * last_loss);
      const double total = probs.Sum();
      const double uniform = 1.0 / (k * k);
      for (int i = 0; i < k; ++i) {
        for (int j = 0; j < k; ++j) {
          probs(i, j) = (1.0 - config.uniform_mix) * (probs(i, j) / total) +
                        config.uniform_mix * uniform;
        }
      }
    }
    double r = batch_rng.Uniform();
    pi = pj = k - 1;
    for (int cell = 0; cell < k * k; ++cell) {
      r -= probs(cell / k, cell % k);
      if (r <= 0.0) {
        pi = cell / k;
        pj = cell % k;
        break;
      }
    }
    Variable loss = graphcl.Loss(indices, menu[pi], menu[pj], batch_rng);
    last_loss = loss.scalar();
    has_observation = true;
    return loss;
  }

  JoaoConfig config;
  SerialGraphCl graphcl;
  std::vector<AugmentKind> menu;
  int k;
  Matrix probs;
  int pi = 0;
  int pj = 0;
  double last_loss = 0.0;
  bool has_observation = false;
};

// SimGRACE's two-view code before the fork: online view, perturbation
// draws, perturbed (detached) view, shared projection head.
struct SerialSimGrace {
  SerialSimGrace(const SimGraceConfig& config, uint64_t seed)
      : config(config),
        rng(seed),
        encoder(config.encoder, rng),
        perturbed(config.encoder, rng),
        proj({config.encoder.out_dim, config.proj_dim, config.proj_dim},
             rng),
        loss(config.grad_gcl) {}

  Variable BatchLoss(const std::vector<int>& indices, Rng& batch_rng) {
    std::vector<Graph> graphs;
    for (int idx : indices) graphs.push_back(Dataset()[idx]);
    const GraphBatch batch = MakeBatch(graphs);
    Variable h1 = encoder.ForwardGraphs(batch);
    perturbed.LoadState(PerturbState(encoder.StateCopy(),
                                     config.perturb_magnitude, batch_rng));
    Variable h2 = perturbed.ForwardGraphs(batch).Detach();
    return loss(TwoViewBatch{proj.Forward(h1), proj.Forward(h2)});
  }

  std::vector<Variable> parameters() const { return Concat(encoder, proj); }

  SimGraceConfig config;
  Rng rng;
  GraphEncoder encoder;
  GraphEncoder perturbed;
  Mlp proj;
  GradGclLoss loss;
};

// Runs `check` at every thread count x SIMD x pooling combination.
template <typename Check>
void ForEachEnvironment(Check&& check) {
  for (int threads : {1, 2, 4}) {
    for (bool simd_on : {true, false}) {
      for (bool pooled : {true, false}) {
        SCOPED_TRACE("threads " + std::to_string(threads) + ", simd " +
                     std::to_string(simd_on) + ", pooled " +
                     std::to_string(pooled));
        SetNumThreads(threads);
        simd::SetEnabled(simd_on);
        SetPoolingEnabled(pooled);
        check();
      }
    }
  }
}

template <typename Model>
Trace TrainModel(Model& model) {
  return Train(model.parameters(),
               [&](const std::vector<int>& indices, Rng& rng) {
                 return model.BatchLoss(Dataset(), indices, rng);
               });
}

template <typename Serial>
Trace TrainSerial(Serial& serial) {
  return Train(serial.parameters(),
               [&](const std::vector<int>& indices, Rng& rng) {
                 return serial.BatchLoss(indices, rng);
               });
}

TEST_F(ForkTest, GraphClStepMatchesSerialViews) {
  GraphClConfig config;
  config.encoder = SmallEncoder();
  config.proj_dim = 8;
  ForEachEnvironment([&] {
    Rng rng(5);
    GraphCl model(config, rng);
    SerialGraphCl serial(config, 5);
    ExpectTracesEqual(TrainModel(model), TrainSerial(serial));
  });
}

TEST_F(ForkTest, JoaoStepMatchesSerialViews) {
  JoaoConfig config;
  config.graphcl.encoder = SmallEncoder();
  config.graphcl.proj_dim = 8;
  ForEachEnvironment([&] {
    Rng rng(5);
    Joao model(config, rng);
    SerialJoao serial(config, 5);
    const Trace got = TrainModel(model);
    const Trace want = Train(serial.graphcl.parameters(),
                             [&](const std::vector<int>& indices, Rng& r) {
                               return serial.BatchLoss(indices, r);
                             });
    ExpectTracesEqual(got, want);
    EXPECT_TRUE(BitEqual(model.pair_distribution(), serial.probs));
  });
}

TEST_F(ForkTest, SimGraceStepMatchesSerialViews) {
  SimGraceConfig config;
  config.encoder = SmallEncoder();
  config.proj_dim = 8;
  ForEachEnvironment([&] {
    Rng rng(5);
    SimGrace model(config, rng);
    SerialSimGrace serial(config, 5);
    ExpectTracesEqual(TrainModel(model), TrainSerial(serial));
  });
}

// --- 2. Tape semantics ---------------------------------------------------

// Identity op whose backward counts its calls and records whether it ran
// inside a branch walk.
Variable Probe(const Variable& x, std::atomic<int>* calls,
               std::atomic<bool>* capturing = nullptr) {
  return Variable::MakeOp(x.value(), {x}, [=](Node& out) {
    calls->fetch_add(1);
    if (capturing != nullptr) capturing->store(internal::CapturingLeafGrads());
    out.parents[0]->AccumulateGrad(out.grad);
  });
}

Variable Param(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  return Variable(Matrix::RandomNormal(rows, cols, rng), true);
}

TEST_F(ForkTest, UnusedOutputIsNeverWalked) {
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    const Variable x = Param(5, 3, 1);
    Variable w0 = Param(3, 4, 2);
    Variable w1 = Param(3, 4, 3);
    std::atomic<int> walked[2] = {0, 0};
    const std::array<Variable, 2> out = ag::ForkJoin2([&](int k) {
      return Probe(ag::Tanh(ag::MatMul(Variable(x.value()), k ? w1 : w0)),
                   &walked[k]);
    });
    Backward(ag::Sum(out[0]));
    EXPECT_EQ(walked[0].load(), 1);
    EXPECT_EQ(walked[1].load(), 0);
    EXPECT_FALSE(w1.node()->grad_initialized);
    EXPECT_FALSE(out[1].node()->grad_initialized);

    // The walked branch matches the same graph built without the fork.
    Variable w0_ref(w0.value(), true);
    Backward(ag::Sum(ag::Tanh(ag::MatMul(Variable(x.value()), w0_ref))));
    EXPECT_TRUE(BitEqual(w0.grad(), w0_ref.grad()));
  }
}

TEST_F(ForkTest, OutputsWithoutGradientGetNoJoin) {
  SetNumThreads(4);
  const Variable x = Param(4, 4, 4);
  Variable w = Param(4, 4, 5);
  // A constant and a leaf come back as the very nodes the branches
  // returned: there is nothing to walk below them.
  std::array<Variable, 2> returned;
  const std::array<Variable, 2> out = ag::ForkJoin2([&](int k) {
    returned[k] = k == 0 ? ag::Tanh(Variable(x.value())) : w;
    return returned[k];
  });
  EXPECT_EQ(out[0].node(), returned[0].node());
  EXPECT_FALSE(out[0].node()->NeedsGrad());
  EXPECT_EQ(out[1].node(), w.node());
  Backward(ag::Sum(ag::Hadamard(out[0], out[1])));
  EXPECT_TRUE(BitEqual(w.grad(), out[0].value()));

  // Detached branches: no join node at all.
  Variable v = Param(4, 4, 6);
  const std::array<Variable, 2> detached = ag::ForkJoin2(
      [&](int) { return ag::MatMul(Variable(x.value()), v).Detach(); });
  for (const Variable& d : detached) {
    EXPECT_FALSE(d.node()->NeedsGrad());
    EXPECT_TRUE(d.node()->parents.empty());
  }
}

TEST_F(ForkTest, ForkInsideRegionRunsInline) {
  SetNumThreads(4);
  std::thread::id region_thread;
  std::thread::id forward[2];
  std::atomic<int> walked[2] = {0, 0};
  Variable w = Param(3, 3, 7);
  Variable loss;
  bool in_region = false;
  ParallelFor(0, 2, 1, [&](int64_t begin, int64_t end) {
    for (int64_t i = begin; i < end; ++i) {
      if (i != 0) continue;
      region_thread = std::this_thread::get_id();
      in_region = InParallelRegion();
      const std::array<Variable, 2> out = ag::ForkJoin2([&](int k) {
        forward[k] = std::this_thread::get_id();
        return Probe(ag::Tanh(w), &walked[k]);
      });
      loss = ag::Sum(ag::Add(out[0], out[1]));
      Backward(loss);
    }
  });
  EXPECT_TRUE(in_region);
  EXPECT_EQ(forward[0], region_thread);
  EXPECT_EQ(forward[1], region_thread);
  EXPECT_EQ(walked[0].load(), 1);
  EXPECT_EQ(walked[1].load(), 1);

  // InlineRegionScope makes a plain thread count as inside a region.
  EXPECT_FALSE(InParallelRegion());
  {
    InlineRegionScope scope;
    EXPECT_TRUE(InParallelRegion());
    const std::array<Variable, 2> out = ag::ForkJoin2([&](int k) {
      forward[k] = std::this_thread::get_id();
      return ag::Tanh(w);
    });
    EXPECT_EQ(forward[0], std::this_thread::get_id());
    EXPECT_EQ(forward[1], std::this_thread::get_id());
  }
  EXPECT_FALSE(InParallelRegion());
  {
    InlineRegionScope off(/*active=*/false);
    EXPECT_FALSE(InParallelRegion());
  }
}

TEST_F(ForkTest, LeafSinkIsClearedAfterEveryWalk) {
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    Variable w0 = Param(3, 3, 8);
    Variable w1 = Param(3, 3, 9);
    std::atomic<int> walked[2] = {0, 0};
    std::atomic<bool> capturing[2] = {false, false};
    const std::array<Variable, 2> out = ag::ForkJoin2([&](int k) {
      return Probe(ag::Tanh(k ? w1 : w0), &walked[k], &capturing[k]);
    });
    // Branch 1 receives no gradient: it is never walked.
    Backward(ag::Sum(out[0]));
    EXPECT_EQ(walked[0].load(), 1);
    EXPECT_TRUE(capturing[0].load()) << "the walk captures leaf gradients";
    EXPECT_EQ(walked[1].load(), 0);
    EXPECT_FALSE(internal::CapturingLeafGrads());

    // No pool thread still holds a sink: a plain backward on any of
    // them accumulates straight into its leaf.
    std::vector<Variable> leaves;
    for (int i = 0; i < 16; ++i) leaves.push_back(Param(2, 2, 20 + i));
    std::atomic<int> captured{0};
    ParallelFor(0, 16, 1, [&](int64_t begin, int64_t end) {
      for (int64_t i = begin; i < end; ++i) {
        if (internal::CapturingLeafGrads()) captured.fetch_add(1);
        Backward(ag::Sum(leaves[static_cast<size_t>(i)]));
      }
    });
    EXPECT_EQ(captured.load(), 0);
    for (const Variable& leaf : leaves) {
      EXPECT_TRUE(BitEqual(leaf.grad(), Matrix::Ones(2, 2)));
    }

    // A second backward through both outputs walks both branches.
    Backward(ag::Sum(ag::Add(out[0], out[1])));
    EXPECT_EQ(walked[0].load(), 2);
    EXPECT_EQ(walked[1].load(), 1);
    EXPECT_FALSE(internal::CapturingLeafGrads());
  }
}

TEST_F(ForkTest, NestedForkFoldsIntoTheOuterBranch) {
  for (int threads : {1, 4}) {
    SetNumThreads(threads);
    const Variable x = Param(4, 3, 10);
    Variable w = Param(3, 3, 11);
    Variable w_ref(w.value(), true);
    const auto leg = [&](const Variable& weight, int k) {
      return ag::Tanh(ag::ScalarMul(ag::MatMul(Variable(x.value()), weight),
                                    1.0 + k));
    };
    const std::array<Variable, 2> out = ag::ForkJoin2([&](int k) {
      if (k == 1) return leg(w, 2);
      const std::array<Variable, 2> inner =
          ag::ForkJoin2([&](int j) { return leg(w, j); });
      return ag::Add(inner[0], inner[1]);
    });
    Backward(ag::Sum(ag::Add(out[0], out[1])));
    // Serial reference: the same graph without forks.
    Backward(ag::Sum(ag::Add(ag::Add(leg(w_ref, 0), leg(w_ref, 1)),
                             leg(w_ref, 2))));
    EXPECT_TRUE(AllClose(w.grad(), w_ref.grad(), 1e-12));
  }
}

}  // namespace
}  // namespace gradgcl
