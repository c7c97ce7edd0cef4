// Tests for the pooled tape substrate (tensor/pool.h) and the fused
// GradGCL loss kernels: bucket/recycling behaviour, TapeScope
// lifecycle, the steady-state zero-allocation guarantee, and *exact*
// (bitwise, not tolerance) equivalence of the fused losses and the
// pooled allocator against the op-by-op compositions of
// reference_losses.h, across thread counts.

#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "autograd/ops.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/grad_gcl_loss.h"
#include "core/gradient_features.h"
#include "datasets/tu_synthetic.h"
#include "losses/contrastive.h"
#include "models/graphcl.h"
#include "reference_losses.h"
#include "tensor/matrix.h"
#include "tensor/ops.h"
#include "tensor/pool.h"
#include "tensor/simd.h"
#include "train/optimizer.h"

namespace gradgcl {
namespace {

// Bitwise equality — distinguishes -0.0 from +0.0 and matches NaNs,
// which is exactly the "bit-identical" contract the fused kernels and
// the deterministic parallel substrate promise.
::testing::AssertionResult BitIdentical(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return ::testing::AssertionFailure()
           << "shape mismatch: " << a.rows() << "x" << a.cols() << " vs "
           << b.rows() << "x" << b.cols();
  }
  if (std::memcmp(a.data(), b.data(),
                  static_cast<size_t>(a.rows()) * a.cols() *
                      sizeof(double)) != 0) {
    for (int i = 0; i < a.rows(); ++i) {
      for (int j = 0; j < a.cols(); ++j) {
        const double av = a(i, j);
        const double bv = b(i, j);
        if (std::memcmp(&av, &bv, sizeof(double)) != 0) {
          return ::testing::AssertionFailure()
                 << "first differing element (" << i << ", " << j
                 << "): " << a(i, j) << " vs " << b(i, j);
        }
      }
    }
    return ::testing::AssertionFailure() << "buffers differ";
  }
  return ::testing::AssertionSuccess();
}

// Restores the pool switch and the thread count, so each test can
// toggle them freely.
class PoolEnvironmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    pooling_ = PoolingEnabled();
    threads_ = NumThreads();
  }
  void TearDown() override {
    SetPoolingEnabled(pooling_);
    SetNumThreads(threads_);
  }

 private:
  bool pooling_ = true;
  int threads_ = 1;
};

using MatrixPoolTest = PoolEnvironmentTest;
using TapeScopeTest = PoolEnvironmentTest;
using AllocationRegressionTest = PoolEnvironmentTest;
using FusedEquivalenceTest = PoolEnvironmentTest;
using PooledTrainingTest = PoolEnvironmentTest;

TEST_F(MatrixPoolTest, BucketsArePowerOfTwoAndRecycled) {
  MatrixPool& pool = MatrixPool::Instance();
  pool.Trim();
  const PoolStats before = pool.stats();

  size_t cap = 0;
  double* p = pool.Acquire(100, &cap);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(cap, 128u);  // next power of two
  EXPECT_EQ(pool.stats().acquires, before.acquires + 1);
  EXPECT_EQ(pool.stats().pool_hits, before.pool_hits);  // cold miss
  pool.Release(p, cap);
  EXPECT_EQ(pool.CachedBuffers(), 1u);
  EXPECT_EQ(pool.CachedBytes(), 128u * sizeof(double));

  // Any request that rounds to the same bucket reuses the buffer.
  size_t cap2 = 0;
  double* q = pool.Acquire(65, &cap2);
  EXPECT_EQ(q, p);
  EXPECT_EQ(cap2, 128u);
  EXPECT_EQ(pool.stats().pool_hits, before.pool_hits + 1);
  pool.Release(q, cap2);

  // Tiny requests share the minimum bucket.
  size_t small_cap = 0;
  double* s = pool.Acquire(1, &small_cap);
  EXPECT_GE(small_cap, 1u);
  EXPECT_EQ(small_cap & (small_cap - 1), 0u);  // power of two
  pool.Release(s, small_cap);

  pool.Trim();
  EXPECT_EQ(pool.CachedBuffers(), 0u);
  EXPECT_EQ(pool.CachedBytes(), 0u);
}

TEST_F(MatrixPoolTest, HeapAllocIsCounted) {
  MatrixPool& pool = MatrixPool::Instance();
  const PoolStats before = pool.stats();
  double* p = MatrixPool::HeapAlloc(50);
  ASSERT_NE(p, nullptr);
  const PoolStats after = pool.stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs + 1);
  EXPECT_EQ(after.heap_bytes, before.heap_bytes + 50 * sizeof(double));
  EXPECT_EQ(after.acquires, before.acquires);  // unpooled path
  MatrixPool::HeapFree(p);
}

TEST_F(TapeScopeTest, PoolsOnlyInsideActiveScope) {
  SetPoolingEnabled(true);
  MatrixPool& pool = MatrixPool::Instance();
  EXPECT_FALSE(TapeScope::Active());

  PoolStats before = pool.stats();
  { Matrix outside = Matrix::Uninitialized(16, 16); }
  PoolStats after = pool.stats();
  EXPECT_EQ(after.acquires, before.acquires);  // heap, not pooled
  EXPECT_EQ(after.heap_allocs, before.heap_allocs + 1);

  before = pool.stats();
  {
    TapeScope tape;
    EXPECT_TRUE(TapeScope::Active());
    Matrix inside = Matrix::Uninitialized(16, 16);
  }
  EXPECT_FALSE(TapeScope::Active());
  after = pool.stats();
  EXPECT_EQ(after.acquires, before.acquires + 1);

  // With pooling disabled the scope is inert.
  SetPoolingEnabled(false);
  before = pool.stats();
  {
    TapeScope tape;
    Matrix inside = Matrix::Uninitialized(16, 16);
  }
  after = pool.stats();
  EXPECT_EQ(after.acquires, before.acquires);
  EXPECT_EQ(after.heap_allocs, before.heap_allocs + 1);
}

TEST_F(TapeScopeTest, PooledMatrixOutlivesItsScope) {
  SetPoolingEnabled(true);
  MatrixPool& pool = MatrixPool::Instance();
  pool.Trim();

  Matrix escapee;
  {
    TapeScope tape;
    escapee = Matrix::Uninitialized(8, 8);
    for (int i = 0; i < 8; ++i)
      for (int j = 0; j < 8; ++j) escapee(i, j) = i * 8.0 + j;
  }
  // Buffers return via RAII only — closing the scope must not recall
  // the live buffer.
  EXPECT_EQ(pool.CachedBuffers(), 0u);
  for (int i = 0; i < 8; ++i)
    for (int j = 0; j < 8; ++j) EXPECT_EQ(escapee(i, j), i * 8.0 + j);

  escapee = Matrix();  // destruction returns the buffer to the pool
  EXPECT_EQ(pool.CachedBuffers(), 1u);
  pool.Trim();
}

TEST_F(TapeScopeTest, ScopesNest) {
  SetPoolingEnabled(true);
  EXPECT_FALSE(TapeScope::Active());
  {
    TapeScope outer;
    EXPECT_TRUE(TapeScope::Active());
    {
      TapeScope inner;
      EXPECT_TRUE(TapeScope::Active());
    }
    EXPECT_TRUE(TapeScope::Active());  // inner close keeps outer alive
  }
  EXPECT_FALSE(TapeScope::Active());
}

TEST_F(TapeScopeTest, ConcurrentScopesAreThreadSafe) {
  SetPoolingEnabled(true);
  MatrixPool& pool = MatrixPool::Instance();
  const PoolStats before = pool.stats();

  constexpr int kThreads = 4;
  constexpr int kIters = 200;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      TapeScope tape;  // scope activation is thread-local
      EXPECT_TRUE(TapeScope::Active());
      for (int i = 0; i < kIters; ++i) {
        Matrix m = Matrix::Uninitialized(4 + t, 8);
        m.Fill(static_cast<double>(i));
        EXPECT_EQ(m(0, 0), static_cast<double>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_FALSE(TapeScope::Active());  // worker scopes never leak here

  const PoolStats after = pool.stats();
  EXPECT_EQ(after.acquires,
            before.acquires + uint64_t{kThreads} * kIters);
  pool.Trim();
}

// One fixed-shape GradGCL training step: two linear encoders, the
// combined loss, backward, Adam. Parameters and optimizer state live
// outside any TapeScope (pool-exempt); each step opens its own scope
// exactly like train/trainer.cc does.
struct StepWorkload {
  StepWorkload()
      : rng(7),
        w1(Matrix::RandomNormal(16, 24, rng, 0.0, 0.3), true),
        w2(Matrix::RandomNormal(16, 24, rng, 0.0, 0.3), true),
        x1(Matrix::RandomNormal(20, 16, rng)),
        x2(Matrix::RandomNormal(20, 16, rng)),
        loss_fn(GradGclConfig{}),
        opt({w1, w2}, 1e-3) {}

  double Step() {
    TapeScope tape;
    opt.ZeroGrad();
    TwoViewBatch views{ag::Tanh(ag::MatMul(Variable(x1), w1)),
                       ag::Tanh(ag::MatMul(Variable(x2), w2))};
    Variable loss = loss_fn(views);
    Backward(loss);
    opt.Step();
    return loss.scalar();
  }

  Rng rng;
  Variable w1, w2;
  Matrix x1, x2;
  GradGclLoss loss_fn;
  Adam opt;
};

TEST_F(AllocationRegressionTest, SteadyStateStepIsAllocationFree) {
  SetPoolingEnabled(true);
  MatrixPool& pool = MatrixPool::Instance();

  StepWorkload workload;
  // Warm-up populates every bucket the step's working set needs (and
  // lazily creates parameter grad buffers).
  for (int i = 0; i < 3; ++i) workload.Step();

  const PoolStats before = pool.stats();
  constexpr int kSteps = 5;
  for (int i = 0; i < kSteps; ++i) workload.Step();
  const PoolStats after = pool.stats();

  // The zero-allocation guarantee: at steady state every matrix buffer
  // of the step is served from the free lists.
  EXPECT_EQ(after.heap_allocs, before.heap_allocs)
      << "steady-state step hit the heap ("
      << (after.heap_allocs - before.heap_allocs) << " allocations over "
      << kSteps << " steps)";
  EXPECT_GT(after.pool_hits, before.pool_hits);
  EXPECT_EQ(after.pool_hits - before.pool_hits,
            after.acquires - before.acquires);  // every acquire was a hit
  pool.Trim();
}

// The same contract for a real GraphCL(f+g) step at 4 threads, where
// the two views' forward and backward run on pool workers (ag::ForkJoin2)
// and their buffers cross threads before they return to the pool. The
// batch Rng is reseeded every step, so the augmented shapes repeat.
TEST_F(AllocationRegressionTest, GraphClForkStepIsAllocationFree) {
  SetPoolingEnabled(true);
  SetNumThreads(4);
  MatrixPool& pool = MatrixPool::Instance();

  TuProfile profile = TuProfileByName("MUTAG");
  profile.num_graphs = 16;
  const std::vector<Graph> data = GenerateTuDataset(profile, 5);
  GraphClConfig config;
  config.encoder.in_dim = profile.feature_dim;
  config.encoder.hidden_dim = 16;
  config.encoder.out_dim = 16;
  config.proj_dim = 16;
  Rng init(3);
  GraphCl model(config, init);
  Adam optimizer(model.parameters(), 1e-3);
  const std::vector<int> batch = {0, 2, 3, 5, 7, 8, 11, 13};
  const auto step = [&] {
    TapeScope tape;
    optimizer.ZeroGrad();
    Rng batch_rng(42);
    Variable loss = model.BatchLoss(data, batch, batch_rng);
    Backward(loss);
    optimizer.Step();
  };
  for (int i = 0; i < 5; ++i) step();

  const PoolStats before = pool.stats();
  constexpr int kSteps = 5;
  for (int i = 0; i < kSteps; ++i) step();
  const PoolStats after = pool.stats();
  EXPECT_EQ(after.heap_allocs, before.heap_allocs)
      << "steady-state fork step hit the heap ("
      << (after.heap_allocs - before.heap_allocs) << " allocations over "
      << kSteps << " steps)";
  EXPECT_EQ(after.pool_hits - before.pool_hits,
            after.acquires - before.acquires);
  pool.Trim();
}

TEST_F(PooledTrainingTest, PoolingDoesNotChangeTrainingBits) {
  // Identical runs with the pool on and off: loss trajectory and final
  // weights must match bit for bit (recycled buffers are handed out
  // uninitialized, so any read-before-write would show up here).
  SetPoolingEnabled(true);
  StepWorkload pooled;
  std::vector<double> pooled_losses;
  for (int i = 0; i < 6; ++i) pooled_losses.push_back(pooled.Step());

  SetPoolingEnabled(false);
  StepWorkload unpooled;
  std::vector<double> unpooled_losses;
  for (int i = 0; i < 6; ++i) unpooled_losses.push_back(unpooled.Step());

  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(std::memcmp(&pooled_losses[i], &unpooled_losses[i],
                          sizeof(double)),
              0)
        << "loss diverged at step " << i << ": " << pooled_losses[i]
        << " vs " << unpooled_losses[i];
  }
  EXPECT_TRUE(BitIdentical(pooled.w1.value(), unpooled.w1.value()));
  EXPECT_TRUE(BitIdentical(pooled.w2.value(), unpooled.w2.value()));
  MatrixPool::Instance().Trim();
}

// Value + input gradients of a Variable-valued functional (a production
// loss or its reference_losses.h composition). The probe weights make
// the upstream gradient non-constant so backward closures are exercised
// beyond an all-ones seed.
struct EvalResult {
  Matrix value;
  Matrix du;
  Matrix dv;
};

template <typename Fn>
EvalResult EvalWithGrads(const Matrix& mu, const Matrix& mv,
                         const Matrix& probe, Fn&& fn) {
  Variable u(mu, true);
  Variable v(mv, true);
  Variable out = fn(u, v);
  Variable seed = out.rows() == 1 && out.cols() == 1
                      ? out
                      : ag::Sum(ag::Hadamard(out, Variable(probe)));
  Backward(seed);
  return {out.value(), u.grad(), v.grad()};
}

TEST_F(FusedEquivalenceTest, InfoNceGradientFeaturesMatchUnfusedExactly) {
  Rng rng(11);
  const Matrix mu = Matrix::RandomNormal(17, 9, rng);
  const Matrix mv = Matrix::RandomNormal(17, 9, rng);
  const Matrix probe = Matrix::RandomNormal(17, 9, rng);
  const double tau = 0.4;
  auto features = [&](const Variable& u, const Variable& v) {
    return InfoNceGradientFeatures(u, v, tau);
  };
  auto op_by_op = [&](const Variable& u, const Variable& v) {
    return reference::InfoNceGradientFeatures(u, v, tau);
  };

  const EvalResult ref = EvalWithGrads(mu, mv, probe, op_by_op);
  for (int threads : {1, 2, 4}) {
    SetNumThreads(threads);
    const EvalResult fused = EvalWithGrads(mu, mv, probe, features);
    EXPECT_TRUE(BitIdentical(fused.value, ref.value)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.du, ref.du)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.dv, ref.dv)) << threads << " threads";
    const EvalResult unfused = EvalWithGrads(mu, mv, probe, op_by_op);
    EXPECT_TRUE(BitIdentical(unfused.value, ref.value))
        << threads << " threads";
    EXPECT_TRUE(BitIdentical(unfused.du, ref.du)) << threads << " threads";
  }
}

TEST_F(FusedEquivalenceTest, JsdGradientFeaturesMatchUnfusedExactly) {
  Rng rng(13);
  const Matrix mu = Matrix::RandomNormal(15, 7, rng);
  const Matrix mv = Matrix::RandomNormal(15, 7, rng);
  const Matrix probe = Matrix::RandomNormal(15, 7, rng);
  auto features = [&](const Variable& u, const Variable& v) {
    return JsdGradientFeatures(u, v);
  };
  auto op_by_op = [&](const Variable& u, const Variable& v) {
    return reference::JsdGradientFeatures(u, v);
  };

  const EvalResult ref = EvalWithGrads(mu, mv, probe, op_by_op);
  for (int threads : {1, 2, 4}) {
    SetNumThreads(threads);
    const EvalResult fused = EvalWithGrads(mu, mv, probe, features);
    EXPECT_TRUE(BitIdentical(fused.value, ref.value)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.du, ref.du)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.dv, ref.dv)) << threads << " threads";
  }
}

TEST_F(FusedEquivalenceTest, InfoNceLossMatchesUnfusedExactly) {
  Rng rng(17);
  const Matrix mu = Matrix::RandomNormal(19, 8, rng);
  const Matrix mv = Matrix::RandomNormal(19, 8, rng);
  const Matrix probe;  // loss is scalar; probe unused
  auto loss = [&](const Variable& u, const Variable& v) {
    return InfoNce(u, v, 0.5);
  };
  auto op_by_op = [&](const Variable& u, const Variable& v) {
    return reference::InfoNce(u, v, 0.5);
  };

  const EvalResult ref = EvalWithGrads(mu, mv, probe, op_by_op);
  for (int threads : {1, 2, 4}) {
    SetNumThreads(threads);
    const EvalResult fused = EvalWithGrads(mu, mv, probe, loss);
    EXPECT_TRUE(BitIdentical(fused.value, ref.value)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.du, ref.du)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.dv, ref.dv)) << threads << " threads";
  }
}

TEST_F(FusedEquivalenceTest, GradGclLossMatchesUnfusedExactly) {
  Rng rng(19);
  const Matrix mu = Matrix::RandomNormal(14, 10, rng);
  const Matrix mv = Matrix::RandomNormal(14, 10, rng);
  const Matrix probe;  // scalar loss
  const GradGclConfig config;  // weight 0.5: both components live
  GradGclLoss loss_fn(config);
  auto loss = [&](const Variable& u, const Variable& v) {
    return loss_fn(TwoViewBatch{u, v});
  };
  auto op_by_op = [&](const Variable& u, const Variable& v) {
    return reference::GradGclLoss(config, TwoViewBatch{u, v});
  };

  const EvalResult ref = EvalWithGrads(mu, mv, probe, op_by_op);
  for (int threads : {1, 2, 4}) {
    SetNumThreads(threads);
    const EvalResult fused = EvalWithGrads(mu, mv, probe, loss);
    EXPECT_TRUE(BitIdentical(fused.value, ref.value)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.du, ref.du)) << threads << " threads";
    EXPECT_TRUE(BitIdentical(fused.dv, ref.dv)) << threads << " threads";
  }
}

TEST_F(FusedEquivalenceTest, EuclideanFeaturesBitIdenticalAcrossThreads) {
  Rng rng(23);
  const Matrix mu = Matrix::RandomNormal(33, 6, rng);
  const Matrix mv = Matrix::RandomNormal(33, 6, rng);

  SetNumThreads(1);
  const Matrix ref = EuclideanGradientFeatures(mu, mv);
  for (int threads : {2, 4}) {
    SetNumThreads(threads);
    EXPECT_TRUE(BitIdentical(EuclideanGradientFeatures(mu, mv), ref))
        << threads << " threads";
  }
}

// --- Fused losses with the kernels on the pool ------------------------------
// The cases above use n <= 19, where no kernel reaches the pool. These
// run the fused losses at n = 400 with the cost threshold at 0, so every
// cost-hinted kernel, forward and the n x n backward passes alike,
// splits into several chunks (400 rows exceed the 2^15 / 400 row grain
// and 400^2 elements exceed kElementwiseGrain), and compare them to the
// reference composition run on one thread with heap buffers.

class FusedFanOutTest : public PoolEnvironmentTest {
 protected:
  void SetUp() override {
    PoolEnvironmentTest::SetUp();
    simd_ = simd::Enabled();
    min_cost_ = internal::MinParallelCost();
  }
  void TearDown() override {
    internal::SetMinParallelCost(min_cost_);
    simd::SetEnabled(simd_);
    PoolEnvironmentTest::TearDown();
  }

 private:
  bool simd_ = true;
  int64_t min_cost_ = 0;
};

template <typename Fn>
EvalResult EvalInTape(bool pooled, const Matrix& mu, const Matrix& mv,
                      Fn&& fn) {
  SetPoolingEnabled(pooled);
  TapeScope tape;
  return EvalWithGrads(mu, mv, Matrix(), fn);
}

// Value, du and dv of the fused loss at 1, 2 and 4 threads, pooled and
// unpooled, memcmp-equal to its one-thread reference composition, under
// each SIMD table.
template <typename Fn, typename RefFn>
void ExpectFanOutMatchesUnfused(int n, int d, uint64_t seed, Fn&& loss,
                                RefFn&& op_by_op) {
  Rng rng(seed);
  const Matrix mu = Matrix::RandomNormal(n, d, rng);
  const Matrix mv = Matrix::RandomNormal(n, d, rng);
  for (bool simd_on : {false, true}) {
    simd::SetEnabled(simd_on);
    SetNumThreads(1);
    const EvalResult ref = EvalInTape(false, mu, mv, op_by_op);
    for (int threads : {1, 2, 4}) {
      SetNumThreads(threads);
      for (bool pooled : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << (simd_on ? "simd" : "scalar") << ", " << threads
                     << " threads, " << (pooled ? "pooled" : "unpooled"));
        const EvalResult got = EvalInTape(pooled, mu, mv, loss);
        EXPECT_TRUE(BitIdentical(got.value, ref.value));
        EXPECT_TRUE(BitIdentical(got.du, ref.du));
        EXPECT_TRUE(BitIdentical(got.dv, ref.dv));
      }
    }
  }
}

// Production GradGclLoss and its reference composition for `config`.
void ExpectGradGclFanOutMatchesUnfused(const GradGclConfig& config,
                                       uint64_t seed) {
  GradGclLoss loss_fn(config);
  ExpectFanOutMatchesUnfused(
      400, 12, seed,
      [&](const Variable& u, const Variable& v) {
        return loss_fn(TwoViewBatch{u, v});
      },
      [&](const Variable& u, const Variable& v) {
        return reference::GradGclLoss(config, TwoViewBatch{u, v});
      });
}

TEST_F(FusedFanOutTest, GradGclLossInfoNceMatchesUnfusedExactly) {
  internal::SetMinParallelCost(0);
  ExpectGradGclFanOutMatchesUnfused(GradGclConfig{}, 29);  // InfoNCE, a = 0.5
}

TEST_F(FusedFanOutTest, GradGclLossJsdMatchesUnfusedExactly) {
  internal::SetMinParallelCost(0);
  GradGclConfig config;
  config.loss = LossKind::kJsd;
  ExpectGradGclFanOutMatchesUnfused(config, 31);
}

TEST_F(FusedFanOutTest, InfoNceMatchesUnfusedExactly) {
  internal::SetMinParallelCost(0);
  ExpectFanOutMatchesUnfused(
      400, 12, 37,
      [](const Variable& u, const Variable& v) { return InfoNce(u, v, 0.5); },
      [](const Variable& u, const Variable& v) {
        return reference::InfoNce(u, v, 0.5);
      });
}

TEST_F(FusedFanOutTest, DefaultThresholdFansOutNodeScalePasses) {
  // The multi-core default threshold: a 1000 x 1000 memory-bound pass
  // fans out, a 64-graph batch's n x d tensors (<= ~80K elements) do
  // not.
  internal::SetMinParallelCost(int64_t{1} << 23);
  SetNumThreads(4);
  const int64_t node_pass = 1000 * 1000;
  const int64_t batch_pass = 80000;
  EXPECT_TRUE(internal::ShouldParallelize(node_pass, kElementwiseGrain,
                                          node_pass * kMemoryBoundCost));
  EXPECT_FALSE(internal::ShouldParallelize(batch_pass, kElementwiseGrain,
                                           batch_pass * kMemoryBoundCost));

  // The train_node shape end to end: GradGCL a = 0.5 at n = 1000, d = 32
  // on 4 threads against the reference composition on one.
  Rng rng(41);
  const Matrix mu = Matrix::RandomNormal(1000, 32, rng);
  const Matrix mv = Matrix::RandomNormal(1000, 32, rng);
  const GradGclConfig config;
  GradGclLoss loss_fn(config);
  auto loss = [&](const Variable& u, const Variable& v) {
    return loss_fn(TwoViewBatch{u, v});
  };
  auto op_by_op = [&](const Variable& u, const Variable& v) {
    return reference::GradGclLoss(config, TwoViewBatch{u, v});
  };
  SetNumThreads(1);
  const EvalResult ref = EvalInTape(false, mu, mv, op_by_op);
  SetNumThreads(4);
  const EvalResult got = EvalInTape(true, mu, mv, loss);
  EXPECT_TRUE(BitIdentical(got.value, ref.value));
  EXPECT_TRUE(BitIdentical(got.du, ref.du));
  EXPECT_TRUE(BitIdentical(got.dv, ref.dv));
}

}  // namespace
}  // namespace gradgcl
