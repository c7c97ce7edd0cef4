// Test battery for quantized embedding retrieval (src/retrieval/):
//
//   1. Quantization error bounds — int8 round-trip within scale/2 per
//      dimension, bf16 within 2^-8 relative, degenerate dimensions
//      well-defined.
//   2. Store persistence — Build/Save/Map/Load round-trips bitwise;
//      the streaming StoreWriter produces the same file as bulk Save;
//      a crafted-corruption battery (byte-patched headers, truncation)
//      rejects with a clean false and ZERO heap allocations on the
//      structural paths where a lying header could size one (the
//      data_test idiom).
//   3. Determinism — IVF k-means (centroids, assignments) and batched
//      search are bit-identical at 1/2/4/8 threads; nprobe == nlist
//      reproduces the flat int8 scan exactly; top-k tie-breaking is
//      ascending-index everywhere.
//   4. RetrievalEngine — batched serving returns exactly what direct
//      index search returns regardless of workers/sharding/timing;
//      admission control, manual pump, work stealing under concurrent
//      submitters, shutdown-cancel, metrics.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/rng.h"
#include "eval/similarity.h"
#include "obs/metrics.h"
#include "retrieval/engine.h"
#include "retrieval/flat_index.h"
#include "retrieval/ivf_index.h"
#include "retrieval/quantize.h"
#include "retrieval/store.h"
#include "tensor/ops.h"

// Heap-allocation counter: the corruption tests assert that a rejecting
// store never allocates memory sized from untrusted header fields.
#include "alloc_counter.h"

namespace gradgcl::retrieval {
namespace {

namespace fs = std::filesystem;

class ThreadGuard {
 public:
  ThreadGuard() : saved_(NumThreads()) {}
  ~ThreadGuard() { SetNumThreads(saved_); }

 private:
  int saved_;
};

std::string TestPath(const char* name) {
  const std::string path = std::string(::testing::TempDir()) + "/" + name;
  fs::remove(path);
  return path;
}

std::vector<unsigned char> SlurpBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<unsigned char>(std::istreambuf_iterator<char>(in),
                                    std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path,
                    const std::vector<unsigned char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

template <typename T>
void Patch(std::vector<unsigned char>* bytes, size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes->size());
  std::memcpy(bytes->data() + offset, &value, sizeof(T));
}

// Clustered corpus: `clusters` unit-ish centers with Gaussian spread —
// the shape IVF is built for, and what the bench uses at scale.
Matrix ClusteredCorpus(int n, int d, int clusters, uint64_t seed,
                       double spread = 0.15) {
  Rng rng(seed);
  Matrix centers = Matrix::RandomNormal(clusters, d, rng);
  Matrix corpus(n, d);
  for (int i = 0; i < n; ++i) {
    const int c = i % clusters;
    for (int j = 0; j < d; ++j) {
      corpus(i, j) = centers(c, j) + spread * rng.Normal();
    }
  }
  return corpus;
}

void ExpectSameNeighbors(const std::vector<Neighbor>& a,
                         const std::vector<Neighbor>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].index, b[i].index) << what << " rank " << i;
    EXPECT_EQ(a[i].score, b[i].score) << what << " rank " << i;
  }
}

// --- Quantization error bounds ----------------------------------------------

TEST(QuantizeTest, Int8RoundTripWithinHalfScalePerDimension) {
  Rng rng(11);
  const Matrix corpus = Matrix::RandomNormal(200, 24, rng, 0.0, 3.0);
  const QuantizationParams params = ComputeParams(corpus);
  std::vector<int8_t> codes(24);
  std::vector<double> decoded(24);
  for (int i = 0; i < corpus.rows(); ++i) {
    QuantizeRowInt8(params, corpus.data() + i * 24, codes.data());
    DequantizeRowInt8(params, codes.data(), decoded.data());
    for (int j = 0; j < 24; ++j) {
      EXPECT_GE(codes[j], -127);  // -128 is never produced
      // Documented bound: |x - x_hat| <= scale/2 (plus fp slack).
      EXPECT_LE(std::abs(corpus(i, j) - decoded[j]),
                params.scale[j] * 0.5 * (1.0 + 1e-12))
          << "row " << i << " dim " << j;
    }
  }
}

TEST(QuantizeTest, ParamsIndependentOfRowOrder) {
  Rng rng(12);
  const Matrix corpus = Matrix::RandomNormal(64, 8, rng);
  std::vector<int> reversed(64);
  for (int i = 0; i < 64; ++i) reversed[i] = 63 - i;
  const QuantizationParams a = ComputeParams(corpus);
  const QuantizationParams b = ComputeParams(corpus.Gather(reversed));
  for (int j = 0; j < 8; ++j) {
    EXPECT_EQ(a.scale[j], b.scale[j]);
    EXPECT_EQ(a.offset[j], b.offset[j]);
  }
}

TEST(QuantizeTest, ConstantDimensionIsWellDefined) {
  Matrix corpus(3, 2);
  for (int i = 0; i < 3; ++i) {
    corpus(i, 0) = 5.0;  // degenerate: zero range
    corpus(i, 1) = i;
  }
  const QuantizationParams params = ComputeParams(corpus);
  EXPECT_GT(params.scale[0], 0.0);
  std::vector<int8_t> codes(2);
  std::vector<double> decoded(2);
  QuantizeRowInt8(params, corpus.data(), codes.data());
  DequantizeRowInt8(params, codes.data(), decoded.data());
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(decoded[0], 5.0);
}

TEST(QuantizeTest, Bf16RelativeErrorWithin2ToMinus8) {
  Rng rng(13);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.Normal(0.0, 100.0);
    const double decoded = DecodeBf16(EncodeBf16(x));
    EXPECT_LE(std::abs(decoded - x), std::abs(x) * (1.0 / 256.0) + 1e-300)
        << x;
  }
  // Powers of two and zero are exact; specials stay special.
  EXPECT_EQ(DecodeBf16(EncodeBf16(0.0)), 0.0);
  EXPECT_EQ(DecodeBf16(EncodeBf16(2.0)), 2.0);
  EXPECT_EQ(DecodeBf16(EncodeBf16(-0.25)), -0.25);
  EXPECT_TRUE(std::isnan(DecodeBf16(EncodeBf16(
      std::numeric_limits<double>::quiet_NaN()))));
  EXPECT_TRUE(std::isinf(DecodeBf16(EncodeBf16(
      std::numeric_limits<double>::infinity()))));
}

// --- Store persistence -------------------------------------------------------

TEST(StoreTest, BuildSaveMapRoundTripsBitwise) {
  Rng rng(21);
  const Matrix corpus = RowNormalize(Matrix::RandomNormal(100, 19, rng));
  for (const Tier tier : {Tier::kInt8, Tier::kBf16}) {
    const QuantizedStore built = QuantizedStore::Build(corpus, tier);
    ASSERT_TRUE(built.is_open());
    EXPECT_EQ(built.num_vectors(), 100);
    EXPECT_EQ(built.dim(), 19);
    EXPECT_EQ(built.row_stride() % 64, 0);
    const std::string path = TestPath(tier == Tier::kInt8 ? "store_i8.ggqs"
                                                          : "store_bf16.ggqs");
    ASSERT_TRUE(built.Save(path));

    QuantizedStore mapped;
    ASSERT_TRUE(mapped.Map(path));
    EXPECT_TRUE(mapped.mapped());
    QuantizedStore loaded;
    ASSERT_TRUE(loaded.Load(path));
    EXPECT_FALSE(loaded.mapped());
    for (const QuantizedStore* other : {&mapped, &loaded}) {
      ASSERT_EQ(other->num_vectors(), built.num_vectors());
      ASSERT_EQ(other->dim(), built.dim());
      ASSERT_EQ(other->tier(), built.tier());
      for (int j = 0; j < built.dim(); ++j) {
        EXPECT_EQ(other->params().scale[j], built.params().scale[j]);
        EXPECT_EQ(other->params().offset[j], built.params().offset[j]);
      }
      for (int64_t i = 0; i < built.num_vectors(); ++i) {
        EXPECT_EQ(other->inv_norm(i), built.inv_norm(i)) << i;
        if (tier == Tier::kInt8) {
          EXPECT_EQ(std::memcmp(other->RowInt8(i), built.RowInt8(i),
                                static_cast<size_t>(built.dim())),
                    0)
              << i;
        } else {
          EXPECT_EQ(std::memcmp(other->RowBf16(i), built.RowBf16(i),
                                2 * static_cast<size_t>(built.dim())),
                    0)
              << i;
        }
      }
    }
  }
}

TEST(StoreTest, StreamingWriterMatchesBulkSaveByteForByte) {
  Rng rng(22);
  const Matrix corpus = RowNormalize(Matrix::RandomNormal(37, 12, rng));
  const QuantizationParams params = ComputeParams(corpus);
  const std::string bulk_path = TestPath("store_bulk.ggqs");
  const std::string stream_path = TestPath("store_stream.ggqs");
  ASSERT_TRUE(QuantizedStore::BuildWithParams(corpus, params, Tier::kInt8)
                  .Save(bulk_path));
  StoreWriter writer(stream_path, params, Tier::kInt8);
  for (int i = 0; i < corpus.rows(); ++i) {
    ASSERT_TRUE(writer.Append(corpus.data() + i * corpus.cols()));
  }
  ASSERT_TRUE(writer.Finalize());
  EXPECT_EQ(writer.rows_written(), 37);
  EXPECT_EQ(SlurpBytes(stream_path), SlurpBytes(bulk_path));
}

TEST(StoreTest, CorruptStoreRejectionBatteryWithZeroAllocations) {
  Rng rng(23);
  const Matrix corpus = RowNormalize(Matrix::RandomNormal(20, 9, rng));
  const std::string good_path = TestPath("store_good.ggqs");
  ASSERT_TRUE(QuantizedStore::Build(corpus, Tier::kInt8).Save(good_path));
  const std::vector<unsigned char> good = SlurpBytes(good_path);

  // StoreHeader field offsets (see retrieval/store.h).
  constexpr size_t kMagic = 0, kVersion = 4, kTier = 8, kDim = 12;
  constexpr size_t kNumVectors = 16, kRowStride = 24;
  constexpr size_t kVectorsOffset = 32, kNormsOffset = 40;

  struct Case {
    const char* name;
    std::vector<unsigned char> bytes;
  };
  std::vector<Case> cases;
  auto patched = [&](const char* name, auto mutate) {
    Case c{name, good};
    mutate(&c.bytes);
    cases.push_back(std::move(c));
  };
  patched("bad magic", [&](std::vector<unsigned char>* b) {
    (*b)[kMagic] = 'X';
  });
  patched("bad version", [&](std::vector<unsigned char>* b) {
    Patch<uint32_t>(b, kVersion, 999);
  });
  patched("bad tier", [&](std::vector<unsigned char>* b) {
    Patch<int32_t>(b, kTier, 7);
  });
  patched("zero dim", [&](std::vector<unsigned char>* b) {
    Patch<int32_t>(b, kDim, 0);
  });
  patched("dim over cap", [&](std::vector<unsigned char>* b) {
    Patch<int32_t>(b, kDim, 1 << 20);
  });
  patched("negative num_vectors", [&](std::vector<unsigned char>* b) {
    Patch<int64_t>(b, kNumVectors, -1);
  });
  patched("lying num_vectors (would size a huge allocation)",
          [&](std::vector<unsigned char>* b) {
            Patch<int64_t>(b, kNumVectors, int64_t{1} << 39);
          });
  patched("num_vectors over cap", [&](std::vector<unsigned char>* b) {
    Patch<int64_t>(b, kNumVectors, (int64_t{1} << 40) + 1);
  });
  patched("wrong row_stride", [&](std::vector<unsigned char>* b) {
    Patch<int64_t>(b, kRowStride, 128);
  });
  patched("wrong vectors_offset", [&](std::vector<unsigned char>* b) {
    Patch<uint64_t>(b, kVectorsOffset, 32);
  });
  patched("wrong norms_offset", [&](std::vector<unsigned char>* b) {
    Patch<uint64_t>(b, kNormsOffset, 64);
  });
  patched("truncated mid-vectors", [&](std::vector<unsigned char>* b) {
    b->resize(b->size() / 2);
  });
  patched("truncated mid-header", [&](std::vector<unsigned char>* b) {
    b->resize(17);
  });
  patched("trailing garbage", [&](std::vector<unsigned char>* b) {
    b->push_back(0);
  });

  const std::string bad_path = TestPath("store_bad.ggqs");
  for (const Case& c : cases) {
    WriteFileBytes(bad_path, c.bytes);
    for (const bool use_map : {true, false}) {
      QuantizedStore store;
      const uint64_t before = HeapNewCalls();
      const bool ok = use_map ? store.Map(bad_path) : store.Load(bad_path);
      const uint64_t allocations = HeapNewCalls() - before;
      EXPECT_FALSE(ok) << c.name << (use_map ? " (Map)" : " (Load)");
      EXPECT_FALSE(store.is_open()) << c.name;
      EXPECT_EQ(allocations, 0u)
          << c.name << (use_map ? " (Map)" : " (Load)")
          << ": structural rejection must not allocate";
    }
  }

  // Value corruption past the structural checks (non-finite scale) may
  // allocate the params vectors but must still reject cleanly.
  Case nan_scale{"nan scale", good};
  Patch<double>(&nan_scale.bytes, 64, std::nan(""));
  WriteFileBytes(bad_path, nan_scale.bytes);
  QuantizedStore store;
  EXPECT_FALSE(store.Map(bad_path));
  EXPECT_FALSE(store.is_open());

  // The unpatched file still loads (the battery's control).
  QuantizedStore control;
  EXPECT_TRUE(control.Map(good_path));
}

// --- Determinism -------------------------------------------------------------

TEST(IvfIndexTest, KMeansBitIdenticalAcross1248Threads) {
  ThreadGuard guard;
  const Matrix corpus = ClusteredCorpus(600, 16, 12, 31);
  IvfConfig config;
  config.nlist = 12;
  config.kmeans_iters = 8;

  SetNumThreads(1);
  const IvfIndex reference = IvfIndex::Build(corpus, config);
  for (const int threads : {2, 4, 8}) {
    SetNumThreads(threads);
    const IvfIndex other = IvfIndex::Build(corpus, config);
    ASSERT_EQ(other.nlist(), reference.nlist()) << threads;
    for (int c = 0; c < reference.nlist(); ++c) {
      for (int j = 0; j < reference.dim(); ++j) {
        EXPECT_EQ(other.centroids()(c, j), reference.centroids()(c, j))
            << "threads=" << threads << " centroid " << c << " dim " << j;
      }
    }
    EXPECT_EQ(other.list_offsets(), reference.list_offsets()) << threads;
    EXPECT_EQ(other.ids(), reference.ids()) << threads;
  }
}

TEST(IvfIndexTest, SearchBatchBitIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  const Matrix corpus = ClusteredCorpus(500, 12, 10, 32);
  Rng rng(33);
  const Matrix queries = Matrix::RandomNormal(40, 12, rng);
  IvfConfig config;
  config.nlist = 10;
  config.nprobe = 3;
  SetNumThreads(1);
  const IvfIndex index = IvfIndex::Build(corpus, config);
  const auto reference = index.SearchBatch(queries, 10);
  for (const int threads : {2, 4, 8}) {
    SetNumThreads(threads);
    const auto other = index.SearchBatch(queries, 10);
    ASSERT_EQ(other.size(), reference.size());
    for (size_t q = 0; q < reference.size(); ++q) {
      ExpectSameNeighbors(other[q], reference[q], "ivf batch");
    }
  }
}

TEST(IvfIndexTest, FullProbeReproducesFlatInt8ScanExactly) {
  const Matrix corpus = ClusteredCorpus(300, 8, 6, 34);
  const Matrix normalized = RowNormalize(corpus);
  IvfConfig config;
  config.nlist = 6;
  config.nprobe = 6;  // probe everything
  const IvfIndex ivf = IvfIndex::Build(corpus, config);
  const FlatIndex flat =
      FlatIndex::FromStore(QuantizedStore::Build(normalized, Tier::kInt8));
  Rng rng(35);
  const Matrix queries = Matrix::RandomNormal(25, 8, rng);
  for (int q = 0; q < queries.rows(); ++q) {
    const auto a = ivf.Search(queries.data() + q * 8, 12);
    const auto b = flat.Search(queries.data() + q * 8, 12);
    ExpectSameNeighbors(a, b, "full-probe vs flat");
  }
}

TEST(IvfIndexTest, BuildFromMappedStoreFullProbeMatchesSourceScanExactly) {
  ThreadGuard guard;
  // An on-disk store is the ground truth: BuildFromStore must regroup
  // its rows without re-quantizing, so a full probe scores exactly
  // what a flat scan of the source store scores.
  const Matrix corpus = ClusteredCorpus(400, 12, 8, 38);
  const std::string path = TestPath("ivf_from_store.ggqs");
  ASSERT_TRUE(QuantizedStore::Build(RowNormalize(corpus), Tier::kInt8)
                  .Save(path));
  QuantizedStore mapped;
  ASSERT_TRUE(mapped.Map(path));

  IvfConfig config;
  config.nlist = 8;
  config.nprobe = 8;  // probe everything
  SetNumThreads(1);
  const IvfIndex ivf = IvfIndex::BuildFromStore(mapped, config);
  EXPECT_EQ(ivf.num_vectors(), mapped.num_vectors());
  EXPECT_EQ(ivf.tier(), Tier::kInt8);
  // Quantization params are preserved verbatim — nothing re-encoded.
  EXPECT_EQ(ivf.store().params().scale, mapped.params().scale);
  EXPECT_EQ(ivf.store().params().offset, mapped.params().offset);

  QuantizedStore source;
  ASSERT_TRUE(source.Map(path));
  const FlatIndex flat = FlatIndex::FromStore(std::move(source));
  Rng rng(39);
  const Matrix queries = Matrix::RandomNormal(25, 12, rng);
  for (int q = 0; q < queries.rows(); ++q) {
    const auto a = ivf.Search(queries.data() + q * 12, 15);
    const auto b = flat.Search(queries.data() + q * 12, 15);
    ExpectSameNeighbors(a, b, "from-store full probe vs source scan");
  }

  // The one-row-at-a-time k-means is bit-identical at every thread
  // count, like the in-RAM Build.
  for (const int threads : {2, 4, 8}) {
    SetNumThreads(threads);
    const IvfIndex other = IvfIndex::BuildFromStore(mapped, config);
    ASSERT_EQ(other.nlist(), ivf.nlist()) << threads;
    for (int c = 0; c < ivf.nlist(); ++c) {
      for (int j = 0; j < ivf.dim(); ++j) {
        EXPECT_EQ(other.centroids()(c, j), ivf.centroids()(c, j))
            << "threads=" << threads << " centroid " << c << " dim " << j;
      }
    }
    EXPECT_EQ(other.list_offsets(), ivf.list_offsets()) << threads;
    EXPECT_EQ(other.ids(), ivf.ids()) << threads;
  }
}

TEST(IvfIndexTest, WiderProbeNeverLowersRecallAndQuantizationIsTight) {
  const Matrix corpus = ClusteredCorpus(400, 16, 8, 36);
  IvfConfig config;
  config.nlist = 8;
  const IvfIndex ivf = IvfIndex::Build(corpus, config);
  // Same-scorer truth: a flat scan over the same int8 store. Against a
  // FIXED total-order scorer, widening the candidate set can only add
  // better-or-equal candidates, so recall is rigorously monotone in
  // nprobe and reaches 1.0 at nprobe == nlist. (Recall vs a different
  // scorer — e.g. exact f64 — need not be monotone.)
  const FlatIndex flat_int8 = FlatIndex::FromStore(
      QuantizedStore::Build(RowNormalize(corpus), Tier::kInt8));
  const FlatIndex exact = FlatIndex::BuildExact(corpus);
  Rng rng(37);
  const Matrix queries = Matrix::RandomNormal(30, 16, rng);
  constexpr int kK = 10;
  auto recall_against = [&](const int nprobe, const FlatIndex& truth_index) {
    int hits = 0;
    for (int q = 0; q < queries.rows(); ++q) {
      const auto truth = truth_index.Search(queries.data() + q * 16, kK);
      const auto got = ivf.Search(queries.data() + q * 16, kK, nprobe);
      for (const Neighbor& t : truth) {
        for (const Neighbor& g : got) {
          if (g.index == t.index) {
            ++hits;
            break;
          }
        }
      }
    }
    return static_cast<double>(hits) / (queries.rows() * kK);
  };
  double prev_recall = -1.0;
  for (const int nprobe : {1, 2, 4, 8}) {
    const double recall = recall_against(nprobe, flat_int8);
    EXPECT_GE(recall, prev_recall) << "nprobe " << nprobe;
    prev_recall = recall;
  }
  EXPECT_EQ(prev_recall, 1.0);  // full probe == flat int8 scan
  // Asymmetric scoring keeps quantization ranking error query-side
  // only: full probe vs the exact f64 ranking stays near-perfect.
  EXPECT_GE(recall_against(8, exact), 0.9);
}

TEST(FlatIndexTest, ExactSearchBreaksTiesByAscendingIndex) {
  // Duplicate rows force exact score ties at every rank.
  Matrix corpus(6, 4);
  for (int i = 0; i < 6; ++i) {
    for (int j = 0; j < 4; ++j) corpus(i, j) = (i % 2 == 0) ? 1.0 : -1.0;
  }
  const FlatIndex index = FlatIndex::BuildExact(corpus);
  const double query[4] = {1.0, 1.0, 1.0, 1.0};
  const auto top = index.Search(query, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].index, 0);
  EXPECT_EQ(top[1].index, 2);
  EXPECT_EQ(top[2].index, 4);
}

// --- RetrievalEngine ---------------------------------------------------------

TEST(RetrievalEngineTest, BatchedServingMatchesDirectSearch) {
  const Matrix corpus = ClusteredCorpus(400, 12, 8, 41);
  IvfConfig config;
  config.nlist = 8;
  config.nprobe = 4;
  const IvfIndex index = IvfIndex::Build(corpus, config);

  Rng rng(42);
  constexpr int kClients = 4, kPerClient = 8, kK = 5;
  std::vector<Matrix> client_queries;
  std::vector<std::vector<std::vector<Neighbor>>> expected;
  for (int c = 0; c < kClients; ++c) {
    client_queries.push_back(Matrix::RandomNormal(kPerClient, 12, rng));
    expected.push_back(index.SearchBatch(client_queries.back(), kK));
  }

  RetrievalOptions options;
  options.num_workers = 2;
  options.max_batch_queries = 8;
  RetrievalEngine engine(index, options);
  std::vector<RetrievalResult> results(kClients);
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        results[c] = engine.Search(client_queries[c], kK);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  for (int c = 0; c < kClients; ++c) {
    ASSERT_EQ(results[c].status, RetrievalStatus::kOk) << c;
    ASSERT_EQ(results[c].neighbors.size(), expected[c].size()) << c;
    for (size_t q = 0; q < expected[c].size(); ++q) {
      ExpectSameNeighbors(results[c].neighbors[q], expected[c][q], "engine");
    }
  }
}

TEST(RetrievalEngineTest, ZeroWorkerManualPumpAndFlatIndex) {
  const Matrix corpus = ClusteredCorpus(120, 8, 4, 43);
  const FlatIndex index = FlatIndex::BuildExact(corpus);
  Rng rng(44);
  const Matrix queries = Matrix::RandomNormal(3, 8, rng);
  const auto expected = index.SearchBatch(queries, 4);

  RetrievalOptions options;
  options.num_workers = 0;
  RetrievalEngine engine(index, options);
  EXPECT_FALSE(engine.RunOneBatch());  // nothing queued yet
  RetrievalResult result;
  std::thread client([&] { result = engine.Search(queries, 4); });
  while (engine.QueueDepth() == 0) std::this_thread::yield();
  EXPECT_TRUE(engine.RunOneBatch());
  client.join();
  ASSERT_EQ(result.status, RetrievalStatus::kOk);
  for (size_t q = 0; q < expected.size(); ++q) {
    ExpectSameNeighbors(result.neighbors[q], expected[q], "pump");
  }
}

TEST(RetrievalEngineTest, AdmissionControlRejectsWhenEveryShardIsFull) {
  const Matrix corpus = ClusteredCorpus(60, 6, 3, 45);
  const FlatIndex index = FlatIndex::BuildExact(corpus);
  RetrievalOptions options;
  options.num_workers = 0;
  options.num_shards = 1;
  options.max_queue_queries = 2;
  RetrievalEngine engine(index, options);
  Rng rng(46);
  const Matrix queued = Matrix::RandomNormal(2, 6, rng);
  const Matrix rejected = Matrix::RandomNormal(1, 6, rng);
  RetrievalResult queued_result;
  std::thread client([&] { queued_result = engine.Search(queued, 2); });
  while (engine.QueueDepth() < 2) std::this_thread::yield();
  // The single shard's budget (2 queries) is exhausted: reject.
  const RetrievalResult overflow = engine.Search(rejected, 2);
  EXPECT_EQ(overflow.status, RetrievalStatus::kOverloaded);
  EXPECT_TRUE(overflow.neighbors.empty());
  while (engine.QueueDepth() > 0) engine.RunOneBatch();
  client.join();
  EXPECT_EQ(queued_result.status, RetrievalStatus::kOk);
}

TEST(RetrievalEngineTest, ShutdownCancelsPendingAndRejectsNewRequests) {
  const Matrix corpus = ClusteredCorpus(60, 6, 3, 47);
  const FlatIndex index = FlatIndex::BuildExact(corpus);
  RetrievalOptions options;
  options.num_workers = 0;
  options.cancel_pending_on_shutdown = true;
  RetrievalEngine engine(index, options);
  Rng rng(48);
  const Matrix queries = Matrix::RandomNormal(1, 6, rng);
  RetrievalResult pending;
  std::thread client([&] { pending = engine.Search(queries, 2); });
  while (engine.QueueDepth() == 0) std::this_thread::yield();
  engine.Shutdown();
  client.join();
  EXPECT_EQ(pending.status, RetrievalStatus::kShutdown);
  const RetrievalResult after = engine.Search(queries, 2);
  EXPECT_EQ(after.status, RetrievalStatus::kShutdown);
}

TEST(RetrievalEngineTest, NprobeResolvesAtConstruction) {
  const Matrix corpus = ClusteredCorpus(200, 8, 8, 49);
  IvfConfig config;
  config.nlist = 8;
  config.nprobe = 2;
  const IvfIndex index = IvfIndex::Build(corpus, config);
  RetrievalOptions options;
  options.num_workers = 0;
  {
    RetrievalEngine engine(index, options);
    EXPECT_EQ(engine.resolved_nprobe(), 2);  // index default
  }
  options.nprobe = 3;  // explicit option beats the index default
  {
    RetrievalEngine engine(index, options);
    EXPECT_EQ(engine.resolved_nprobe(), 3);
  }
}

// One worker homed on shard 0 of 4: requests landing on shards 1..3
// complete only through the steal path (max_batch_queries = 1 disables
// cross-shard top-up, so every foreign batch is a counted steal).
TEST(RetrievalEngineTest, WorkStealingConcurrentSubmittersMatchDirectSearch) {
  const Matrix corpus = ClusteredCorpus(300, 8, 6, 52);
  IvfConfig config;
  config.nlist = 6;
  config.nprobe = 3;
  const IvfIndex index = IvfIndex::Build(corpus, config);
  constexpr int kClients = 8, kRequestsPerClient = 4, kK = 5;
  Rng rng(53);
  std::vector<Matrix> queries;
  for (int i = 0; i < kClients * kRequestsPerClient; ++i) {
    queries.push_back(Matrix::RandomNormal(1, 8, rng));
  }
  const uint64_t steals_before =
      obs::MetricsRegistry::Instance().Snapshot().counter("retrieval/steals");

  RetrievalOptions options;
  options.num_workers = 1;
  options.num_shards = 4;
  options.max_batch_queries = 1;
  options.max_wait_micros = 0.0;
  RetrievalEngine engine(index, options);
  std::vector<RetrievalResult> results(queries.size());
  {
    std::vector<std::thread> clients;
    clients.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (int r = 0; r < kRequestsPerClient; ++r) {
          const int i = c * kRequestsPerClient + r;
          results[i] = engine.Search(queries[i], kK);
        }
      });
    }
    for (std::thread& t : clients) t.join();
  }
  engine.Shutdown();
  EXPECT_EQ(engine.QueueDepth(), 0);
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(results[i].status, RetrievalStatus::kOk) << i;
    ASSERT_EQ(results[i].neighbors.size(), 1u) << i;
    ExpectSameNeighbors(results[i].neighbors[0],
                        index.Search(queries[i].data(), kK), "steal");
  }
  // The submitters' round-robin shard picks guarantee requests landed
  // off the worker's home shard, so at least one batch was stolen.
  EXPECT_GE(
      obs::MetricsRegistry::Instance().Snapshot().counter("retrieval/steals") -
          steals_before,
      1u);
}

TEST(RetrievalEngineTest, MetricsCountRequestsAndBatches) {
  const Matrix corpus = ClusteredCorpus(100, 6, 4, 50);
  const FlatIndex index = FlatIndex::BuildExact(corpus);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Instance();
  const uint64_t requests_before =
      registry.Snapshot().counter("retrieval/requests");
  const uint64_t batches_before =
      registry.Snapshot().counter("retrieval/batches");
  RetrievalOptions options;
  options.num_workers = 1;
  options.max_wait_micros = 0.0;  // launch-when-free
  {
    RetrievalEngine engine(index, options);
    Rng rng(51);
    const Matrix queries = Matrix::RandomNormal(2, 6, rng);
    ASSERT_EQ(engine.Search(queries, 3).status, RetrievalStatus::kOk);
    ASSERT_EQ(engine.Search(queries, 3).status, RetrievalStatus::kOk);
  }
  const obs::MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.counter("retrieval/requests") - requests_before, 2u);
  EXPECT_GE(snap.counter("retrieval/batches") - batches_before, 1u);
  const obs::HistogramData* latency = snap.histogram("retrieval/latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_GE(latency->total, 2u);
}

}  // namespace
}  // namespace gradgcl::retrieval
