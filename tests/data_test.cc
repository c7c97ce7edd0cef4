// Test battery for the streaming data pipeline (src/data/):
//
//   1. Corruption hardening — crafted shard/manifest files (truncated,
//      bad magic/version, negative and overflowing counts, index
//      offsets past EOF, misaligned records) must yield a clean
//      `false`, with zero heap allocations on the paths where a lying
//      header could otherwise size one (mirroring serialize_test's
//      LoadStateFile battery).
//   2. Round-trip property fuzz — ~1k random graphs (empty graphs,
//      isolated nodes, dense and one-hot features) through
//      ShardWriter -> mmap read-back, bitwise identical.
//   3. Streaming-vs-in-RAM determinism — TrainGraphSslStreamed over a
//      PrefetchReader reproduces TrainGraphSsl's loss trajectory
//      bit-for-bit at 1, 2, and 4 reader threads.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "data/prefetch_reader.h"
#include "data/shard_format.h"
#include "data/shard_reader.h"
#include "data/shard_writer.h"
#include "data/stream_profiles.h"
#include "datasets/molecule_universe.h"
#include "datasets/tu_synthetic.h"
#include "models/graphcl.h"
#include "train/trainer.h"

// Heap-allocation counter: the corruption tests assert that a rejecting
// reader never allocates memory sized from untrusted fields.
#include "alloc_counter.h"

namespace gradgcl::data {
namespace {

namespace fs = std::filesystem;

// Fresh per-test directory under the gtest temp root.
std::string TestDir(const char* name) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + name;
  fs::remove_all(dir);
  return dir;
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

template <typename T>
T ReadAt(const std::vector<unsigned char>& bytes, size_t offset) {
  T value;
  EXPECT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  return value;
}

template <typename T>
void Append(std::vector<unsigned char>* bytes, T value) {
  const size_t at = bytes->size();
  bytes->resize(at + sizeof(T));
  std::memcpy(bytes->data() + at, &value, sizeof(T));
}

// The reference graph behind the crafted-corruption battery. Dense
// (non-one-hot) features, so the record layout is (offsets from the
// start of the shard file, see AssertReferenceLayout):
//
//   header 48B | RecordHeader @48 | row_offsets @64 | neighbors @80
//   | features @96 (96B) | index {48, 192} @192 | EOF @208
Graph ReferenceGraph() {
  Graph g;
  g.num_nodes = 3;
  g.edges = {{0, 1}, {1, 2}};
  g.label = 1;
  g.features = Matrix(3, 4, 0.0);
  for (int i = 0; i < 3; ++i) {
    for (int j = 0; j < 4; ++j) g.features(i, j) = 0.25 * (i * 4 + j) + 0.125;
  }
  return g;
}

// Writes the reference graph through ShardWriter and returns the shard
// file's bytes, pinning the documented layout so the Patch offsets
// below stay honest.
std::vector<unsigned char> ReferenceShardBytes(const char* dirname) {
  const std::string dir = TestDir(dirname);
  ShardWriter writer(dir, ShardWriterOptions{.feature_dim = 4});
  EXPECT_TRUE(writer.Add(ReferenceGraph()));
  EXPECT_TRUE(writer.Finalize());
  std::vector<unsigned char> bytes = SlurpBytes(dir + "/" + ShardFileName(0));
  EXPECT_EQ(bytes.size(), 208u);                       // full layout pin
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 16), 192u);        // index_offset
  EXPECT_EQ(ReadAt<int32_t>(bytes, 48), 3);            // num_nodes
  EXPECT_EQ(ReadAt<int32_t>(bytes, 52), 2);            // num_edges
  EXPECT_EQ(ReadAt<int32_t>(bytes, 60), kFeatDenseF64);
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 192), 48u);        // index[0]
  EXPECT_EQ(ReadAt<uint64_t>(bytes, 200), 192u);       // index[1] sentinel
  return bytes;
}

// Writes `bytes` to a file and asserts ShardReader::Open rejects it
// without allocating.
void ExpectOpenRejects(const char* name,
                       const std::vector<unsigned char>& bytes) {
  const std::string path =
      std::string(::testing::TempDir()) + "/" + name + ".ggsh";
  WriteFileBytes(path, bytes);
  ShardReader reader;
  const uint64_t before = HeapNewCalls();
  const bool ok = reader.Open(path);
  const uint64_t allocs = HeapNewCalls() - before;
  EXPECT_FALSE(ok) << name;
  EXPECT_EQ(allocs, 0u) << name;
  EXPECT_FALSE(reader.is_open());
}

// Writes `bytes`, asserts Open succeeds but ReadGraph(0) rejects;
// `expect_no_alloc` additionally pins the allocation-free rejection
// for the cases where corrupt counts could otherwise size one.
void ExpectRecordRejects(const char* name,
                         const std::vector<unsigned char>& bytes,
                         bool expect_no_alloc) {
  const std::string path =
      std::string(::testing::TempDir()) + "/" + name + ".ggsh";
  WriteFileBytes(path, bytes);
  ShardReader reader;
  ASSERT_TRUE(reader.Open(path)) << name;
  Graph g;
  const uint64_t before = HeapNewCalls();
  const bool ok = reader.ReadGraph(0, &g);
  const uint64_t allocs = HeapNewCalls() - before;
  EXPECT_FALSE(ok) << name;
  if (expect_no_alloc) {
    EXPECT_EQ(allocs, 0u) << name;
  }
}

// Random graph for the round-trip fuzz: occasionally empty, often with
// isolated nodes, features either exactly one-hot (compact encoding)
// or dense Gaussian (f64 encoding).
Graph RandomGraph(Rng& rng, int d) {
  Graph g;
  g.num_nodes = rng.UniformInt(13);  // 0..12, 0 = empty graph
  const int n = g.num_nodes;
  if (n >= 2 && !rng.Bernoulli(0.15)) {  // 15%: edgeless (isolated nodes)
    std::set<std::pair<int, int>> edges;
    const int attempts = rng.UniformInt(2 * n + 1);
    for (int k = 0; k < attempts; ++k) {
      int u = rng.UniformInt(n);
      int v = rng.UniformInt(n);
      if (u == v) continue;
      if (u > v) std::swap(u, v);
      edges.insert({u, v});
    }
    g.edges.assign(edges.begin(), edges.end());
  }
  if (rng.Bernoulli(0.5)) {
    g.features = Matrix(n, d, 0.0);
    for (int i = 0; i < n; ++i) g.features(i, rng.UniformInt(d)) = 1.0;
  } else {
    g.features = Matrix::RandomNormal(n, d, rng);
  }
  g.label = rng.Bernoulli(0.3) ? rng.UniformInt(5) : -1;
  return g;
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(ShardRoundTripTest, SingleGraphDense) {
  const std::string dir = TestDir("rt_single");
  const Graph original = ReferenceGraph();
  ShardWriter writer(dir, ShardWriterOptions{.feature_dim = 4});
  ASSERT_TRUE(writer.Add(original));
  ASSERT_TRUE(writer.Finalize());
  EXPECT_EQ(writer.graphs_written(), 1);

  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));
  EXPECT_EQ(ds.num_graphs(), 1);
  EXPECT_EQ(ds.feature_dim(), 4);
  EXPECT_EQ(ds.num_shards(), 1);
  Graph loaded;
  ASSERT_TRUE(ds.ReadGraph(0, &loaded));
  EXPECT_TRUE(GraphsBitwiseEqual(original, loaded));
}

TEST(ShardRoundTripTest, EmptyAndEdgelessGraphs) {
  const std::string dir = TestDir("rt_edge_cases");
  std::vector<Graph> originals;
  {
    Graph empty;  // 0 nodes, 0 edges
    empty.features = Matrix(0, 3, 0.0);
    originals.push_back(empty);
  }
  {
    Graph isolated;  // nodes but no edges
    isolated.num_nodes = 5;
    isolated.features = Matrix(5, 3, 0.0);
    for (int i = 0; i < 5; ++i) isolated.features(i, i % 3) = 1.0;
    isolated.label = 2;
    originals.push_back(isolated);
  }
  ShardWriter writer(dir, ShardWriterOptions{.feature_dim = 3});
  for (const Graph& g : originals) ASSERT_TRUE(writer.Add(g));
  ASSERT_TRUE(writer.Finalize());

  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));
  ASSERT_EQ(ds.num_graphs(), 2);
  const std::vector<Graph> loaded = ds.ReadAll();
  for (size_t i = 0; i < originals.size(); ++i) {
    EXPECT_TRUE(GraphsBitwiseEqual(originals[i], loaded[i])) << i;
  }
}

TEST(ShardRoundTripTest, EmptyDatasetWritesOneEmptyShard) {
  const std::string dir = TestDir("rt_empty_dataset");
  ShardWriter writer(dir, ShardWriterOptions{.feature_dim = 3});
  ASSERT_TRUE(writer.Finalize());
  EXPECT_EQ(writer.graphs_written(), 0);

  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));
  EXPECT_EQ(ds.num_graphs(), 0);
  EXPECT_EQ(ds.num_shards(), 1);
  EXPECT_TRUE(ds.ReadAll().empty());
}

TEST(ShardRoundTripTest, RolloverSplitsShardsAtThreshold) {
  const std::string dir = TestDir("rt_rollover");
  Rng rng(7);
  std::vector<Graph> originals;
  for (int i = 0; i < 10; ++i) originals.push_back(RandomGraph(rng, 5));
  ShardWriter writer(
      dir, ShardWriterOptions{.feature_dim = 5, .graphs_per_shard = 4});
  for (const Graph& g : originals) ASSERT_TRUE(writer.Add(g));
  ASSERT_TRUE(writer.Finalize());
  EXPECT_EQ(writer.num_shards(), 3);  // 4 + 4 + 2

  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));
  EXPECT_EQ(ds.num_shards(), 3);
  ASSERT_EQ(ds.num_graphs(), 10);
  for (int i = 0; i < 10; ++i) {
    Graph loaded;
    ASSERT_TRUE(ds.ReadGraph(i, &loaded));
    EXPECT_TRUE(GraphsBitwiseEqual(originals[static_cast<size_t>(i)], loaded))
        << i;
  }
}

TEST(ShardRoundTripTest, FuzzThousandRandomGraphs) {
  const std::string dir = TestDir("rt_fuzz");
  Rng rng(20240809);
  std::vector<Graph> originals;
  originals.reserve(1000);
  for (int i = 0; i < 1000; ++i) originals.push_back(RandomGraph(rng, 6));

  ShardWriter writer(
      dir, ShardWriterOptions{.feature_dim = 6, .graphs_per_shard = 97});
  for (const Graph& g : originals) ASSERT_TRUE(writer.Add(g));
  ASSERT_TRUE(writer.Finalize());
  EXPECT_EQ(writer.num_shards(), 11);  // ceil(1000 / 97)

  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));
  ASSERT_EQ(ds.num_graphs(), 1000);
  // Read back out of order (reverse) to exercise random addressing
  // across shard boundaries.
  for (int i = 999; i >= 0; --i) {
    Graph loaded;
    ASSERT_TRUE(ds.ReadGraph(i, &loaded));
    ASSERT_TRUE(GraphsBitwiseEqual(originals[static_cast<size_t>(i)], loaded))
        << "graph " << i;
  }
}

TEST(ShardRoundTripTest, DropPageCacheKeepsReadsWorking) {
  const std::string dir = TestDir("rt_dropcache");
  const Graph original = ReferenceGraph();
  ShardWriter writer(dir, ShardWriterOptions{.feature_dim = 4});
  ASSERT_TRUE(writer.Add(original));
  ASSERT_TRUE(writer.Finalize());
  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));
  ds.DropPageCache();  // best-effort; reads must still decode
  Graph loaded;
  ASSERT_TRUE(ds.ReadGraph(0, &loaded));
  EXPECT_TRUE(GraphsBitwiseEqual(original, loaded));
}

// ---------------------------------------------------------------------------
// Streaming profiles: on-disk bytes reproduce the in-RAM generators
// ---------------------------------------------------------------------------

TEST(StreamProfilesTest, TuDatasetRoundTripsBitwise) {
  TuProfile profile = TuProfileByName("MUTAG");
  profile.num_graphs = 30;
  const std::string dir = TestDir("sp_tu");
  ASSERT_TRUE(StreamTuDataset(profile, 11, dir, /*graphs_per_shard=*/13));

  const std::vector<Graph> in_ram = GenerateTuDataset(profile, 11);
  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));
  EXPECT_EQ(ds.num_shards(), 3);
  ASSERT_EQ(ds.num_graphs(), 30);
  const std::vector<Graph> streamed = ds.ReadAll();
  for (size_t i = 0; i < in_ram.size(); ++i) {
    EXPECT_TRUE(GraphsBitwiseEqual(in_ram[i], streamed[i])) << i;
  }
}

TEST(StreamProfilesTest, PretrainSetRoundTripsBitwiseAndPacksOneHot) {
  const std::string dir = TestDir("sp_zinc");
  ASSERT_TRUE(StreamPretrainSet(PretrainKind::kZinc, 300, 11, dir,
                                /*graphs_per_shard=*/128));
  const std::vector<Graph> in_ram =
      GeneratePretrainSet(PretrainKind::kZinc, 300, 11);

  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));
  EXPECT_EQ(ds.feature_dim(), kNumAtomTypes);
  ASSERT_EQ(ds.num_graphs(), 300);
  const std::vector<Graph> streamed = ds.ReadAll();
  for (size_t i = 0; i < in_ram.size(); ++i) {
    ASSERT_TRUE(GraphsBitwiseEqual(in_ram[i], streamed[i])) << i;
  }

  // The universe's one-hot atom features must select the compact u8
  // encoding — that is what keeps the at-scale profile ~5x smaller on
  // disk than dense f64 rows.
  const std::vector<unsigned char> bytes =
      SlurpBytes(dir + "/" + ShardFileName(0));
  EXPECT_EQ(ReadAt<int32_t>(bytes, 48 + 12), kFeatOneHotU8);
}

TEST(StreamProfilesTest, NodeDatasetRoundTripsItsSingleGraph) {
  NodeProfile profile;
  const std::string dir = TestDir("sp_node");
  ASSERT_TRUE(StreamNodeDataset(profile, 3, dir));
  const NodeDataset in_ram = GenerateNodeDataset(profile, 3);

  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));
  ASSERT_EQ(ds.num_graphs(), 1);
  Graph loaded;
  ASSERT_TRUE(ds.ReadGraph(0, &loaded));
  EXPECT_TRUE(GraphsBitwiseEqual(in_ram.graph, loaded));
}

TEST(StreamProfilesTest, UniverseAtScaleSmokeProfileStreams) {
  // Scaled-down smoke of the >= 1M-graph profile (bench_data runs the
  // full-size one): same code path, tiny counts.
  UniverseScaleProfile profile;
  profile.num_graphs = 200;
  profile.graphs_per_shard = 64;
  const std::string dir = TestDir("sp_universe_smoke");
  ASSERT_TRUE(StreamMoleculeUniverseAtScale(profile, dir));

  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));
  EXPECT_EQ(ds.num_graphs(), 200);
  EXPECT_EQ(ds.num_shards(), 4);  // ceil(200 / 64)
  // Spot-check the first/last graphs against the in-RAM generator.
  const std::vector<Graph> in_ram =
      GeneratePretrainSet(PretrainKind::kZinc, 200, profile.seed);
  Graph first, last;
  ASSERT_TRUE(ds.ReadGraph(0, &first));
  ASSERT_TRUE(ds.ReadGraph(199, &last));
  EXPECT_TRUE(GraphsBitwiseEqual(in_ram.front(), first));
  EXPECT_TRUE(GraphsBitwiseEqual(in_ram.back(), last));
}

// ---------------------------------------------------------------------------
// Corruption battery: shard headers and indexes
// ---------------------------------------------------------------------------

TEST(ShardCorruptionTest, MissingFileFails) {
  ShardReader reader;
  EXPECT_FALSE(reader.Open("/nonexistent/dir/shard-00000.ggsh"));
}

TEST(ShardCorruptionTest, EmptyFileFails) {
  ExpectOpenRejects("empty", {});
}

TEST(ShardCorruptionTest, TruncatedHeaderFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_trunc_hdr");
  bytes.resize(20);
  ExpectOpenRejects("trunc_hdr", bytes);
}

TEST(ShardCorruptionTest, TruncatedIndexFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_trunc_idx");
  bytes.resize(200);  // chops the index end sentinel
  ExpectOpenRejects("trunc_idx", bytes);
}

TEST(ShardCorruptionTest, ShuffledMagicFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_magic");
  const char shuffled[4] = {'H', 'S', 'G', 'G'};
  std::memcpy(bytes.data(), shuffled, 4);
  ExpectOpenRejects("magic", bytes);
}

TEST(ShardCorruptionTest, WrongVersionFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_version");
  Patch<uint32_t>(&bytes, 4, kFormatVersion + 1);
  ExpectOpenRejects("version", bytes);
}

TEST(ShardCorruptionTest, OverflowingNumGraphsFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_huge_ng");
  // Claims 2^30 graphs: (ng + 1) * 8 would dwarf the file. The 64-bit
  // header math must reject it without trying to read (or allocate)
  // an 8 GiB index.
  Patch<uint32_t>(&bytes, 8, 1u << 30);
  ExpectOpenRejects("huge_ng", bytes);
}

TEST(ShardCorruptionTest, ZeroFeatureDimFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_zero_dim");
  Patch<uint32_t>(&bytes, 12, 0);
  ExpectOpenRejects("zero_dim", bytes);
}

TEST(ShardCorruptionTest, OverflowingFeatureDimFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_huge_dim");
  Patch<uint32_t>(&bytes, 12, 1u << 24);  // > kMaxFeatureDim
  ExpectOpenRejects("huge_dim", bytes);
}

TEST(ShardCorruptionTest, IndexOffsetPastEofFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_idx_eof");
  Patch<uint64_t>(&bytes, 16, 100000);  // index_offset
  Patch<uint64_t>(&bytes, 24, 100000);  // payload_end (kept in agreement)
  ExpectOpenRejects("idx_eof", bytes);
}

TEST(ShardCorruptionTest, MisalignedIndexOffsetFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_idx_align");
  Patch<uint64_t>(&bytes, 16, 188);  // not 8-aligned
  Patch<uint64_t>(&bytes, 24, 188);
  ExpectOpenRejects("idx_align", bytes);
}

TEST(ShardCorruptionTest, PayloadEndDisagreeingWithIndexOffsetFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_payload_end");
  Patch<uint64_t>(&bytes, 24, 184);
  ExpectOpenRejects("payload_end", bytes);
}

TEST(ShardCorruptionTest, FirstIndexEntryNotAtHeaderEndFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_idx0");
  Patch<uint64_t>(&bytes, 192, 56);
  ExpectOpenRejects("idx0", bytes);
}

TEST(ShardCorruptionTest, MisalignedIndexEntryFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_idx_entry_align");
  Patch<uint64_t>(&bytes, 192, 52);  // in bounds but not 8-aligned
  ExpectOpenRejects("idx_entry_align", bytes);
}

TEST(ShardCorruptionTest, IndexSentinelPastIndexOffsetFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_idx_sentinel");
  Patch<uint64_t>(&bytes, 200, 500);  // index[1] must equal index_offset
  ExpectOpenRejects("idx_sentinel", bytes);
}

TEST(ShardCorruptionTest, NonMonotoneIndexFails) {
  // Two-graph shard so a middle entry exists to break monotonicity.
  const std::string dir = TestDir("c_monotone_src");
  ShardWriter writer(dir, ShardWriterOptions{.feature_dim = 4});
  ASSERT_TRUE(writer.Add(ReferenceGraph()));
  ASSERT_TRUE(writer.Add(ReferenceGraph()));
  ASSERT_TRUE(writer.Finalize());
  std::vector<unsigned char> bytes = SlurpBytes(dir + "/" + ShardFileName(0));
  const uint64_t index_offset = ReadAt<uint64_t>(bytes, 16);
  Patch<uint64_t>(&bytes, static_cast<size_t>(index_offset) + 8, 40);
  ExpectOpenRejects("monotone", bytes);
}

// ---------------------------------------------------------------------------
// Corruption battery: record bodies (Open succeeds, ReadGraph rejects)
// ---------------------------------------------------------------------------

TEST(RecordCorruptionTest, NegativeNumNodesFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_neg_n");
  Patch<int32_t>(&bytes, 48, -1);
  ExpectRecordRejects("neg_n", bytes, /*expect_no_alloc=*/true);
}

TEST(RecordCorruptionTest, NegativeNumEdgesFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_neg_e");
  Patch<int32_t>(&bytes, 52, -3);
  ExpectRecordRejects("neg_e", bytes, /*expect_no_alloc=*/true);
}

TEST(RecordCorruptionTest, OverflowingNumNodesFails) {
  // INT32_MAX nodes: (n + 1) * 4 row-offset bytes alone exceed the
  // record extent; the 64-bit extent math must reject before sizing
  // anything from the lie.
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_big_n");
  Patch<int32_t>(&bytes, 48, INT32_MAX);
  ExpectRecordRejects("big_n", bytes, /*expect_no_alloc=*/true);
}

TEST(RecordCorruptionTest, OverflowingNumEdgesFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_big_e");
  Patch<int32_t>(&bytes, 52, INT32_MAX);
  ExpectRecordRejects("big_e", bytes, /*expect_no_alloc=*/true);
}

TEST(RecordCorruptionTest, UnknownFeatureEncodingFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_encoding");
  Patch<int32_t>(&bytes, 60, 7);
  ExpectRecordRejects("encoding", bytes, /*expect_no_alloc=*/true);
}

TEST(RecordCorruptionTest, RowOffsetsNotStartingAtZeroFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_row0");
  Patch<uint32_t>(&bytes, 64, 1);
  ExpectRecordRejects("row0", bytes, /*expect_no_alloc=*/true);
}

TEST(RecordCorruptionTest, RowOffsetsEndMismatchFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_rown");
  Patch<uint32_t>(&bytes, 76, 5);  // row_offsets[n] != 2e
  ExpectRecordRejects("rown", bytes, /*expect_no_alloc=*/true);
}

TEST(RecordCorruptionTest, NeighborOutOfRangeFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_nbr_range");
  Patch<int32_t>(&bytes, 80, 7);  // node 0's neighbour, n == 3
  ExpectRecordRejects("nbr_range", bytes, /*expect_no_alloc=*/true);
}

TEST(RecordCorruptionTest, SelfLoopFails) {
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_self_loop");
  Patch<int32_t>(&bytes, 80, 0);  // node 0 adjacent to itself
  ExpectRecordRejects("self_loop", bytes, /*expect_no_alloc=*/true);
}

TEST(RecordCorruptionTest, DuplicateNeighborFails) {
  // Node 1's row is [0, 2] at bytes 84, 88; [2, 2] breaks the
  // strictly-ascending row invariant (duplicate edge).
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_dup_nbr");
  Patch<int32_t>(&bytes, 84, 2);
  ExpectRecordRejects("dup_nbr", bytes, /*expect_no_alloc=*/true);
}

TEST(RecordCorruptionTest, AsymmetricAdjacencyFails) {
  // Rows [0,2), [2,3), [3,4) with neighbours [1,2,2,1]: every row is
  // valid in isolation, but the canonical (v > u) reconstruction finds
  // 3 edges where the header claims 2.
  std::vector<unsigned char> bytes = ReferenceShardBytes("c_asym");
  Patch<uint32_t>(&bytes, 68, 2);  // row_offsets[1]
  Patch<int32_t>(&bytes, 84, 2);   // second neighbour of node 0
  ExpectRecordRejects("asym", bytes, /*expect_no_alloc=*/false);
}

TEST(RecordCorruptionTest, RecordExtentSmallerThanHeaderFails) {
  // Two-graph shard; shrink record 0's extent below sizeof(RecordHeader)
  // via the index (which stays monotone and aligned, so Open accepts).
  const std::string dir = TestDir("c_extent_src");
  ShardWriter writer(dir, ShardWriterOptions{.feature_dim = 4});
  ASSERT_TRUE(writer.Add(ReferenceGraph()));
  ASSERT_TRUE(writer.Add(ReferenceGraph()));
  ASSERT_TRUE(writer.Finalize());
  std::vector<unsigned char> bytes = SlurpBytes(dir + "/" + ShardFileName(0));
  const uint64_t index_offset = ReadAt<uint64_t>(bytes, 16);
  Patch<uint64_t>(&bytes, static_cast<size_t>(index_offset) + 8, 56);
  ExpectRecordRejects("extent", bytes, /*expect_no_alloc=*/true);
}

TEST(RecordCorruptionTest, OneHotTypeBeyondFeatureDimFails) {
  // One-hot reference shard: features are 3 type bytes at offset 96.
  const std::string dir = TestDir("c_onehot_src");
  Graph g = ReferenceGraph();
  g.features = Matrix(3, 4, 0.0);
  for (int i = 0; i < 3; ++i) g.features(i, i) = 1.0;
  ShardWriter writer(dir, ShardWriterOptions{.feature_dim = 4});
  ASSERT_TRUE(writer.Add(g));
  ASSERT_TRUE(writer.Finalize());
  std::vector<unsigned char> bytes = SlurpBytes(dir + "/" + ShardFileName(0));
  ASSERT_EQ(ReadAt<int32_t>(bytes, 60), kFeatOneHotU8);
  Patch<uint8_t>(&bytes, 96, 200);  // type 200 >= feature_dim 4
  ExpectRecordRejects("onehot_type", bytes, /*expect_no_alloc=*/false);
}

TEST(RecordCorruptionTest, SelfConsistentGiantRecordIsCappedWithoutAlloc) {
  // Hand-crafted shard whose single record is entirely self-consistent
  // — header, index, and extents all agree — but claims n = 4096 nodes
  // at feature_dim = 65535 in one-hot encoding. Decoding would
  // materialise a 4096 x 65535 dense matrix (~2 GiB); the
  // kMaxRecordElements cap must reject it before the allocation.
  const int64_t n = 4096;
  const int64_t d = 65535;
  const int64_t csr_end = 16 + (n + 1) * 4;            // no neighbours
  const int64_t record_bytes = AlignUp8(AlignUp8(csr_end) + n);
  const uint64_t index_offset = static_cast<uint64_t>(48 + record_bytes);

  std::vector<unsigned char> bytes;
  bytes.reserve(static_cast<size_t>(index_offset) + 16);
  for (char c : {'G', 'G', 'S', 'H'}) Append<char>(&bytes, c);
  Append<uint32_t>(&bytes, kFormatVersion);
  Append<uint32_t>(&bytes, 1);                          // num_graphs
  Append<uint32_t>(&bytes, static_cast<uint32_t>(d));   // feature_dim
  Append<uint64_t>(&bytes, index_offset);
  Append<uint64_t>(&bytes, index_offset);               // payload_end
  Append<uint64_t>(&bytes, 0);
  Append<uint64_t>(&bytes, 0);
  ASSERT_EQ(bytes.size(), 48u);
  Append<int32_t>(&bytes, static_cast<int32_t>(n));
  Append<int32_t>(&bytes, 0);                           // num_edges
  Append<int32_t>(&bytes, -1);                          // label
  Append<int32_t>(&bytes, kFeatOneHotU8);
  for (int64_t i = 0; i <= n; ++i) Append<uint32_t>(&bytes, 0);
  bytes.resize(static_cast<size_t>(48 + AlignUp8(csr_end)), 0);  // pad
  bytes.resize(static_cast<size_t>(index_offset), 0);   // one-hot types 0
  Append<uint64_t>(&bytes, 48);
  Append<uint64_t>(&bytes, index_offset);

  ExpectRecordRejects("giant_record", bytes, /*expect_no_alloc=*/true);
}

// ---------------------------------------------------------------------------
// Corruption battery: manifests
// ---------------------------------------------------------------------------

// Writes a two-shard reference dataset and returns its directory.
std::string ReferenceDatasetDir(const char* dirname) {
  const std::string dir = TestDir(dirname);
  ShardWriter writer(
      dir, ShardWriterOptions{.feature_dim = 4, .graphs_per_shard = 1});
  EXPECT_TRUE(writer.Add(ReferenceGraph()));
  EXPECT_TRUE(writer.Add(ReferenceGraph()));
  EXPECT_TRUE(writer.Finalize());
  return dir;
}

TEST(ManifestCorruptionTest, MissingManifestFails) {
  const std::string dir = TestDir("m_missing");
  fs::create_directory(dir);
  ShardedDataset ds;
  EXPECT_FALSE(ds.Open(dir));
}

TEST(ManifestCorruptionTest, BadMagicFails) {
  const std::string dir = ReferenceDatasetDir("m_magic");
  const std::string path = dir + "/" + kManifestName;
  std::vector<unsigned char> bytes = SlurpBytes(path);
  bytes[0] = 'X';
  WriteFileBytes(path, bytes);
  ShardedDataset ds;
  EXPECT_FALSE(ds.Open(dir));
}

TEST(ManifestCorruptionTest, TruncatedManifestFails) {
  const std::string dir = ReferenceDatasetDir("m_trunc");
  const std::string path = dir + "/" + kManifestName;
  std::vector<unsigned char> bytes = SlurpBytes(path);
  ASSERT_EQ(bytes.size(), 24u + 2 * 8u);
  bytes.resize(20);
  WriteFileBytes(path, bytes);
  ShardedDataset ds;
  EXPECT_FALSE(ds.Open(dir));
}

TEST(ManifestCorruptionTest, ShardCountDisagreeingWithSizeFails) {
  const std::string dir = ReferenceDatasetDir("m_nshards");
  const std::string path = dir + "/" + kManifestName;
  std::vector<unsigned char> bytes = SlurpBytes(path);
  Patch<uint32_t>(&bytes, 8, 5);  // num_shards, but only 2 counts follow
  WriteFileBytes(path, bytes);
  ShardedDataset ds;
  EXPECT_FALSE(ds.Open(dir));
}

TEST(ManifestCorruptionTest, TotalGraphsMismatchFails) {
  const std::string dir = ReferenceDatasetDir("m_total");
  const std::string path = dir + "/" + kManifestName;
  std::vector<unsigned char> bytes = SlurpBytes(path);
  Patch<uint64_t>(&bytes, 16, 99);  // total_graphs
  WriteFileBytes(path, bytes);
  ShardedDataset ds;
  EXPECT_FALSE(ds.Open(dir));
}

TEST(ManifestCorruptionTest, PerShardCountMismatchFails) {
  const std::string dir = ReferenceDatasetDir("m_count");
  const std::string path = dir + "/" + kManifestName;
  std::vector<unsigned char> bytes = SlurpBytes(path);
  Patch<uint64_t>(&bytes, 24, 2);  // shard 0 claims 2 graphs, holds 1
  WriteFileBytes(path, bytes);
  ShardedDataset ds;
  EXPECT_FALSE(ds.Open(dir));
}

TEST(ManifestCorruptionTest, MissingShardFileFails) {
  const std::string dir = ReferenceDatasetDir("m_lost_shard");
  fs::remove(dir + "/" + ShardFileName(1));
  ShardedDataset ds;
  EXPECT_FALSE(ds.Open(dir));
}

TEST(ManifestCorruptionTest, ShardFeatureDimDisagreeingFails) {
  const std::string dir = ReferenceDatasetDir("m_dim");
  const std::string path = dir + "/" + ShardFileName(0);
  std::vector<unsigned char> bytes = SlurpBytes(path);
  Patch<uint32_t>(&bytes, 12, 5);  // shard header says 5, manifest says 4
  WriteFileBytes(path, bytes);
  ShardedDataset ds;
  EXPECT_FALSE(ds.Open(dir));
}

// ---------------------------------------------------------------------------
// PrefetchReader
// ---------------------------------------------------------------------------

// 23 random graphs across 4 shards for the prefetch tests.
std::string PrefetchDatasetDir(const char* dirname,
                               std::vector<Graph>* originals) {
  const std::string dir = TestDir(dirname);
  Rng rng(5);
  originals->clear();
  for (int i = 0; i < 23; ++i) originals->push_back(RandomGraph(rng, 5));
  ShardWriter writer(
      dir, ShardWriterOptions{.feature_dim = 5, .graphs_per_shard = 7});
  for (const Graph& g : *originals) EXPECT_TRUE(writer.Add(g));
  EXPECT_TRUE(writer.Finalize());
  return dir;
}

TEST(PrefetchReaderTest, DeliversPlannedBatchesInOrder) {
  std::vector<Graph> originals;
  const std::string dir = PrefetchDatasetDir("pf_order", &originals);
  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));

  const std::vector<std::vector<int>> plan = {
      {5, 1, 9}, {0, 22, 3, 7}, {}, {2, 2, 14, 18, 11}};  // repeats allowed
  for (int threads : {1, 2, 4}) {
    for (int depth : {1, 3}) {
      PrefetchReader reader(
          ds, PrefetchOptions{.num_threads = threads, .depth = depth});
      EXPECT_EQ(reader.num_threads(), threads);
      EXPECT_EQ(reader.depth(), depth);
      EXPECT_EQ(reader.num_graphs(), 23);
      reader.BeginEpoch(plan);
      std::vector<Graph> batch;
      for (const std::vector<int>& planned : plan) {
        ASSERT_TRUE(reader.NextBatch(&batch));
        ASSERT_EQ(batch.size(), planned.size());
        for (size_t k = 0; k < planned.size(); ++k) {
          EXPECT_TRUE(GraphsBitwiseEqual(
              originals[static_cast<size_t>(planned[k])], batch[k]))
              << "threads=" << threads << " depth=" << depth << " item=" << k;
        }
      }
      EXPECT_FALSE(reader.NextBatch(&batch));  // plan exhausted
    }
  }
}

TEST(PrefetchReaderTest, SupportsBackToBackEpochs) {
  std::vector<Graph> originals;
  const std::string dir = PrefetchDatasetDir("pf_epochs", &originals);
  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));
  EXPECT_EQ(PrefetchReader(ds).depth(), 2);  // double buffering
  PrefetchReader reader(ds, PrefetchOptions{.num_threads = 2, .depth = 2});

  int64_t total_items = 0;
  for (int epoch = 0; epoch < 3; ++epoch) {
    Rng rng(100 + epoch);
    const std::vector<std::vector<int>> plan = MakeMiniBatches(23, 6, rng);
    reader.BeginEpoch(plan);
    std::vector<Graph> batch;
    for (const std::vector<int>& planned : plan) {
      ASSERT_TRUE(reader.NextBatch(&batch));
      ASSERT_EQ(batch.size(), planned.size());
      for (size_t k = 0; k < planned.size(); ++k) {
        EXPECT_TRUE(GraphsBitwiseEqual(
            originals[static_cast<size_t>(planned[k])], batch[k]));
      }
      total_items += static_cast<int64_t>(planned.size());
    }
  }
  EXPECT_EQ(reader.graphs_read(), total_items);
}

TEST(PrefetchReaderTest, CorruptShardSurfacesAsNextBatchFailure) {
  const std::string dir = TestDir("pf_corrupt");
  ShardWriter writer(dir, ShardWriterOptions{.feature_dim = 4});
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(writer.Add(ReferenceGraph()));
  ASSERT_TRUE(writer.Finalize());
  // Corrupt record 2's body after writing: negative node count. Open
  // still succeeds (header and index are intact).
  const std::string shard_path = dir + "/" + ShardFileName(0);
  std::vector<unsigned char> bytes = SlurpBytes(shard_path);
  const uint64_t rec2 = ReadAt<uint64_t>(
      bytes, static_cast<size_t>(ReadAt<uint64_t>(bytes, 16)) + 2 * 8);
  Patch<int32_t>(&bytes, static_cast<size_t>(rec2), -1);
  WriteFileBytes(shard_path, bytes);

  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));
  // depth = 1: the corrupt batch is not prefetched until the clean one
  // is consumed, so the failure surfaces exactly on the second call
  // (at depth >= 2 it may legitimately surface on the first).
  PrefetchReader reader(ds, PrefetchOptions{.num_threads = 2, .depth = 1});
  reader.BeginEpoch({{0, 1}, {2, 3}});
  std::vector<Graph> batch;
  ASSERT_TRUE(reader.NextBatch(&batch));   // {0, 1} decodes fine
  EXPECT_FALSE(reader.NextBatch(&batch));  // {2, 3} hits the corruption
}

// ---------------------------------------------------------------------------
// Streaming-vs-in-RAM training determinism
// ---------------------------------------------------------------------------

GraphClConfig BitIdentityModelConfig() {
  GraphClConfig config;
  config.encoder.in_dim = 8;
  config.encoder.hidden_dim = 16;
  config.encoder.out_dim = 16;
  config.encoder.num_layers = 2;
  config.proj_dim = 8;
  config.grad_gcl.weight = 0.5;  // exercise the GradGCL loss path too
  return config;
}

TuProfile BitIdentityProfile() {
  TuProfile profile;
  profile.name = "BITID";
  profile.num_graphs = 48;
  profile.avg_nodes = 10.0;
  profile.feature_dim = 8;
  return profile;
}

// The pipeline's central contract: training through mmap'd shards and
// a background prefetcher yields the *bit-identical* loss trajectory
// of the in-RAM path on the same seed — 51 optimiser steps (17 epochs
// x 3 batches), compared exactly, at 1, 2, and 4 reader threads.
TEST(StreamingDeterminismTest, LossTrajectoryBitIdenticalToInRam) {
  const TuProfile profile = BitIdentityProfile();
  const uint64_t data_seed = 2024;
  const std::string dir = TestDir("bitid");
  ASSERT_TRUE(StreamTuDataset(profile, data_seed, dir, /*graphs_per_shard=*/17));

  const std::vector<Graph> in_ram = GenerateTuDataset(profile, data_seed);
  ShardedDataset ds;
  ASSERT_TRUE(ds.Open(dir));
  ASSERT_EQ(ds.num_shards(), 3);
  ASSERT_EQ(ds.num_graphs(), 48);
  {
    const std::vector<Graph> streamed = ds.ReadAll();
    for (size_t i = 0; i < in_ram.size(); ++i) {
      ASSERT_TRUE(GraphsBitwiseEqual(in_ram[i], streamed[i])) << i;
    }
  }

  TrainOptions options;
  options.epochs = 17;     // x 3 batches/epoch = 51 steps
  options.batch_size = 16;
  options.lr = 0.01;
  options.seed = 5;

  std::vector<EpochStats> baseline;
  {
    Rng rng(42);
    GraphCl model(BitIdentityModelConfig(), rng);
    baseline = TrainGraphSsl(model, in_ram, options);
  }
  ASSERT_EQ(static_cast<int>(baseline.size()), options.epochs);

  for (int threads : {1, 2, 4}) {
    Rng rng(42);  // identical weight init
    GraphCl model(BitIdentityModelConfig(), rng);
    PrefetchReader source(ds, PrefetchOptions{.num_threads = threads});
    const std::vector<EpochStats> streamed =
        TrainGraphSslStreamed(model, source, options);
    ASSERT_EQ(streamed.size(), baseline.size()) << "threads=" << threads;
    for (size_t e = 0; e < baseline.size(); ++e) {
      // Exact double equality — bit identity, not tolerance.
      EXPECT_EQ(streamed[e].loss, baseline[e].loss)
          << "threads=" << threads << " epoch=" << e;
    }
    EXPECT_EQ(source.graphs_read(),
              static_cast<int64_t>(options.epochs) * 48);
  }
}

}  // namespace
}  // namespace gradgcl::data
