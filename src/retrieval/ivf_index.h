// IvfIndex: inverted-file retrieval over a quantized store.
//
// Build partitions the (row-normalized) corpus into nlist cells with
// spherical k-means, groups rows by cell into one contiguous
// QuantizedStore (corpus-wide quantization params), and keeps the f64
// centroids. Search scores the query against every centroid, probes
// the top-`nprobe` cells (ascending-index ties, like every top-k
// here), scans their contiguous row ranges through the store kernels,
// and merges candidates under the (score, original-index) total order
// — so the result set is unique no matter the probe order.
//
// Determinism contract (pinned by tests/retrieval_test.cc):
//  * k-means is bit-identical across GRADGCL_NUM_THREADS: the seeded
//    init draws from a fixed Rng stream, the assignment step is
//    parallel but each point's nearest centroid depends only on that
//    point, and centroid accumulation is serial in ascending row order
//    (a fixed f64 reduction chain).
//  * Search parallelizes over queries only; one query's centroid scan,
//    cell scans, and merge are serial. int8 scans are additionally
//    bit-identical across ISAs (exact integer dots).
//
// nprobe trades recall for speed: nprobe == nlist degenerates to the
// flat scan (same scores, same ranking — pinned by test).
// RetrievalOptions::nprobe selects the serving operating point.

#ifndef GRADGCL_RETRIEVAL_IVF_INDEX_H_
#define GRADGCL_RETRIEVAL_IVF_INDEX_H_

#include <cstdint>
#include <vector>

#include "eval/similarity.h"
#include "retrieval/store.h"
#include "tensor/matrix.h"

namespace gradgcl::retrieval {

using gradgcl::Neighbor;

struct IvfConfig {
  int nlist = 64;          // number of k-means cells (clamped to rows)
  int nprobe = 8;          // cells scanned per query (clamped to nlist)
  int kmeans_iters = 10;   // Lloyd iterations
  uint64_t seed = 42;      // centroid init stream
  Tier tier = Tier::kInt8; // storage tier of the cell store
};

class IvfIndex {
 public:
  // Builds over `corpus` (rows = vectors; normalized internally).
  static IvfIndex Build(const Matrix& corpus, const IvfConfig& config);

  // Builds over an existing (typically mmap'd) store without ever
  // materializing an f64 corpus matrix: k-means runs on rows decoded
  // one at a time (renormalized via the stored inv_norms), and the
  // cell-grouped store copies quantized codes verbatim
  // (QuantizedStore::GatherRows) — params and codes are preserved
  // exactly, so a full probe scores bit-identically to scanning the
  // source store directly. Peak extra memory is O(nlist * dim +
  // num_vectors), never O(num_vectors * dim) doubles. config.tier is
  // ignored (the store's tier wins).
  static IvfIndex BuildFromStore(const QuantizedStore& corpus,
                                 const IvfConfig& config);

  int64_t num_vectors() const { return store_.num_vectors(); }
  int dim() const { return store_.dim(); }
  int nlist() const { return centroids_.rows(); }
  int nprobe() const { return nprobe_; }
  Tier tier() const { return store_.tier(); }
  const Matrix& centroids() const { return centroids_; }
  const QuantizedStore& store() const { return store_; }

  // Rows assigned to cell c live at store rows
  // [list_offsets()[c], list_offsets()[c + 1]); ids()[r] maps a store
  // row back to its original corpus index.
  const std::vector<int64_t>& list_offsets() const { return list_offsets_; }
  const std::vector<int64_t>& ids() const { return ids_; }

  // Sets the default probe width (clamped to [1, nlist]).
  void set_nprobe(int nprobe);

  // Top-k original-corpus indices for one query; `nprobe_override > 0`
  // widens/narrows the probe for this call only.
  std::vector<Neighbor> Search(const double* query, int k,
                               int nprobe_override = 0) const;

  // One Search per row of `queries`, parallelized over queries.
  std::vector<std::vector<Neighbor>> SearchBatch(const Matrix& queries, int k,
                                                 int nprobe_override = 0) const;

 private:
  IvfIndex() = default;

  Matrix centroids_;                  // nlist x dim, unit rows (f64)
  QuantizedStore store_;              // rows grouped by cell
  std::vector<int64_t> list_offsets_; // nlist + 1 CSR offsets
  std::vector<int64_t> ids_;          // store row -> corpus index
  int nprobe_ = 8;
};

}  // namespace gradgcl::retrieval

#endif  // GRADGCL_RETRIEVAL_IVF_INDEX_H_
