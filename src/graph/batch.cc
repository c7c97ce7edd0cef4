#include "graph/batch.h"

#include <algorithm>
#include <cmath>

namespace gradgcl {

namespace {

// Sorts row entries [begin, end) by column, carrying the weights along.
// Rows are short (degree + 1), so insertion sort wins over std::sort.
void SortRow(int* cols, double* weights, int begin, int end) {
  for (int k = begin + 1; k < end; ++k) {
    const int c = cols[k];
    const double w = weights[k];
    int m = k;
    for (; m > begin && cols[m - 1] > c; --m) {
      cols[m] = cols[m - 1];
      weights[m] = weights[m - 1];
    }
    cols[m] = c;
    weights[m] = w;
  }
}

GraphBatch MakeBatchImpl(const std::vector<const Graph*>& graphs) {
  GRADGCL_CHECK_MSG(!graphs.empty(), "cannot batch zero graphs");
  const int feature_dim = graphs[0]->feature_dim();
  int total_nodes = 0;
  int total_edges = 0;
  for (const Graph* g : graphs) {
    GRADGCL_CHECK_MSG(g->feature_dim() == feature_dim,
                      "feature_dim mismatch across batch");
    total_nodes += g->num_nodes;
    total_edges += g->num_edges();
  }

  GraphBatch batch;
  batch.num_graphs = static_cast<int>(graphs.size());
  batch.total_nodes = total_nodes;
  batch.features = Matrix::Uninitialized(total_nodes, feature_dim);
  batch.segments.resize(total_nodes);
  batch.labels.reserve(graphs.size());

  // Both operators share the A + I pattern and are assembled straight
  // into CSR, one graph block at a time: the block's rows are counted
  // from its degrees, filled with the diagonal then each stored edge in
  // both directions, and sorted row by row. Weights use the stored edge
  // orientation, 1/sqrt(d_u + 1)/sqrt(d_v + 1), exactly as the triplet
  // path summed them.
  std::vector<int> offsets(total_nodes + 1, 0);
  std::vector<int> cols(2 * static_cast<size_t>(total_edges) + total_nodes);
  std::vector<double> norm(cols.size());
  std::vector<double> self(cols.size());
  std::vector<int> deg;
  std::vector<double> root;  // sqrt(d_i + 1)
  std::vector<int> cursor;
  int node0 = 0;
  for (size_t k = 0; k < graphs.size(); ++k) {
    const Graph& g = *graphs[k];
    const int n = g.num_nodes;
    batch.labels.push_back(g.label);
    std::fill(batch.segments.begin() + node0,
              batch.segments.begin() + node0 + n, static_cast<int>(k));
    GRADGCL_CHECK_MSG(g.features.rows() == n, "features rows != num_nodes");
    std::copy(g.features.data(), g.features.data() + g.features.size(),
              batch.features.data() +
                  static_cast<size_t>(node0) * feature_dim);

    deg.assign(n, 0);
    for (const auto& [u, v] : g.edges) {
      GRADGCL_CHECK(u >= 0 && u < n && v >= 0 && v < n);
      ++deg[u];
      ++deg[v];
    }
    root.resize(n);
    cursor.resize(n);
    for (int i = 0; i < n; ++i) {
      const int r = node0 + i;
      offsets[r + 1] = offsets[r] + deg[i] + 1;
      root[i] = std::sqrt(deg[i] + 1.0);
      cursor[i] = offsets[r] + 1;
      cols[offsets[r]] = r;
      norm[offsets[r]] = 1.0 / (static_cast<double>(deg[i]) + 1.0);
    }
    for (const auto& [u, v] : g.edges) {
      const double w = 1.0 / root[u] / root[v];
      cols[cursor[u]] = node0 + v;
      norm[cursor[u]++] = w;
      cols[cursor[v]] = node0 + u;
      norm[cursor[v]++] = w;
    }
    for (int r = node0; r < node0 + n; ++r) {
      SortRow(cols.data(), norm.data(), offsets[r], offsets[r + 1]);
    }
    node0 += n;
  }

  // Merges repeated (row, col) entries, which a graph breaking the
  // no-duplicate-edge invariant produces, by summation as the triplet
  // constructor did. A valid batch has none and is left in place.
  int out = 0;
  for (int r = 0; r < total_nodes; ++r) {
    const int begin = offsets[r];
    offsets[r] = out;
    for (int k = begin; k < offsets[r + 1]; ++k) {
      if (out > offsets[r] && cols[out - 1] == cols[k]) {
        norm[out - 1] += norm[k];
        self[out - 1] += 1.0;
        continue;
      }
      cols[out] = cols[k];
      norm[out] = norm[k];
      self[out] = 1.0;
      ++out;
    }
  }
  offsets[total_nodes] = out;
  cols.resize(out);
  norm.resize(out);
  self.resize(out);

  batch.norm_adj = SparseMatrix::FromCsr(total_nodes, total_nodes, offsets,
                                         cols, std::move(norm));
  batch.adj_self = SparseMatrix::FromCsr(total_nodes, total_nodes,
                                         std::move(offsets), std::move(cols),
                                         std::move(self));
  return batch;
}

}  // namespace

GraphBatch MakeBatch(const std::vector<Graph>& graphs) {
  std::vector<const Graph*> ptrs;
  ptrs.reserve(graphs.size());
  for (const Graph& g : graphs) ptrs.push_back(&g);
  return MakeBatchImpl(ptrs);
}

GraphBatch MakeBatch(const std::vector<Graph>& graphs,
                     const std::vector<int>& indices) {
  std::vector<const Graph*> ptrs;
  ptrs.reserve(indices.size());
  for (int idx : indices) {
    GRADGCL_CHECK(idx >= 0 && idx < static_cast<int>(graphs.size()));
    ptrs.push_back(&graphs[idx]);
  }
  return MakeBatchImpl(ptrs);
}

GraphBatch MakeBatch(const std::vector<const Graph*>& graphs) {
  for (const Graph* g : graphs) GRADGCL_CHECK(g != nullptr);
  return MakeBatchImpl(graphs);
}

}  // namespace gradgcl
