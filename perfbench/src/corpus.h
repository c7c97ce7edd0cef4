// Graph corpora the workloads train and serve on, passed through the
// repository's on-disk shard format on the way in.

#ifndef PERFBENCH_CORPUS_H_
#define PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datasets/tu_synthetic.h"
#include "graph/graph.h"
#include "harness.h"

namespace perfbench {

// The PROTEINS generation profile scaled to `num_graphs` graphs.
gradgcl::TuProfile ProteinsProfile(int num_graphs);

// Streams `num_graphs` PROTEINS-profile graphs (seeded by `seed`) into
// GGSH shards under the run's work directory, reads them back through
// data::ShardedDataset and deletes the files. Stores the read-back rate
// (graphs/s) in *read_graphs_per_s. Exits on an I/O failure.
std::vector<gradgcl::Graph> ShardedProteinsCorpus(const RunConfig& config,
                                                  const std::string& name,
                                                  int num_graphs, uint64_t seed,
                                                  double* read_graphs_per_s);

}  // namespace perfbench

#endif  // PERFBENCH_CORPUS_H_
