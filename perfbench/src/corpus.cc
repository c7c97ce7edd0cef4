#include "corpus.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "data/shard_reader.h"
#include "data/shard_writer.h"

namespace perfbench {

gradgcl::TuProfile ProteinsProfile(int num_graphs) {
  gradgcl::TuProfile profile = gradgcl::TuProfileByName("PROTEINS");
  profile.num_graphs = num_graphs;
  return profile;
}

std::vector<gradgcl::Graph> ShardedProteinsCorpus(const RunConfig& config,
                                                  const std::string& name,
                                                  int num_graphs, uint64_t seed,
                                                  double* read_graphs_per_s) {
  const gradgcl::TuProfile profile = ProteinsProfile(num_graphs);
  const std::string dir = config.work_dir + "/" + name;
  std::filesystem::remove_all(dir);
  {
    gradgcl::data::ShardWriterOptions options;
    options.feature_dim = profile.feature_dim;
    options.graphs_per_shard = 4096;
    gradgcl::data::ShardWriter writer(dir, options);
    gradgcl::ForEachTuGraph(profile, seed,
                            [&](gradgcl::Graph&& g) { writer.Add(g); });
    if (!writer.Finalize()) {
      std::fprintf(stderr, "perfbench: cannot write shards to %s\n",
                   dir.c_str());
      std::exit(2);
    }
  }
  const int64_t t0 = NowNs();
  gradgcl::data::ShardedDataset dataset;
  if (!dataset.Open(dir)) {
    std::fprintf(stderr, "perfbench: cannot read shards in %s\n", dir.c_str());
    std::exit(2);
  }
  std::vector<gradgcl::Graph> graphs = dataset.ReadAll();
  *read_graphs_per_s =
      static_cast<double>(graphs.size()) / NsToS(NowNs() - t0);
  std::filesystem::remove_all(dir);
  return graphs;
}

}  // namespace perfbench
