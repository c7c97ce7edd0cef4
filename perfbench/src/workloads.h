// The benchmark's workloads. Each fills `result` with every end-to-end
// metric (untraced run) or the per-layer metrics it exercises (traced
// run; the rest stay 0) and records its correctness gates.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

// GraphCL(f+g) on a PROTEINS-profile corpus through TrainGraphSsl.
void RunTrainGraph(const RunConfig& config, Result* result);
// The same model and data through DataParallelTrainer on 4 thread ranks.
void RunTrainDp4(const RunConfig& config, Result* result);
// GRACE(f+g) full-graph on a stochastic-block-model graph.
void RunTrainNode(const RunConfig& config, Result* result);
// Open-loop embed + top-10 search traffic with bulk-embed writes.
void RunServeQuery(const RunConfig& config, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
