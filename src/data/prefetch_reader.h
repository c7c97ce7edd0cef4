// Double-buffered prefetching batch source over a ShardedDataset —
// the caffe2 cursor/reader idiom: background reader threads decode the
// next mini-batches of Graphs from the mmap'd shards while the trainer
// consumes the current one, so shard decode overlaps compute.
//
// Determinism: batch contents and order are fixed entirely by the
// installed plan — reader threads only race over *which worker*
// decodes a given (batch, slot) item, never over what lands where, and
// ShardReader::ReadGraph is a pure function of the file bytes. So the
// reader thread count (and prefetch depth) never changes a byte of
// what the trainer sees; tests pin bit-identical loss trajectories at
// 1 and 4 threads.
//
// Handoff protocol: a ring of `depth` slots, slot s holding planned
// batch b iff s == b % depth. Workers claim (slot, item) pairs under
// the mutex, decode outside it, then report completion under it; a
// slot whose last item lands becomes ready and is consumed (swapped
// out whole) by NextBatch in plan order, which recycles the slot for
// batch b + depth. All cross-thread visibility runs through the one
// mutex — TSAN-clean by construction.

#ifndef GRADGCL_DATA_PREFETCH_READER_H_
#define GRADGCL_DATA_PREFETCH_READER_H_

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

#include "data/shard_reader.h"
#include "train/trainer.h"

namespace gradgcl::data {

struct PrefetchOptions {
  // Background reader threads decoding graphs. >= 1.
  int num_threads = 1;
  // In-flight batch buffers. >= 1; the default 2 is classic double
  // buffering: one consumed, one filling.
  int depth = 2;
};

class PrefetchReader final : public GraphBatchSource {
 public:
  // `dataset` must outlive the reader and stay open.
  explicit PrefetchReader(const ShardedDataset& dataset,
                          PrefetchOptions options = {});
  ~PrefetchReader() override;

  PrefetchReader(const PrefetchReader&) = delete;
  PrefetchReader& operator=(const PrefetchReader&) = delete;

  int64_t num_graphs() const override { return dataset_.num_graphs(); }
  void BeginEpoch(const std::vector<std::vector<int>>& batches) override;
  bool NextBatch(std::vector<Graph>* graphs) override;

  int num_threads() const { return num_threads_; }
  int depth() const { return depth_; }
  // Graphs decoded since construction (monotone; for bench reporting).
  int64_t graphs_read() const;

 private:
  struct Slot {
    int64_t batch = -1;        // planned batch index, -1 = idle
    std::vector<Graph> graphs; // filled items
    int next_item = 0;         // next unclaimed item
    int remaining = 0;         // unfinished items
    bool ready = false;
  };

  void WorkerLoop();
  // Activates planned batches into idle ring slots (caller holds lock).
  void ActivateLocked();

  const ShardedDataset& dataset_;
  int num_threads_ = 1;
  int depth_ = 2;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   // workers: new work / shutdown
  std::condition_variable ready_cv_;  // consumer: slot became ready
  std::vector<Slot> slots_;
  std::vector<std::vector<int>> plan_;
  int64_t next_to_activate_ = 0;
  int64_t next_to_consume_ = 0;
  int64_t graphs_read_ = 0;
  bool failed_ = false;    // a ReadGraph returned false
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace gradgcl::data

#endif  // GRADGCL_DATA_PREFETCH_READER_H_
