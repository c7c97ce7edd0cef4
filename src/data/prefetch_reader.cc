#include "data/prefetch_reader.h"

namespace gradgcl::data {

PrefetchReader::PrefetchReader(const ShardedDataset& dataset,
                               PrefetchOptions options)
    : dataset_(dataset),
      num_threads_(options.num_threads >= 1 ? options.num_threads : 1),
      depth_(options.depth >= 1 ? options.depth : 1) {
  slots_.resize(static_cast<size_t>(depth_));
  workers_.reserve(static_cast<size_t>(num_threads_));
  for (int t = 0; t < num_threads_; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

PrefetchReader::~PrefetchReader() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  ready_cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void PrefetchReader::ActivateLocked() {
  while (next_to_activate_ < static_cast<int64_t>(plan_.size()) &&
         next_to_activate_ - next_to_consume_ < depth_) {
    Slot& slot = slots_[static_cast<size_t>(next_to_activate_ % depth_)];
    GRADGCL_CHECK(slot.batch == -1);
    const int batch_size =
        static_cast<int>(plan_[static_cast<size_t>(next_to_activate_)].size());
    slot.batch = next_to_activate_;
    slot.graphs.clear();
    slot.graphs.resize(static_cast<size_t>(batch_size));
    slot.next_item = 0;
    slot.remaining = batch_size;
    slot.ready = batch_size == 0;
    ++next_to_activate_;
  }
}

void PrefetchReader::BeginEpoch(const std::vector<std::vector<int>>& batches) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    GRADGCL_CHECK_MSG(next_to_consume_ == static_cast<int64_t>(plan_.size()),
                      "BeginEpoch before the previous epoch was consumed");
    for (const std::vector<int>& batch : batches) {
      for (const int idx : batch) {
        GRADGCL_CHECK(idx >= 0 &&
                      static_cast<int64_t>(idx) < dataset_.num_graphs());
      }
    }
    plan_ = batches;
    next_to_activate_ = 0;
    next_to_consume_ = 0;
    ActivateLocked();
  }
  work_cv_.notify_all();
}

bool PrefetchReader::NextBatch(std::vector<Graph>* graphs) {
  GRADGCL_CHECK(graphs != nullptr);
  std::unique_lock<std::mutex> lock(mu_);
  if (next_to_consume_ >= static_cast<int64_t>(plan_.size())) return false;
  Slot& slot = slots_[static_cast<size_t>(next_to_consume_ % depth_)];
  ready_cv_.wait(lock, [&] {
    return failed_ || shutdown_ ||
           (slot.batch == next_to_consume_ && slot.ready);
  });
  if (failed_ || shutdown_) return false;
  graphs->swap(slot.graphs);
  slot.graphs.clear();
  slot.batch = -1;
  slot.ready = false;
  ++next_to_consume_;
  ActivateLocked();
  work_cv_.notify_all();
  return true;
}

int64_t PrefetchReader::graphs_read() const {
  std::lock_guard<std::mutex> lock(mu_);
  return graphs_read_;
}

void PrefetchReader::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // Claim the lowest-numbered in-flight batch with unclaimed items —
    // filling in plan order keeps the consumer's next batch the
    // hottest one.
    Slot* claim = nullptr;
    if (!failed_) {
      for (Slot& slot : slots_) {
        if (slot.batch >= 0 &&
            slot.next_item <
                static_cast<int>(plan_[static_cast<size_t>(slot.batch)].size()) &&
            (claim == nullptr || slot.batch < claim->batch)) {
          claim = &slot;
        }
      }
    }
    if (claim == nullptr) {
      if (shutdown_) return;
      work_cv_.wait(lock);
      continue;
    }
    const int item = claim->next_item++;
    const int64_t graph_id =
        plan_[static_cast<size_t>(claim->batch)][static_cast<size_t>(item)];
    lock.unlock();
    // Decode outside the lock. The slot cannot be recycled while its
    // `remaining` holds our unfinished item, and distinct items write
    // distinct vector elements, so the unlocked write below is safe;
    // the mutex round-trip publishes it to the consumer.
    Graph g;
    const bool ok = dataset_.ReadGraph(graph_id, &g);
    if (ok) claim->graphs[static_cast<size_t>(item)] = std::move(g);
    lock.lock();
    if (!ok) failed_ = true;
    ++graphs_read_;
    if (--claim->remaining == 0) {
      claim->ready = true;
      ready_cv_.notify_all();
    }
    if (failed_) ready_cv_.notify_all();
  }
}

}  // namespace gradgcl::data
