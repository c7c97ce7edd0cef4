// ShardedIngress: the sharded, dynamically micro-batching request
// ingress behind serve::EmbeddingEngine and retrieval::RetrievalEngine
// (DESIGN.md §8 "Serving model"). The ingress owns queueing, batching,
// workers, completion and shutdown; an engine supplies only the batch
// executor. Requests count in abstract work units (graphs, query rows)
// and carry an opaque batch key: only requests with equal keys share a
// batch (serve keys on the model handle, so a model change ends a
// batch; retrieval uses one constant key).
//
//  * Sharded ingress: the queue is split into num_shards independent
//    (mutex + deque) shards. A submitter picks a shard by thread-local
//    round-robin (no shared submit lock), overflowing to the next
//    shard when its slice of the admission budget is full — the single
//    lock-guarded queue this replaces serialized every submission and
//    every batch launch on one mutex and flat-lined at ~183k rps past
//    4 clients.
//  * A batch launches as soon as max_batch_units units are pending in
//    a shard, or when that shard's OLDEST pending request has waited
//    max_wait_micros — the size-or-deadline contract, enforced per
//    shard. Requests are never split across batches; a request larger
//    than max_batch_units runs as its own batch. When a batch launches
//    short of max_batch_units, the worker tops it up with pending
//    same-key requests from other shards (one sweep) — launching a
//    request early never violates its deadline, and cross-shard
//    gathering keeps batch sizes (and therefore 1-core amortization)
//    identical to the single-queue engine.
//  * Work stealing: each worker is homed on shard (worker_index %
//    num_shards) and parks on that shard's condition variable. An
//    idle worker scans the other shards and drains the one whose
//    oldest request is most overdue — but only once that shard's batch
//    is actually due (full, deadline expired, or max_wait_micros ==
//    0), so stealing never launches a filling batch early. Shards
//    with no home worker (num_shards > num_workers) are served by the
//    steal path, woken by the cross-shard wake protocol in Submit().
//  * Admission control: max_queue_units is partitioned across shards
//    (shard i gets max_queue_units/num_shards, remainder to low
//    indices). A submission is rejected with kOverloaded only when NO
//    shard can take it, so total queued units never exceed
//    max_queue_units and the num_shards == 1 case preserves the
//    original single-queue semantics exactly. A request larger than
//    every per-shard slice is always rejected — size requests within
//    max_queue_units / num_shards.
//  * Completion is signaled per request (each request owns its own
//    mutex + condition variable): finishing a batch wakes exactly the
//    batch's owners, not every blocked client.
//  * Shutdown() stops admission (kShutdown), then either drains the
//    shards (default) or cancels pending requests with kShutdown
//    (cancel_pending_on_shutdown), and joins the workers. The
//    destructor calls Shutdown().
//
// Observability: every request/batch feeds <prefix>/requests,
// <prefix>/rejected, <prefix>/batches, <prefix>/<unit> and
// <prefix>/steals counters, per-shard <prefix>/queue_depth/shard<i>
// gauges, and the <prefix>/latency_us + <prefix>/batch_<unit>
// histograms; each batch executes under a "<prefix>/batch" trace span.

#ifndef GRADGCL_COMMON_SHARDED_INGRESS_H_
#define GRADGCL_COMMON_SHARDED_INGRESS_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gradgcl {

// How a submitted request left the ingress.
enum class IngressStatus {
  kOk = 0,      // executed; the executor filled the request's result
  kOverloaded,  // admission control rejected the request
  kShutdown,    // ingress stopped (at submit, or cancelled while queued)
};

// Ingress bookkeeping every request carries: engines derive their
// request type from it and add payload and result fields. A request
// lives in its submitter's frame until Submit() returns.
struct IngressRequest {
  // Work units this request adds to a batch (graphs, query rows; >= 1).
  int units = 0;
  // Only requests with equal keys share a batch.
  const void* batch_key = nullptr;
  std::chrono::steady_clock::time_point arrival;  // stamped by Submit
  IngressStatus status = IngressStatus::kOk;
  std::mutex done_mu;
  std::condition_variable done_cv;
  bool done = false;
};

struct IngressConfig {
  // Worker threads; 0 = callers pump with RunOneBatch().
  int num_workers = 1;
  // 0 = auto: GRADGCL_SERVE_SHARDS when set, else one per worker.
  int num_shards = 0;
  int max_batch_units = 1;
  double max_wait_micros = 0.0;
  int max_queue_units = 1;
  bool cancel_pending_on_shutdown = false;
  // Metric namespace ("serve") and work-unit name ("graphs").
  std::string metric_prefix;
  std::string unit;
};

template <typename Request>
class ShardedIngress {
  static_assert(std::is_base_of_v<IngressRequest, Request>,
                "ShardedIngress requests derive from IngressRequest");

 public:
  // Fills the result fields of every request in a batch; completion
  // signaling and batch metrics are the ingress's job.
  using Executor = std::function<void(const std::vector<Request*>&)>;

  // Starts the workers, which may call `execute` at once.
  ShardedIngress(const IngressConfig& config, Executor execute)
      : config_(config),
        execute_(std::move(execute)),
        wait_dur_(MicrosDuration(config.max_wait_micros)),
        // Idle workers rescan for stealable work at this interval; tied
        // to the batching deadline (but bounded) so workerless shards
        // are drained within a small multiple of their deadline.
        steal_poll_(MicrosDuration(
            std::clamp(config.max_wait_micros, 200.0, 2000.0))),
        batch_span_(obs::InternName(config.metric_prefix + "/batch")),
        requests_total_(Metrics().GetCounter(Name("requests"))),
        rejected_total_(Metrics().GetCounter(Name("rejected"))),
        batches_total_(Metrics().GetCounter(Name("batches"))),
        units_total_(Metrics().GetCounter(Name(config.unit))),
        steals_total_(Metrics().GetCounter(Name("steals"))),
        latency_us_(
            Metrics().GetHistogram(Name("latency_us"), LatencyEdgesUs())),
        batch_units_(Metrics().GetHistogram(Name("batch_" + config.unit),
                                            BatchSizeEdges())) {
    GRADGCL_CHECK(config_.num_workers >= 0);
    GRADGCL_CHECK(config_.num_shards >= 0);
    GRADGCL_CHECK(config_.max_batch_units >= 1);
    GRADGCL_CHECK(config_.max_queue_units >= 1);
    GRADGCL_CHECK(config_.max_wait_micros >= 0.0);
    const int num_shards = ResolveNumShards(config_);
    shards_.reserve(num_shards);
    for (int i = 0; i < num_shards; ++i) {
      auto shard = std::make_unique<Shard>();
      // Partition the admission budget exactly: floor share plus one of
      // the remainder slots, so the shard capacities sum to
      // max_queue_units and num_shards == 1 keeps the legacy bound.
      shard->capacity = config_.max_queue_units / num_shards +
                        (i < config_.max_queue_units % num_shards ? 1 : 0);
      shard->depth_gauge =
          Metrics().GetGauge(Name("queue_depth/shard" + std::to_string(i)));
      shard->depth_gauge.Set(0.0);
      shards_.push_back(std::move(shard));
    }
    workers_.reserve(config_.num_workers);
    for (int i = 0; i < config_.num_workers; ++i) {
      workers_.emplace_back([this, i] { WorkerLoop(i % this->num_shards()); });
    }
  }

  ~ShardedIngress() { Shutdown(); }

  ShardedIngress(const ShardedIngress&) = delete;
  ShardedIngress& operator=(const ShardedIngress&) = delete;

  // Queues `r` (units and batch_key set by the caller) and blocks until
  // a batch executed it or shutdown cancelled it; admission failures
  // return at once. Not callable from the ingress's own workers.
  IngressStatus Submit(Request* r) {
    r->arrival = Clock::now();
    const int n = r->units;
    const int num_shards = this->num_shards();
    // Thread-local round-robin shard pick: submitters spread across
    // shards without any shared state beyond the one-time seed.
    static std::atomic<uint32_t> submitter_seq{0};
    thread_local uint32_t tls_cursor =
        submitter_seq.fetch_add(1, std::memory_order_relaxed);
    const uint32_t start = tls_cursor++;
    int queued_shard = -1;
    for (int k = 0; k < num_shards && queued_shard < 0; ++k) {
      const int index = static_cast<int>((start + k) % num_shards);
      Shard& s = *shards_[index];
      std::lock_guard<std::mutex> lock(s.mu);
      // Checked under the shard lock: Shutdown() sweeps each shard after
      // setting stopping_, so a submit that saw stopping_ == false here
      // is ordered before the sweep and will be drained/cancelled by it.
      if (stopping_.load(std::memory_order_acquire)) {
        rejected_total_.Add(1);
        return IngressStatus::kShutdown;
      }
      if (s.queued_units + n > s.capacity) continue;  // overflow to next
      s.queue.push_back(r);
      s.queued_units += n;
      s.depth.store(s.queued_units, std::memory_order_relaxed);
      s.depth_gauge.Set(s.queued_units);
      s.work_cv.notify_one();
      queued_shard = index;
    }
    if (queued_shard < 0) {
      // Every shard's slice is full: explicit backpressure.
      rejected_total_.Add(1);
      return IngressStatus::kOverloaded;
    }
    // Workers park only on shards 0..num_workers-1 (their home shards),
    // so a submission to a workerless shard must wake the worker that
    // covers it — worker (shard % num_workers), parked on the shard of
    // the same index — or it sits until the next steal poll. The epoch
    // bump plus the empty lock/unlock of the wake shard's mutex closes
    // the race against a worker that already scanned and is about to
    // park (it re-checks the epoch under its home lock before waiting).
    if (config_.num_workers > 0 && queued_shard >= config_.num_workers) {
      work_epoch_.fetch_add(1, std::memory_order_seq_cst);
      Shard& wake = *shards_[queued_shard % config_.num_workers];
      // seq_cst pairing with the worker's park protocol (increment
      // parked, then re-check the epoch): either our bump lands before
      // the worker's re-check (it rescans instead of parking), or the
      // worker's parked increment is visible here and we wake it. The
      // empty lock/unlock serializes the notify against a worker that
      // incremented parked but has not yet released the mutex in wait().
      // The wake_pending latch dedupes a stampede of cross-shard
      // submitters down to one notify; a stale latch is wiped by the
      // worker at park entry, after which the epoch re-check (ordered
      // seq_cst after the wipe) observes our bump.
      if (wake.parked.load(std::memory_order_seq_cst) > 0 &&
          !wake.wake_pending.exchange(true, std::memory_order_seq_cst)) {
        { std::lock_guard<std::mutex> wake_lock(wake.mu); }
        wake.work_cv.notify_one();
      }
    }
    {
      std::unique_lock<std::mutex> lock(r->done_mu);
      r->done_cv.wait(lock, [&] { return r->done; });
    }
    latency_us_.Observe(std::chrono::duration<double, std::micro>(
                            Clock::now() - r->arrival)
                            .count());
    requests_total_.Add(1);
    return r->status;
  }

  // Counts a request its engine refused before submitting it.
  void CountRejected() { rejected_total_.Add(1); }

  // Stops admission, drains or cancels the shards per the config, and
  // joins the workers. Idempotent; later Submit() calls get kShutdown.
  void Shutdown() {
    stopping_.store(true, std::memory_order_release);
    // Lock-then-notify per shard so a worker between its stopping_ check
    // and its wait cannot miss the wakeup.
    for (const std::unique_ptr<Shard>& s : shards_) {
      { std::lock_guard<std::mutex> lock(s->mu); }
      s->work_cv.notify_all();
    }
    for (std::thread& w : workers_) w.join();
    workers_.clear();
    // Settle anything still queued: workers already drained (or
    // cancelled) their home shards; this covers num_workers == 0,
    // workerless shards, and stragglers that were admitted before
    // stopping_ landed. Both loops are no-ops on empty shards, so
    // repeated Shutdown() calls are harmless.
    if (config_.cancel_pending_on_shutdown) {
      for (const std::unique_ptr<Shard>& s : shards_) {
        std::lock_guard<std::mutex> lock(s->mu);
        CancelShardLocked(*s);
      }
    } else {
      while (RunOneBatch()) {
      }
    }
  }

  // Pops and executes one pending batch inline on the calling thread
  // (oldest-arrival shard first, with cross-shard top-up), ignoring
  // the size/deadline launch policy. False when every shard is empty.
  bool RunOneBatch() { return DrainOldestShard(/*due_only=*/false, -1); }

  // Pending units queued across all shards (diagnostics; racy).
  int QueueDepth() const {
    int depth = 0;
    for (const std::unique_ptr<Shard>& s : shards_) {
      std::lock_guard<std::mutex> lock(s->mu);
      depth += s->queued_units;
    }
    return depth;
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }

 private:
  using Clock = std::chrono::steady_clock;

  // One ingress shard: an independent slice of the queue + admission
  // budget with its own lock, so submitters and workers on different
  // shards never contend.
  struct Shard {
    mutable std::mutex mu;
    std::condition_variable work_cv;  // workers homed here
    std::deque<Request*> queue;
    int queued_units = 0;  // authoritative, guarded by mu
    int capacity = 0;      // this shard's slice of max_queue_units
    // Lock-free mirror of queued_units so steal scans skip empty
    // shards without taking their locks.
    std::atomic<int> depth{0};
    // Home workers currently blocked on work_cv (seq_cst, paired with
    // work_epoch_): submitters skip the wake lock + notify entirely
    // while the worker is busy executing — it will rescan before it
    // parks.
    std::atomic<int> parked{0};
    // Collapses concurrent cross-shard wakeups into one notify (one
    // futex syscall instead of one per submitter): the first submitter
    // to latch it notifies, the rest skip. The home worker clears it
    // at every park entry, under its home lock.
    std::atomic<bool> wake_pending{false};
    obs::Gauge depth_gauge;
  };

  static obs::MetricsRegistry& Metrics() {
    return obs::MetricsRegistry::Instance();
  }

  std::string Name(const std::string& suffix) const {
    return config_.metric_prefix + "/" + suffix;
  }

  static Clock::duration MicrosDuration(double micros) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::micro>(micros));
  }

  // Shard count when num_shards == 0: GRADGCL_SERVE_SHARDS when set to
  // a sane value, else one shard per worker — every shard then has a
  // home worker and the steal path is pure opportunism.
  static int ResolveNumShards(const IngressConfig& config) {
    if (config.num_shards > 0) return config.num_shards;
    if (const char* env = std::getenv("GRADGCL_SERVE_SHARDS")) {
      char* end = nullptr;
      const long v = std::strtol(env, &end, 10);
      if (end != env && *end == '\0' && v >= 1 && v <= 1024) {
        return static_cast<int>(v);
      }
    }
    return std::max(1, config.num_workers);
  }

  // Histogram edges are process-wide constants: re-registering the same
  // metric name requires identical edges, and every ingress instance in
  // a process shares these.
  static const std::vector<double>& LatencyEdgesUs() {
    static const std::vector<double>* edges = new std::vector<double>{
        10.0,     20.0,     50.0,     100.0,    200.0,    500.0,
        1000.0,   2000.0,   5000.0,   10000.0,  20000.0,  50000.0,
        100000.0, 200000.0, 500000.0, 1000000.0};
    return *edges;
  }

  static const std::vector<double>& BatchSizeEdges() {
    static const std::vector<double>* edges = new std::vector<double>{
        1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0};
    return *edges;
  }

  // True when `s` has a batch that should launch now: full, past the
  // oldest request's deadline, or launch-when-free (max_wait_micros ==
  // 0).
  bool LaunchDueLocked(const Shard& s, Clock::time_point now) const {
    if (s.queue.empty()) return false;
    if (s.queued_units >= config_.max_batch_units) return true;
    if (wait_dur_.count() == 0) return true;  // launch-when-free
    return now >= s.queue.front()->arrival + wait_dur_;
  }

  void WorkerLoop(int home_index) {
    Shard& home = *shards_[home_index];
    std::unique_lock<std::mutex> lock(home.mu);
    for (;;) {
      const bool stop = stopping_.load(std::memory_order_acquire);
      if (stop && config_.cancel_pending_on_shutdown) {
        CancelShardLocked(home);
        return;
      }
      if (!home.queue.empty() &&
          (stop || LaunchDueLocked(home, Clock::now()))) {
        int units = 0;
        std::vector<Request*> batch = PopBatchLocked(home, &units);
        lock.unlock();
        TopUpBatch(&batch, &units);
        RunBatch(batch, units);
        lock.lock();
        continue;
      }
      if (stop && home.queue.empty()) return;  // Shutdown() sweeps the rest
      // Home is empty or still filling toward its deadline: look for due
      // work on other shards before sleeping.
      const uint64_t epoch = work_epoch_.load(std::memory_order_acquire);
      lock.unlock();
      const bool stole = DrainOldestShard(/*due_only=*/true, home_index);
      lock.lock();
      if (stole) continue;
      if (stopping_.load(std::memory_order_acquire)) continue;
      // Park protocol: announce the park (parked++), THEN re-check the
      // epoch. A cross-shard submission between the steal scan above and
      // the waits below either bumped the epoch before our re-check (we
      // rescan instead of parking) or read parked > 0 after its bump and
      // will lock home.mu — which we hold until wait() releases it — and
      // notify us. seq_cst on both sides makes the case split airtight.
      home.wake_pending.store(false, std::memory_order_seq_cst);
      home.parked.fetch_add(1, std::memory_order_seq_cst);
      if (work_epoch_.load(std::memory_order_seq_cst) != epoch) {
        home.parked.fetch_sub(1, std::memory_order_relaxed);
        continue;
      }
      if (!home.queue.empty()) {
        // Work arrived while we were scanning: launch if it is already
        // due, else sleep until the home deadline (capped by the steal
        // poll so overdue work elsewhere is still picked up).
        if (LaunchDueLocked(home, Clock::now())) {
          home.parked.fetch_sub(1, std::memory_order_relaxed);
          continue;
        }
        const auto deadline = home.queue.front()->arrival + wait_dur_;
        home.work_cv.wait_until(lock,
                                std::min(deadline, Clock::now() + steal_poll_));
      } else {
        home.work_cv.wait_for(lock, steal_poll_);
      }
      home.parked.fetch_sub(1, std::memory_order_relaxed);
    }
  }

  // Moves the front run of requests sharing `key` off `s` into `batch`
  // while they fit under max_batch_units; an oversized request is taken
  // only into an empty batch (it then runs alone).
  void TakeFrontLocked(Shard& s, const void* key, std::vector<Request*>* batch,
                      int* units_in_batch) {
    int taken = 0;
    while (!s.queue.empty() && *units_in_batch < config_.max_batch_units) {
      Request* r = s.queue.front();
      // Whole same-key requests only; a key change ends the run (FIFO
      // preserved).
      if (r->batch_key != key) break;
      const int n = r->units;
      if (!batch->empty() && *units_in_batch + n > config_.max_batch_units) {
        break;
      }
      s.queue.pop_front();
      batch->push_back(r);
      *units_in_batch += n;
      taken += n;
    }
    if (taken > 0) {
      s.queued_units -= taken;
      s.depth.store(s.queued_units, std::memory_order_relaxed);
      s.depth_gauge.Set(s.queued_units);
    }
  }

  // Pops whole same-key requests up to max_batch_units (>= 1 request)
  // off the front of `s`.
  std::vector<Request*> PopBatchLocked(Shard& s, int* units_in_batch) {
    std::vector<Request*> batch;
    TakeFrontLocked(s, s.queue.front()->batch_key, &batch, units_in_batch);
    return batch;
  }

  // Fills a short batch with pending same-key requests from other
  // shards. Single sweep: from each non-empty shard in turn, pop the
  // front run of same-key requests that still fits — one lock per
  // shard, not one scan per gathered request. Launching these early
  // never violates their deadline (the batch is departing anyway), and
  // the gather restores the batch sizes a single shared queue would
  // have formed. Strict cross-shard arrival order is deliberately not
  // enforced: everything taken here departs in this same batch, so
  // ordering would buy nothing and cost O(shards) locks per request.
  void TopUpBatch(std::vector<Request*>* batch, int* units_in_batch) {
    if (num_shards() == 1) return;
    const void* const key = batch->front()->batch_key;
    for (int i = 0; i < num_shards(); ++i) {
      if (*units_in_batch >= config_.max_batch_units) return;
      Shard& s = *shards_[i];
      if (s.depth.load(std::memory_order_relaxed) == 0) continue;
      std::lock_guard<std::mutex> lock(s.mu);
      TakeFrontLocked(s, key, batch, units_in_batch);
    }
  }

  // Finds the shard whose oldest request arrived first — among due
  // shards only when `due_only` (a stealing worker, which never
  // launches a filling batch early) — and executes one topped-up batch
  // from it. True when a batch executed. A worker draining a shard
  // other than its `home` counts a steal.
  bool DrainOldestShard(bool due_only, int home) {
    // Pass 1: pick the shard with the oldest front arrival.
    const auto now = Clock::now();
    int best = -1;
    Clock::time_point best_arrival{};
    for (int i = 0; i < num_shards(); ++i) {
      Shard& s = *shards_[i];
      // Stealers skip empty shards lock-free; the manual pump locks
      // every shard so it never misses a request queued just before.
      if (due_only && s.depth.load(std::memory_order_relaxed) == 0) continue;
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.queue.empty()) continue;
      if (due_only && !stopping_.load(std::memory_order_relaxed) &&
          !LaunchDueLocked(s, now)) {
        continue;  // still filling toward its deadline: do not launch early
      }
      const Clock::time_point arrival = s.queue.front()->arrival;
      if (best < 0 || arrival < best_arrival) {
        best = i;
        best_arrival = arrival;
      }
    }
    if (best < 0) return false;
    // Pass 2: re-take the winner's lock and drain one batch (it may have
    // been drained by a racing worker in between — that is fine).
    int units = 0;
    std::vector<Request*> batch;
    {
      Shard& s = *shards_[best];
      std::lock_guard<std::mutex> lock(s.mu);
      if (s.queue.empty()) return false;
      batch = PopBatchLocked(s, &units);
    }
    if (due_only && best != home) steals_total_.Add(1);
    TopUpBatch(&batch, &units);
    RunBatch(batch, units);
    return true;
  }

  // Executes a popped batch, records its metrics, then signals each
  // owner individually.
  void RunBatch(const std::vector<Request*>& batch, int units) {
    obs::TraceScope span(batch_span_);
    execute_(batch);
    batches_total_.Add(1);
    units_total_.Add(static_cast<uint64_t>(units));
    batch_units_.Observe(static_cast<double>(units));
    for (Request* r : batch) SignalDone(r, IngressStatus::kOk);
  }

  void CancelShardLocked(Shard& s) {
    while (!s.queue.empty()) {
      Request* r = s.queue.front();
      s.queue.pop_front();
      SignalDone(r, IngressStatus::kShutdown);
    }
    s.queued_units = 0;
    s.depth.store(0, std::memory_order_relaxed);
    s.depth_gauge.Set(0.0);
  }

  static void SignalDone(Request* r, IngressStatus status) {
    // Per-request completion: only this request's owner wakes. Notifying
    // under the request's mutex is deliberate — the owner cannot return
    // from wait() (and destroy the request) before we release it.
    std::lock_guard<std::mutex> lock(r->done_mu);
    r->status = status;
    r->done = true;
    r->done_cv.notify_one();
  }

  const IngressConfig config_;
  const Executor execute_;
  const Clock::duration wait_dur_;    // max_wait_micros as a duration
  const Clock::duration steal_poll_;  // idle-worker rescan interval
  const char* const batch_span_;      // interned "<prefix>/batch"

  std::vector<std::unique_ptr<Shard>> shards_;
  // Bumped on every cross-shard wakeup (a submission to a shard with
  // no home worker). A worker re-checks it between its steal scan and
  // parking, so a submission landing in that window is never slept
  // through — without it, work on a workerless shard could wait a full
  // steal_poll_ interval.
  std::atomic<uint64_t> work_epoch_{0};
  std::atomic<bool> stopping_{false};

  obs::Counter requests_total_;
  obs::Counter rejected_total_;
  obs::Counter batches_total_;
  obs::Counter units_total_;
  obs::Counter steals_total_;
  obs::Histogram latency_us_;
  obs::Histogram batch_units_;
  // Last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace gradgcl

#endif  // GRADGCL_COMMON_SHARDED_INGRESS_H_
