#include "common/parallel.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace gradgcl {

namespace {

// Set while a thread (worker or caller) executes items of a region.
thread_local bool tls_in_region = false;

int HardwareThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

// GRADGCL_NUM_THREADS, or the hardware default when unset/invalid.
int EnvNumThreads() {
  const char* env = std::getenv("GRADGCL_NUM_THREADS");
  if (env != nullptr) {
    const int parsed = std::atoi(env);
    if (parsed >= 1) return parsed;
  }
  return HardwareThreads();
}

// GRADGCL_SPIN_US, or the hardware-aware default: ~100us of spinning
// buys cheap handoff between back-to-back regions on a real multicore,
// but on a single hardware thread a spinning worker only preempts the
// thread doing the work, so park immediately there.
int EnvSpinMicros() {
  const char* env = std::getenv("GRADGCL_SPIN_US");
  if (env != nullptr) {
    const int parsed = std::atoi(env);
    if (parsed >= 0) return parsed;
  }
  return HardwareThreads() > 1 ? 100 : 0;
}

// GRADGCL_PARALLEL_MIN_COST, or the calibrated default: below ~2^23
// estimated FLOPs (a 128x128x128 matmul is 4.2M) the persistent-worker
// handoff plus cache migration still beats any measured gain, so the
// cost model keeps such regions serial. On a single hardware thread
// fan-out can never speed anything up, so the bar rises to 2^27 —
// large enough that the wake overhead disappears into the region (and
// the 2-D GEMM tiling still engages, which pays for itself in cache
// locality alone).
int64_t EnvMinParallelCost() {
  const char* env = std::getenv("GRADGCL_PARALLEL_MIN_COST");
  if (env != nullptr) {
    const long long parsed = std::atoll(env);
    if (parsed >= 0) return static_cast<int64_t>(parsed);
  }
  return HardwareThreads() > 1 ? int64_t{1} << 23 : int64_t{1} << 27;
}

// Polite spin: keeps the core's pipeline from hammering the ticket line.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  asm volatile("pause" ::: "memory");
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::this_thread::yield();
#endif
}

// Dispatched-region counters (registered once, bumped only when the
// metrics gate is open — one relaxed atomic load otherwise).
struct ParallelCounters {
  obs::Counter regions;   // regions that fanned out to the pool
  obs::Counter inlined;   // regions the cost model kept serial
  obs::Counter items;     // work items dispatched across all regions
  obs::Counter steals;    // items executed by a pool worker (not the caller)
  obs::Counter parks;     // worker park events (spin window expired)
  static ParallelCounters& Instance() {
    static ParallelCounters* c = new ParallelCounters{
        obs::MetricsRegistry::Instance().GetCounter("parallel/regions"),
        obs::MetricsRegistry::Instance().GetCounter("parallel/inlined_cost"),
        obs::MetricsRegistry::Instance().GetCounter("parallel/items"),
        obs::MetricsRegistry::Instance().GetCounter("parallel/steals"),
        obs::MetricsRegistry::Instance().GetCounter("parallel/parks"),
    };
    return *c;
  }
};

// One parallel region, published to the workers as plain data. Items
// are claimed off the ticket word (below), so workers only read these
// fields between a successful claim and the matching items_done_
// increment — a window during which the caller is provably blocked.
struct Region {
  // 1-D: item i covers [begin + i * chunk, min(end, begin + (i+1) * chunk)).
  int64_t begin = 0;
  int64_t end = 0;
  int64_t chunk = 0;
  // 2-D: item i is tile (i / col_tiles, i % col_tiles) of a
  // row_tiles x col_tiles grid with tile_rows x tile_cols tiles (last
  // tile of each axis ragged).
  int64_t rows = 0;
  int64_t cols = 0;
  int64_t col_tiles = 0;
  int64_t tile_rows = 0;
  int64_t tile_cols = 0;
  bool two_d = false;
  internal::RangeFn fn1 = nullptr;
  internal::TileFn fn2 = nullptr;
  void* ctx = nullptr;
  uint32_t nitems = 0;
};

// The ticket word: epoch in the high 48 bits, items *remaining* in the
// low 16. Publishing a region stores (epoch+1) << 16 | nitems; claiming
// an item CASes the low bits down by one, which atomically validates
// the epoch — a stale worker can never claim (or mis-account) an item
// of a region it did not see published. 16 bits bound nitems (the item
// cap below); 48 epoch bits outlast any realistic process.
constexpr uint64_t kItemBits = 16;
constexpr uint64_t kItemMask = (uint64_t{1} << kItemBits) - 1;
constexpr uint32_t kMaxItems = 4096;  // well under kItemMask

// Load-balance target: a few items per thread so a straggling worker
// never holds the region hostage, without claim-traffic on every row.
constexpr int kItemsPerThread = 4;

// Process-wide pool: `num_threads - 1` persistent workers plus the
// calling thread. One region runs at a time (run_mutex_); nested calls
// never reach the pool because ParallelFor executes them inline
// (tls_in_region).
class ThreadPool {
 public:
  static ThreadPool& Instance() {
    static ThreadPool* pool = new ThreadPool();  // leaked: joined threads
    return *pool;                                // must outlive exit races
  }

  int num_threads() {
    std::lock_guard<std::mutex> config(config_mutex_);
    EnsureStartedLocked();
    return num_threads_;
  }

  // Fast path for ShouldParallelize: avoids the config mutex once the
  // pool is running.
  int cached_num_threads() {
    const int n = cached_threads_.load(std::memory_order_relaxed);
    return n > 0 ? n : num_threads();
  }

  void Resize(int n) {
    GRADGCL_CHECK_MSG(!tls_in_region,
                      "SetNumThreads called inside a parallel region");
    std::lock_guard<std::mutex> config(config_mutex_);
    // Drain any in-flight region before joining its workers.
    std::lock_guard<std::mutex> run(run_mutex_);
    StopLocked();
    num_threads_ = n >= 1 ? n : HardwareThreads();
    StartLocked();
  }

  void Run(Region region) {
    {
      std::lock_guard<std::mutex> config(config_mutex_);
      EnsureStartedLocked();
    }
    std::lock_guard<std::mutex> run(run_mutex_);
    if (region.nitems <= 1 ||
        cached_threads_.load(std::memory_order_relaxed) <= 1) {
      tls_in_region = true;
      RunWholeRegion(region);
      tls_in_region = false;
      return;
    }
    const uint32_t nitems = region.nitems;
    region_ = region;
    items_done_.store(0, std::memory_order_relaxed);
    // Publish: region fields above happen-before this release store of
    // the bumped epoch + fresh item count.
    const uint64_t epoch =
        (ticket_.load(std::memory_order_relaxed) >> kItemBits) + 1;
    ticket_.store(epoch << kItemBits | nitems, std::memory_order_seq_cst);
    // Wake parked workers. seq_cst pairs with the parking protocol: a
    // worker either sees the new ticket in its predicate or has already
    // registered in num_parked_ and receives the notify.
    if (num_parked_.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard<std::mutex> lock(park_mutex_);
      park_cv_.notify_all();
    }
    // The caller works too; nested ParallelFor inside fn runs inline.
    tls_in_region = true;
    ExecuteItems(epoch, /*is_worker=*/false);
    tls_in_region = false;
    AwaitRegionDone(nitems);
  }

  int spin_micros() const { return spin_us_.load(std::memory_order_relaxed); }
  void set_spin_micros(int us) {
    spin_us_.store(us < 0 ? 0 : us, std::memory_order_relaxed);
  }

  int64_t min_parallel_cost() const {
    return min_cost_.load(std::memory_order_relaxed);
  }
  void set_min_parallel_cost(int64_t cost) {
    min_cost_.store(cost < 0 ? 0 : cost, std::memory_order_relaxed);
  }

 private:
  ThreadPool()
      : spin_us_(EnvSpinMicros()), min_cost_(EnvMinParallelCost()) {}

  void EnsureStartedLocked() {
    if (cached_threads_.load(std::memory_order_relaxed) > 0) return;
    num_threads_ = EnvNumThreads();
    StartLocked();
  }

  void StartLocked() {
    workers_.reserve(num_threads_ - 1);
    for (int i = 0; i < num_threads_ - 1; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
    cached_threads_.store(num_threads_, std::memory_order_relaxed);
  }

  void StopLocked() {
    shutdown_.store(true, std::memory_order_seq_cst);
    {
      std::lock_guard<std::mutex> lock(park_mutex_);
      park_cv_.notify_all();
    }
    for (std::thread& worker : workers_) worker.join();
    workers_.clear();
    shutdown_.store(false, std::memory_order_relaxed);
  }

  // Runs every item of `region` on the calling thread (single-thread
  // pools and single-item regions skip the ticket entirely).
  void RunWholeRegion(const Region& region) {
    for (uint32_t i = 0; i < region.nitems; ++i) RunItem(region, i);
  }

  // Maps item id -> subrange / tile and invokes the region function.
  static void RunItem(const Region& region, uint32_t item) {
    if (!region.two_d) {
      const int64_t b = region.begin + static_cast<int64_t>(item) * region.chunk;
      int64_t e = b + region.chunk;
      if (e > region.end) e = region.end;
      region.fn1(region.ctx, b, e);
      return;
    }
    const int64_t rt = item / region.col_tiles;
    const int64_t ct = item % region.col_tiles;
    const int64_t r0 = rt * region.tile_rows;
    int64_t r1 = r0 + region.tile_rows;
    if (r1 > region.rows) r1 = region.rows;
    const int64_t c0 = ct * region.tile_cols;
    int64_t c1 = c0 + region.tile_cols;
    if (c1 > region.cols) c1 = region.cols;
    region.fn2(region.ctx, r0, r1, c0, c1);
  }

  // Claims and executes items of `epoch` until none remain. Claiming
  // CASes the ticket's low bits down, which validates the epoch in the
  // same atomic step; item ids run nitems-1 .. 0 (ids only select a
  // precomputed static chunk, so claim order never affects results).
  // Region fields are read only while holding an unfinished claim —
  // the caller cannot republish region_ until items_done_ reaches
  // nitems, and our claimed item is not yet counted.
  void ExecuteItems(uint64_t epoch, bool is_worker) {
    uint32_t executed = 0;
    uint64_t t = ticket_.load(std::memory_order_acquire);
    for (;;) {
      if ((t >> kItemBits) != epoch || (t & kItemMask) == 0) break;
      if (!ticket_.compare_exchange_weak(t, t - 1, std::memory_order_acq_rel,
                                         std::memory_order_acquire)) {
        continue;  // t reloaded by the failed CAS
      }
      const uint32_t item = static_cast<uint32_t>(t & kItemMask) - 1;
      RunItem(region_, item);
      ++executed;
      const uint32_t nitems = region_.nitems;
      if (items_done_.fetch_add(1, std::memory_order_acq_rel) + 1 == nitems) {
        // Last item: release a caller parked in AwaitRegionDone. The
        // lock orders this notify against the caller's predicate check.
        std::lock_guard<std::mutex> lock(done_mutex_);
        done_cv_.notify_one();
      }
      t = ticket_.load(std::memory_order_acquire);
    }
    if (is_worker && executed > 0 && obs::MetricsEnabled()) {
      ParallelCounters::Instance().steals.Add(executed);
    }
  }

  // Caller-side completion wait: spin through the window, then park.
  void AwaitRegionDone(uint32_t nitems) {
    if (items_done_.load(std::memory_order_acquire) >= nitems) return;
    const int spin_us = spin_micros();
    if (spin_us > 0) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(spin_us);
      for (;;) {
        for (int i = 0; i < 64; ++i) {
          if (items_done_.load(std::memory_order_acquire) >= nitems) return;
          CpuRelax();
        }
        if (std::chrono::steady_clock::now() >= deadline) break;
      }
    }
    std::unique_lock<std::mutex> lock(done_mutex_);
    done_cv_.wait(lock, [&] {
      return items_done_.load(std::memory_order_acquire) >= nitems;
    });
  }

  void WorkerLoop() {
    tls_in_region = true;  // workers always run nested regions inline
    uint64_t seen_epoch = ~uint64_t{0};
    for (;;) {
      if (shutdown_.load(std::memory_order_relaxed)) return;
      const uint64_t epoch =
          ticket_.load(std::memory_order_acquire) >> kItemBits;
      if (epoch != seen_epoch) {
        seen_epoch = epoch;
        ExecuteItems(epoch, /*is_worker=*/true);
        continue;
      }
      if (!SpinForWork(seen_epoch)) Park(seen_epoch);
    }
  }

  // Spins through the window watching for a new epoch or shutdown.
  // Returns true when there is (possibly) fresh work, false to park.
  bool SpinForWork(uint64_t seen_epoch) {
    const int spin_us = spin_micros();
    if (spin_us <= 0) return false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(spin_us);
    for (;;) {
      for (int i = 0; i < 64; ++i) {
        if (shutdown_.load(std::memory_order_relaxed)) return true;
        if ((ticket_.load(std::memory_order_acquire) >> kItemBits) !=
            seen_epoch) {
          return true;
        }
        CpuRelax();
      }
      if (std::chrono::steady_clock::now() >= deadline) return false;
    }
  }

  // Condvar park. The seq_cst fetch_add on num_parked_ pairs with the
  // publisher's seq_cst ticket store + num_parked_ load: either the
  // publisher sees us registered and notifies under the mutex, or our
  // predicate (checked under the same mutex) sees the new ticket.
  void Park(uint64_t seen_epoch) {
    if (obs::MetricsEnabled()) ParallelCounters::Instance().parks.Add(1);
    std::unique_lock<std::mutex> lock(park_mutex_);
    num_parked_.fetch_add(1, std::memory_order_seq_cst);
    park_cv_.wait(lock, [&] {
      return shutdown_.load(std::memory_order_relaxed) ||
             (ticket_.load(std::memory_order_seq_cst) >> kItemBits) !=
                 seen_epoch;
    });
    num_parked_.fetch_sub(1, std::memory_order_relaxed);
  }

  std::mutex config_mutex_;  // guards pool start/resize
  std::mutex run_mutex_;     // serializes top-level regions
  int num_threads_ = 0;
  std::atomic<int> cached_threads_{0};
  std::atomic<int> spin_us_;
  std::atomic<int64_t> min_cost_;
  std::vector<std::thread> workers_;

  Region region_;  // current region; see Region for the access protocol
  std::atomic<uint64_t> ticket_{0};
  std::atomic<uint32_t> items_done_{0};
  std::atomic<bool> shutdown_{false};

  std::atomic<int> num_parked_{0};
  std::mutex park_mutex_;
  std::condition_variable park_cv_;
  std::mutex done_mutex_;
  std::condition_variable done_cv_;
};

// Chunks [0, range) into at most `threads * kItemsPerThread` items of
// at least `grain` iterations. Pure function of its arguments; the
// determinism contract only needs every item to be a contiguous
// subrange executed whole.
uint32_t PlanChunks(int64_t range, int64_t grain, int threads,
                    int64_t* chunk_out) {
  if (grain < 1) grain = 1;
  const int64_t max_items = (range + grain - 1) / grain;
  int64_t target = static_cast<int64_t>(threads) * kItemsPerThread;
  if (target > max_items) target = max_items;
  if (target > kMaxItems) target = kMaxItems;
  if (target < 1) target = 1;
  const int64_t chunk = (range + target - 1) / target;
  *chunk_out = chunk;
  return static_cast<uint32_t>((range + chunk - 1) / chunk);
}

}  // namespace

int NumThreads() { return ThreadPool::Instance().num_threads(); }

void SetNumThreads(int n) { ThreadPool::Instance().Resize(n); }

bool InParallelRegion() { return tls_in_region; }

InlineRegionScope::InlineRegionScope(bool active) : prev_(tls_in_region) {
  if (active) tls_in_region = true;
}

InlineRegionScope::~InlineRegionScope() { tls_in_region = prev_; }

int SpinMicros() { return ThreadPool::Instance().spin_micros(); }

void SetSpinMicros(int us) { ThreadPool::Instance().set_spin_micros(us); }

namespace internal {

int64_t MinParallelCost() {
  return ThreadPool::Instance().min_parallel_cost();
}

void SetMinParallelCost(int64_t cost) {
  ThreadPool::Instance().set_min_parallel_cost(cost);
}

bool ShouldParallelize(int64_t range, int64_t grain, int64_t total_cost) {
  if (tls_in_region || range <= (grain < 1 ? 1 : grain)) return false;
  if (total_cost >= 0 &&
      total_cost < ThreadPool::Instance().min_parallel_cost()) {
    if (obs::MetricsEnabled()) ParallelCounters::Instance().inlined.Add(1);
    return false;
  }
  return ThreadPool::Instance().cached_num_threads() > 1;
}

bool ShouldParallelize2D(int64_t rows, int64_t cols, int64_t row_grain,
                         int64_t col_grain, int64_t total_cost) {
  if (tls_in_region) return false;
  if (rows <= (row_grain < 1 ? 1 : row_grain) &&
      cols <= (col_grain < 1 ? 1 : col_grain)) {
    return false;
  }
  if (total_cost >= 0 &&
      total_cost < ThreadPool::Instance().min_parallel_cost()) {
    if (obs::MetricsEnabled()) ParallelCounters::Instance().inlined.Add(1);
    return false;
  }
  return ThreadPool::Instance().cached_num_threads() > 1;
}

void ParallelForImpl(int64_t begin, int64_t end, int64_t grain, RangeFn fn,
                     void* ctx) {
  ThreadPool& pool = ThreadPool::Instance();
  Region region;
  region.begin = begin;
  region.end = end;
  region.fn1 = fn;
  region.ctx = ctx;
  region.nitems =
      PlanChunks(end - begin, grain, pool.cached_num_threads(), &region.chunk);
  if (obs::MetricsEnabled()) {
    ParallelCounters& counters = ParallelCounters::Instance();
    counters.regions.Add(1);
    counters.items.Add(region.nitems);
  }
  obs::TraceScope span("parallel/region");
  pool.Run(region);
}

void ParallelFor2DImpl(int64_t rows, int64_t cols, int64_t row_grain,
                       int64_t col_grain, TileFn fn, void* ctx) {
  ThreadPool& pool = ThreadPool::Instance();
  if (row_grain < 1) row_grain = 1;
  if (col_grain < 1) col_grain = 1;
  const int threads = pool.cached_num_threads();
  const int64_t target = static_cast<int64_t>(threads) * kItemsPerThread;
  // Grow the tile grid one split at a time, always splitting the axis
  // whose tiles are currently largest relative to its grain — rows
  // first for tall outputs (cheapest: B-panel packing is shared down a
  // column strip), columns once row tiles approach the grain. Pure
  // function of (shape, grains, threads); tile boundaries never affect
  // bits because each output element lives entirely inside one tile.
  int64_t row_tiles = 1, col_tiles = 1;
  while (row_tiles * col_tiles < target &&
         row_tiles * col_tiles < kMaxItems) {
    const bool can_r = rows / (row_tiles + 1) >= row_grain;
    const bool can_c = cols / (col_tiles + 1) >= col_grain;
    if (!can_r && !can_c) break;
    const double r_ratio =
        static_cast<double>(rows) / (row_tiles + 1) / row_grain;
    const double c_ratio =
        static_cast<double>(cols) / (col_tiles + 1) / col_grain;
    if (can_r && (!can_c || r_ratio >= c_ratio)) {
      ++row_tiles;
    } else {
      ++col_tiles;
    }
  }
  Region region;
  region.two_d = true;
  region.rows = rows;
  region.cols = cols;
  region.col_tiles = col_tiles;
  region.tile_rows = (rows + row_tiles - 1) / row_tiles;
  region.tile_cols = (cols + col_tiles - 1) / col_tiles;
  // Ceil-divide tile sizes can cover the axis in fewer tiles than
  // planned; recompute the actual grid so no empty items exist.
  const int64_t actual_rt = (rows + region.tile_rows - 1) / region.tile_rows;
  const int64_t actual_ct = (cols + region.tile_cols - 1) / region.tile_cols;
  region.col_tiles = actual_ct;
  region.fn2 = fn;
  region.ctx = ctx;
  region.nitems = static_cast<uint32_t>(actual_rt * actual_ct);
  if (obs::MetricsEnabled()) {
    ParallelCounters& counters = ParallelCounters::Instance();
    counters.regions.Add(1);
    counters.items.Add(region.nitems);
  }
  obs::TraceScope span("parallel/region");
  pool.Run(region);
}

}  // namespace internal

}  // namespace gradgcl
