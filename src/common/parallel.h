// Deterministic parallel-for substrate on persistent workers.
//
// A lazily-initialized, process-wide pool of persistent workers executes
// parallel regions published as plain structs: a range, a grain, and a
// non-owning function pointer + context — no std::function, no heap
// allocation anywhere on the dispatch path. Workers spin briefly on an
// atomic epoch ticket before parking on a condvar (GRADGCL_SPIN_US
// controls the window; 0 parks immediately), so back-to-back regions
// pay nanoseconds of handoff instead of a wake/sleep round trip per
// call. Work items are claimed dynamically off the ticket word and
// completion is a single atomic countdown — a worker that misses a
// region entirely is harmless, the caller just runs those items itself.
//
// Two region shapes:
//  * ParallelFor(begin, end, grain, [cost,] fn) invokes
//    fn(chunk_begin, chunk_end) over a static contiguous partition of
//    [begin, end); chunks hold at least `grain` iterations.
//  * ParallelFor2D(rows, cols, row_grain, col_grain, cost, fn) invokes
//    fn(r0, r1, c0, c1) over a static 2-D tile grid — the GEMM path,
//    where threading over (M-tile x N-tile) items beats raw row strips
//    once rows alone cannot feed every worker.
//
// Cost model: the overloads taking `cost_per_iter` (an estimate of the
// FLOPs — or comparable work units — per iteration / output element)
// run the region serially inline when the total estimated cost is below
// a calibrated threshold (GRADGCL_PARALLEL_MIN_COST; default 2^23, or
// 2^27 on single-core hosts where fan-out can never pay),
// where dispatch overhead would swamp any speedup. Small kernels
// therefore cost exactly one direct call, at every pool size. The
// legacy no-cost overload always fans out when range > grain (grids of
// coarse units: CV folds, bench cells).
//
// Determinism contract (DESIGN.md §5 "Threading model"): every output
// element must be computed entirely inside one chunk/tile with a
// thread-count-independent iteration order, so results are bit-identical
// for every pool size — chunk and tile boundaries may move, but no
// floating-point sum is ever split across items.
//
// Pool size comes from GRADGCL_NUM_THREADS (default: hardware
// concurrency; "1" restores fully serial execution). SetNumThreads
// reconfigures the pool at runtime — safe concurrently with ParallelFor
// callers on other threads (regions and resizes serialize), not from
// inside a region.
//
// Nested ParallelFor calls (e.g. a parallel k-fold probe inside a
// parallel bench grid cell) run serially inline on the calling worker;
// only the outermost region fans out. ParallelFor is safe to call from
// any thread, including before the pool has started.

#ifndef GRADGCL_COMMON_PARALLEL_H_
#define GRADGCL_COMMON_PARALLEL_H_

#include <cstdint>
#include <type_traits>
#include <utility>

namespace gradgcl {

// Number of threads the pool runs with (>= 1). Starts the pool lazily.
int NumThreads();

// Reconfigures the pool to `n` threads (n <= 0 selects the hardware
// default). Waits for any in-flight region, then joins the old workers;
// safe to call concurrently with ParallelFor from other threads, not
// from inside a region.
void SetNumThreads(int n);

// True when the calling thread is executing inside a parallel region;
// nested ParallelFor calls then run inline.
bool InParallelRegion();

// While alive (and `active`), the calling thread counts as inside a
// parallel region, so every ParallelFor it reaches runs inline. For
// threads that each already own a core, such as data-parallel ranks:
// a fan-out from one of them would only queue on the single pool
// behind the others.
class InlineRegionScope {
 public:
  explicit InlineRegionScope(bool active = true);
  ~InlineRegionScope();

  InlineRegionScope(const InlineRegionScope&) = delete;
  InlineRegionScope& operator=(const InlineRegionScope&) = delete;

 private:
  bool prev_;
};

// Spin-before-park window in microseconds. Workers (and callers waiting
// for region completion) spin on the epoch ticket this long before
// falling back to a condvar; 0 restores pure condvar parking — the
// right setting for single-core or oversubscribed machines, where a
// spinning thread only steals cycles from the one doing the work.
// Seeded from GRADGCL_SPIN_US (default: ~100us with >1 hardware
// threads, 0 otherwise).
int SpinMicros();
void SetSpinMicros(int us);

namespace internal {

// Sentinel for "caller gave no cost estimate": skip the cost model.
inline constexpr int64_t kUnknownCost = -1;

// Current parallelization threshold (estimated FLOPs below which a
// cost-hinted region runs serially inline). Seeded from
// GRADGCL_PARALLEL_MIN_COST — default 2^23 with >1 hardware threads,
// 2^27 on a single-core machine where fan-out can never pay. The setter
// exists so tests can force fan-out (0) or force serial (INT64_MAX)
// regardless of the host.
int64_t MinParallelCost();
void SetMinParallelCost(int64_t cost);

// Non-owning handoff: fn pointers invoked with the caller-owned context
// (the address of the caller's lambda, alive for the whole region).
using RangeFn = void (*)(void* ctx, int64_t begin, int64_t end);
using TileFn = void (*)(void* ctx, int64_t r0, int64_t r1, int64_t c0,
                        int64_t c1);

// True when [0, range) should fan out to the pool: more than one
// thread, range > grain, not already inside a region, and (when
// total_cost >= 0) total_cost at or above the parallelization
// threshold.
bool ShouldParallelize(int64_t range, int64_t grain, int64_t total_cost);

// True when an (rows x cols) tile grid should fan out (same gates,
// with at least one axis splittable).
bool ShouldParallelize2D(int64_t rows, int64_t cols, int64_t row_grain,
                         int64_t col_grain, int64_t total_cost);

// Dispatches fn over static contiguous chunks on the pool.
void ParallelForImpl(int64_t begin, int64_t end, int64_t grain, RangeFn fn,
                     void* ctx);

// Dispatches fn over a static (row tile x col tile) grid on the pool.
// Tiles hold at least row_grain rows and col_grain cols (unless the
// whole axis is smaller).
void ParallelFor2DImpl(int64_t rows, int64_t cols, int64_t row_grain,
                       int64_t col_grain, TileFn fn, void* ctx);

// range * cost_per_iter, saturating instead of overflowing.
inline int64_t TotalCost(int64_t range, int64_t cost_per_iter) {
  if (cost_per_iter < 0) return kUnknownCost;
  if (cost_per_iter == 0 || range <= 0) return 0;
  constexpr int64_t kMax = INT64_MAX;
  if (range > kMax / cost_per_iter) return kMax;
  return range * cost_per_iter;
}

template <typename Fn>
void InvokeRange(void* ctx, int64_t begin, int64_t end) {
  (*static_cast<Fn*>(ctx))(begin, end);
}

template <typename Fn>
void InvokeTile(void* ctx, int64_t r0, int64_t r1, int64_t c0, int64_t c1) {
  (*static_cast<Fn*>(ctx))(r0, r1, c0, c1);
}

}  // namespace internal

// Invokes fn(chunk_begin, chunk_end) over a static contiguous partition
// of [begin, end); chunks hold at least `grain` iterations and the
// total estimated cost `(end - begin) * cost_per_iter` gates dispatch
// (see the cost model above). Serial execution (small range or cost,
// single thread, nested call) invokes fn(begin, end) once — a direct
// inlined call with zero dispatch overhead.
template <typename Fn>
void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                 int64_t cost_per_iter, Fn&& fn) {
  if (end <= begin) return;
  if (!internal::ShouldParallelize(
          end - begin, grain, internal::TotalCost(end - begin, cost_per_iter))) {
    fn(begin, end);
    return;
  }
  internal::ParallelForImpl(begin, end, grain,
                            &internal::InvokeRange<std::remove_reference_t<Fn>>,
                            const_cast<void*>(static_cast<const void*>(&fn)));
}

// Legacy overload without a cost estimate: fans out whenever
// range > grain. For grids of coarse units (folds, bench cells) where
// per-iteration cost is large but unknown.
template <typename Fn>
void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  ParallelFor(begin, end, grain, internal::kUnknownCost,
              std::forward<Fn>(fn));
}

// Invokes fn(r0, r1, c0, c1) over a static 2-D tile partition of the
// (rows x cols) output grid; every tile holds at least row_grain rows
// and col_grain cols (unless an axis is smaller outright), and
// cost_per_cell estimates the FLOPs per output element for the cost
// model. Serial execution invokes fn(0, rows, 0, cols) once.
template <typename Fn>
void ParallelFor2D(int64_t rows, int64_t cols, int64_t row_grain,
                   int64_t col_grain, int64_t cost_per_cell, Fn&& fn) {
  if (rows <= 0 || cols <= 0) return;
  if (!internal::ShouldParallelize2D(
          rows, cols, row_grain, col_grain,
          internal::TotalCost(rows * cols, cost_per_cell))) {
    fn(0, rows, 0, cols);
    return;
  }
  internal::ParallelFor2DImpl(
      rows, cols, row_grain, col_grain,
      &internal::InvokeTile<std::remove_reference_t<Fn>>,
      const_cast<void*>(static_cast<const void*>(&fn)));
}

}  // namespace gradgcl

#endif  // GRADGCL_COMMON_PARALLEL_H_
