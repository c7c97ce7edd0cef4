// Step-scoped memory substrate for Matrix storage.
//
// Every training step rebuilds the autograd DAG, and before this pool
// existed every op heap-allocated fresh value/grad buffers that were
// freed when the tape died — pure allocator churn at a fixed working
// set. MatrixPool recycles those buffers: Acquire() hands out a
// size-bucketed buffer (power-of-two capacities) from a free list,
// falling back to the heap only on a pool miss, and Release() returns
// it to the free list when the owning Matrix dies. At steady state a
// training step performs zero heap allocations for matrix storage
// (tests/pool_test.cc enforces this).
//
// Lifecycle rules:
//  * Pooled allocation is opt-in per thread via TapeScope: Matrix
//    buffers created while a TapeScope is active on the current thread
//    come from the pool; everything else (model parameters, optimizer
//    state, datasets) uses plain heap buffers and is therefore
//    pool-exempt — long-lived state never pins a recycled buffer and
//    survives any number of scope open/close cycles.
//  * Buffers return to the pool via RAII (Matrix destruction), never
//    by scope reset: a pooled Matrix that outlives its TapeScope (the
//    loss scalar, a cached EMA target) stays valid; closing the scope
//    only stops *new* allocations from being pooled.
//  * The pool is thread-safe (one mutex; acquire/release are rare next
//    to the numeric work) and the singleton is intentionally leaked so
//    static-destruction order can never invalidate a live buffer.
//
// Instrumentation: the pool keeps process-wide counters of every
// matrix-buffer heap allocation (pooled misses and unpooled allocs
// alike), bytes, and pool hits. Setting GRADGCL_PROFILE_ALLOC=1 in the
// environment makes every TapeScope print its per-step allocation
// delta to stderr; benches read the counters directly
// (bench_table8_efficiency writes BENCH_alloc.json from them).

#ifndef GRADGCL_TENSOR_POOL_H_
#define GRADGCL_TENSOR_POOL_H_

#include <cstddef>
#include <cstdint>

namespace gradgcl {

// Process-wide allocation counters (relaxed atomics internally; a
// snapshot is not a consistent cut across threads, which is fine for
// profiling).
struct PoolStats {
  uint64_t heap_allocs = 0;  // matrix buffers taken from the heap
  uint64_t heap_bytes = 0;   // bytes of those heap allocations
  uint64_t pool_hits = 0;    // pooled acquires served from a free list
  uint64_t acquires = 0;     // pooled acquires total (hits + misses)
};

// Size-bucketed free lists of matrix buffers. See file comment.
class MatrixPool {
 public:
  // The process-wide pool (leaked singleton, see file comment).
  static MatrixPool& Instance();

  // Returns a buffer with capacity >= n doubles (capacity is the
  // power-of-two bucket size, reported through *capacity and required
  // verbatim by Release). Contents are uninitialized.
  double* Acquire(size_t n, size_t* capacity);

  // Returns a buffer obtained from Acquire to its free list.
  void Release(double* ptr, size_t capacity) noexcept;

  // Unpooled allocation of exactly n doubles, counted in the stats so
  // the profiler sees every matrix-buffer heap allocation. Pairs with
  // HeapFree.
  static double* HeapAlloc(size_t n);
  static void HeapFree(double* ptr) noexcept;

  PoolStats stats() const;
  void ResetStats();

  // Frees every cached buffer (free lists only; live buffers are
  // untouched). Mainly for tests that measure from a cold pool.
  void Trim();

  // Number of buffers / bytes currently cached in free lists.
  size_t CachedBuffers() const;
  size_t CachedBytes() const;

  MatrixPool(const MatrixPool&) = delete;
  MatrixPool& operator=(const MatrixPool&) = delete;

 private:
  MatrixPool();
  ~MatrixPool();

  struct Impl;
  Impl* impl_;
};

// Master switch for pooled allocation (default on; GRADGCL_POOL=0
// disables). With pooling off TapeScope still tracks per-step stats,
// so the unpooled baseline is measurable in the same process.
bool PoolingEnabled();
void SetPoolingEnabled(bool enabled);

// Switch for the fused GradGCL loss kernels (CosineGram,
// MaskedExpRowSum, ScaleRowsMatMul, ...; default on, GRADGCL_FUSED=0
// falls back to the unfused op compositions). Both paths are
// bit-identical — the switch exists for A/B benchmarking and the
// equivalence tests.
bool FusedKernelsEnabled();
void SetFusedKernelsEnabled(bool enabled);

// RAII marker the trainer opens around each optimization step: while
// a TapeScope is active on the current thread (and PoolingEnabled()),
// Matrix buffers allocated on this thread come from the pool. Scopes
// nest; the outermost one reports the step's allocation delta when
// GRADGCL_PROFILE_ALLOC=1 or metrics are on. The counters are
// process-wide, so a scope opened on a helper thread for part of a
// step (an ag::ForkJoin2 branch) passes report = false.
class TapeScope {
 public:
  explicit TapeScope(bool report = true);
  ~TapeScope();

  TapeScope(const TapeScope&) = delete;
  TapeScope& operator=(const TapeScope&) = delete;

  // True when a TapeScope is active on the calling thread.
  static bool Active();

 private:
  bool prev_;
  bool report_;      // outermost on this thread, and asked to report
  PoolStats entry_;  // snapshot for the GRADGCL_PROFILE_ALLOC report
};

}  // namespace gradgcl

#endif  // GRADGCL_TENSOR_POOL_H_
