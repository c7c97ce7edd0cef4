#include "tensor/pool.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>
#include <vector>

#include "common/check.h"
#include "obs/metrics.h"

namespace gradgcl {

namespace {

// Every matrix buffer — pooled or plain heap — is allocated 64-byte
// aligned so the SIMD kernels (tensor/simd.h) can rely on cache-line-
// aligned base pointers. Alignment must match between allocation and
// deallocation (aligned operator delete).
constexpr std::align_val_t kBufferAlignment{64};

double* AlignedAlloc(size_t n) {
  return static_cast<double*>(
      ::operator new(n * sizeof(double), kBufferAlignment));
}

void AlignedFree(double* ptr) noexcept {
  ::operator delete(ptr, kBufferAlignment);
}

// Smallest bucket: 32 doubles (256 bytes). Anything smaller rounds up;
// the waste is capped and tiny matrices (scalars, n x 1 coefficient
// vectors) all share one hot bucket.
constexpr size_t kMinBucketDoubles = 32;

// log2 of the power-of-two capacity that fits n doubles.
int BucketIndex(size_t n) {
  size_t cap = kMinBucketDoubles;
  int idx = 5;  // 2^5 == kMinBucketDoubles
  while (cap < n) {
    cap <<= 1;
    ++idx;
  }
  return idx;
}

std::atomic<uint64_t> g_heap_allocs{0};
std::atomic<uint64_t> g_heap_bytes{0};
std::atomic<uint64_t> g_pool_hits{0};
std::atomic<uint64_t> g_acquires{0};

bool EnvFlagDefaultOn(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr) return true;
  return !(v[0] == '0' && v[1] == '\0');
}

bool EnvFlagDefaultOff(const char* name) {
  const char* v = std::getenv(name);
  return v != nullptr && !(v[0] == '0' && v[1] == '\0');
}

std::atomic<bool> g_pooling_enabled{EnvFlagDefaultOn("GRADGCL_POOL")};
std::atomic<bool> g_fused_enabled{EnvFlagDefaultOn("GRADGCL_FUSED")};

bool ProfileAllocEnabled() {
  static const bool enabled = EnvFlagDefaultOff("GRADGCL_PROFILE_ALLOC");
  return enabled;
}

thread_local bool t_tape_scope_active = false;

// Registry handles for the per-step pool traffic, registered once on
// the first instrumented step (registration locks; Add is wait-free).
struct PoolMetrics {
  obs::Counter heap_allocs, heap_bytes, pool_hits, acquires;

  PoolMetrics() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Instance();
    heap_allocs = reg.GetCounter("pool/heap_allocs");
    heap_bytes = reg.GetCounter("pool/heap_bytes");
    pool_hits = reg.GetCounter("pool/hits");
    acquires = reg.GetCounter("pool/acquires");
  }
};

PoolMetrics& GetPoolMetrics() {
  static PoolMetrics* metrics = new PoolMetrics;  // leaked
  return *metrics;
}

}  // namespace

struct MatrixPool::Impl {
  mutable std::mutex mu;
  // buckets[i] caches buffers of capacity 2^i doubles.
  std::vector<std::vector<double*>> buckets =
      std::vector<std::vector<double*>>(64);
};

MatrixPool::MatrixPool() : impl_(new Impl) {}

MatrixPool::~MatrixPool() { delete impl_; }

MatrixPool& MatrixPool::Instance() {
  // Leaked on purpose: Matrix destructors of objects with static
  // storage duration may release buffers after main() returns.
  static MatrixPool* pool = new MatrixPool;
  return *pool;
}

double* MatrixPool::Acquire(size_t n, size_t* capacity) {
  GRADGCL_CHECK(n > 0 && capacity != nullptr);
  const int idx = BucketIndex(n);
  const size_t cap = size_t{1} << idx;
  *capacity = cap;
  g_acquires.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(impl_->mu);
    std::vector<double*>& bucket = impl_->buckets[idx];
    if (!bucket.empty()) {
      double* ptr = bucket.back();
      bucket.pop_back();
      g_pool_hits.fetch_add(1, std::memory_order_relaxed);
      return ptr;
    }
  }
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(cap * sizeof(double), std::memory_order_relaxed);
  return AlignedAlloc(cap);
}

void MatrixPool::Release(double* ptr, size_t capacity) noexcept {
  const int idx = BucketIndex(capacity);
  std::lock_guard<std::mutex> lock(impl_->mu);
  impl_->buckets[idx].push_back(ptr);
}

double* MatrixPool::HeapAlloc(size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  g_heap_bytes.fetch_add(n * sizeof(double), std::memory_order_relaxed);
  return AlignedAlloc(n);
}

void MatrixPool::HeapFree(double* ptr) noexcept { AlignedFree(ptr); }

PoolStats MatrixPool::stats() const {
  PoolStats s;
  s.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
  s.heap_bytes = g_heap_bytes.load(std::memory_order_relaxed);
  s.pool_hits = g_pool_hits.load(std::memory_order_relaxed);
  s.acquires = g_acquires.load(std::memory_order_relaxed);
  return s;
}

void MatrixPool::ResetStats() {
  g_heap_allocs.store(0, std::memory_order_relaxed);
  g_heap_bytes.store(0, std::memory_order_relaxed);
  g_pool_hits.store(0, std::memory_order_relaxed);
  g_acquires.store(0, std::memory_order_relaxed);
}

void MatrixPool::Trim() {
  std::lock_guard<std::mutex> lock(impl_->mu);
  for (std::vector<double*>& bucket : impl_->buckets) {
    for (double* ptr : bucket) AlignedFree(ptr);
    bucket.clear();
  }
}

size_t MatrixPool::CachedBuffers() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  size_t count = 0;
  for (const std::vector<double*>& bucket : impl_->buckets) {
    count += bucket.size();
  }
  return count;
}

size_t MatrixPool::CachedBytes() const {
  std::lock_guard<std::mutex> lock(impl_->mu);
  size_t bytes = 0;
  for (size_t i = 0; i < impl_->buckets.size(); ++i) {
    bytes += impl_->buckets[i].size() * (size_t{1} << i) * sizeof(double);
  }
  return bytes;
}

bool PoolingEnabled() {
  return g_pooling_enabled.load(std::memory_order_relaxed);
}

void SetPoolingEnabled(bool enabled) {
  g_pooling_enabled.store(enabled, std::memory_order_relaxed);
}

bool FusedKernelsEnabled() {
  return g_fused_enabled.load(std::memory_order_relaxed);
}

void SetFusedKernelsEnabled(bool enabled) {
  g_fused_enabled.store(enabled, std::memory_order_relaxed);
}

TapeScope::TapeScope(bool report)
    : prev_(t_tape_scope_active), report_(report && !prev_) {
  t_tape_scope_active = true;
  if (report_ && (ProfileAllocEnabled() || obs::MetricsEnabled())) {
    entry_ = MatrixPool::Instance().stats();
  }
}

TapeScope::~TapeScope() {
  t_tape_scope_active = prev_;
  if (!report_) return;
  const bool profile = ProfileAllocEnabled();
  const bool metrics = obs::MetricsEnabled();
  if (!profile && !metrics) return;
  const PoolStats now = MatrixPool::Instance().stats();
  if (metrics) {
    PoolMetrics& pm = GetPoolMetrics();
    pm.heap_allocs.Add(now.heap_allocs - entry_.heap_allocs);
    pm.heap_bytes.Add(now.heap_bytes - entry_.heap_bytes);
    pm.pool_hits.Add(now.pool_hits - entry_.pool_hits);
    pm.acquires.Add(now.acquires - entry_.acquires);
  }
  if (profile) {
    std::fprintf(stderr,
                 "[gradgcl alloc] step: %llu heap allocs (%llu bytes), "
                 "%llu pool hits\n",
                 static_cast<unsigned long long>(now.heap_allocs -
                                                 entry_.heap_allocs),
                 static_cast<unsigned long long>(now.heap_bytes -
                                                 entry_.heap_bytes),
                 static_cast<unsigned long long>(now.pool_hits -
                                                 entry_.pool_hits));
  }
}

bool TapeScope::Active() { return t_tape_scope_active; }

}  // namespace gradgcl
