// Binary-wide heap-allocation counter for tests that assert a code path
// never allocates (corrupt-input rejection, metrics and trace hot paths).
//
// Replaces every global allocation form -- plain, array, nothrow and
// align_val_t, each with its matching plain, sized and aligned delete --
// so an allocation is counted whichever form the library or the
// standard library picks. Include it from exactly one translation unit
// of a test binary: the replacement functions are ordinary (non-inline)
// definitions, as the standard requires.

#ifndef GRADGCL_TESTS_ALLOC_COUNTER_H_
#define GRADGCL_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace gradgcl {
namespace alloc_counter_internal {

inline std::atomic<uint64_t> heap_new_calls{0};

inline void* Allocate(std::size_t size) noexcept {
  heap_new_calls.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

inline void* AllocateAligned(std::size_t size, std::align_val_t align) noexcept {
  heap_new_calls.fetch_add(1, std::memory_order_relaxed);
  const std::size_t a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a non-zero multiple of the alignment.
  const std::size_t rounded = (size + a - 1) / a * a;
  return std::aligned_alloc(a, rounded != 0 ? rounded : a);
}

// Out of line so the compiler never sees free() meet a pointer it
// believes came from the standard operator new (-Wmismatched-new-delete).
[[gnu::noinline]] inline void Release(void* p) noexcept { std::free(p); }

}  // namespace alloc_counter_internal

// Number of global operator new calls (any form) since process start.
inline uint64_t HeapNewCalls() {
  return alloc_counter_internal::heap_new_calls.load(std::memory_order_relaxed);
}

}  // namespace gradgcl

void* operator new(std::size_t size) {
  if (void* p = gradgcl::alloc_counter_internal::Allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = gradgcl::alloc_counter_internal::Allocate(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return gradgcl::alloc_counter_internal::Allocate(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return gradgcl::alloc_counter_internal::Allocate(size);
}
void* operator new(std::size_t size, std::align_val_t align) {
  if (void* p = gradgcl::alloc_counter_internal::AllocateAligned(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  if (void* p = gradgcl::alloc_counter_internal::AllocateAligned(size, align)) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return gradgcl::alloc_counter_internal::AllocateAligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return gradgcl::alloc_counter_internal::AllocateAligned(size, align);
}

void operator delete(void* p) noexcept {
  gradgcl::alloc_counter_internal::Release(p);
}
void operator delete[](void* p) noexcept {
  gradgcl::alloc_counter_internal::Release(p);
}
void operator delete(void* p, std::size_t) noexcept {
  gradgcl::alloc_counter_internal::Release(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  gradgcl::alloc_counter_internal::Release(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  gradgcl::alloc_counter_internal::Release(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  gradgcl::alloc_counter_internal::Release(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  gradgcl::alloc_counter_internal::Release(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  gradgcl::alloc_counter_internal::Release(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  gradgcl::alloc_counter_internal::Release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  gradgcl::alloc_counter_internal::Release(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  gradgcl::alloc_counter_internal::Release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  gradgcl::alloc_counter_internal::Release(p);
}

#endif  // GRADGCL_TESTS_ALLOC_COUNTER_H_
