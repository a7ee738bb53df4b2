#pragma once

// Global allocation counters for tests that assert *when* memory is
// requested, not only whether a call throws: a governed decode must refuse
// a hostile declaration before payload-proportional bytes reach the
// allocator. Replaces the global operator new/delete, so include it from
// exactly one translation unit per test binary.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/common/status.hpp"

// The replaced operators below are the textbook malloc/free pair, but once
// both ends inline into the same frame GCC's heuristic flags the free() as
// mismatched with the replaced new.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

namespace {
std::atomic<std::size_t> g_alloc_count{0};
std::atomic<std::size_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// Every form is replaced (including nothrow, which libstdc++'s temporary
// buffers use) so no allocation pairs a library-provided new with our
// free — ASan's alloc-dealloc matching requires the full set.
void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace cliz {

/// Runs `decode`, requiring Error{`code`} and an allocation total far
/// below `declared_bytes` — the hostile declaration must fizzle at the
/// header.
template <typename Fn>
void expect_refused_before_allocation(const Fn& decode,
                                      std::size_t input_bytes,
                                      std::uint64_t declared_bytes,
                                      ErrorCode code) {
  const std::size_t before = g_alloc_bytes.load(std::memory_order_relaxed);
  try {
    decode();
    ADD_FAILURE() << "hostile declaration decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), code) << e.what();
  }
  const std::size_t delta =
      g_alloc_bytes.load(std::memory_order_relaxed) - before;
  // Budget: the lossless unwrap plus parser scratch, never the payload.
  const std::size_t budget = input_bytes * 8 + (std::size_t{1} << 20);
  EXPECT_LT(delta, budget) << "allocated " << delta
                           << " bytes for a declaration of "
                           << declared_bytes;
  EXPECT_LT(static_cast<std::uint64_t>(delta), declared_bytes / 2)
      << "allocation tracked the hostile declaration";
}

/// expect_refused_before_allocation for a declaration past the budget
/// (Error{kLimitExceeded}).
template <typename Fn>
void expect_limit_refusal(const Fn& decode, std::size_t input_bytes,
                          std::uint64_t declared_bytes) {
  expect_refused_before_allocation(decode, input_bytes, declared_bytes,
                                   ErrorCode::kLimitExceeded);
}

}  // namespace cliz
