#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/status.hpp"
#include "src/core/codec_context.hpp"

namespace cliz {

/// Fixed-size pool of CodecContexts for chunk/trial-parallel codec work:
/// one slot per worker thread, checked out with a single atomic
/// compare-exchange (no locks on the hot path) and returned by RAII lease.
///
/// The slot a caller gets is keyed on its OpenMP thread index, so inside a
/// `parallel_for` body every checkout lands on an uncontended slot and a
/// thread keeps re-drawing the same warmed context — repeated chunked
/// compressions reach the same steady-state allocation behaviour as a
/// single-stream loop over one reused CodecContext. Callers outside a
/// parallel region (plain std::threads) all prefer slot 0; acquire() then
/// probes forward for a free slot, so correctness never depends on the
/// thread-index mapping — a context is handed to exactly one lease at a
/// time no matter who asks.
///
/// Ownership rules:
///  - The pool must outlive every lease drawn from it.
///  - A lease grants exclusive use of its context until destruction; the
///    busy flag makes a double-checkout structurally impossible rather
///    than merely documented.
///  - acquire() spins (yielding) when every slot is busy, so a pool must
///    be sized >= the number of concurrent users.
class ContextPool {
 public:
  /// `slots` = 0 sizes the pool to one context per hardware thread.
  explicit ContextPool(std::size_t slots = 0) {
    if (slots == 0) {
      slots = static_cast<std::size_t>(std::max(1, hardware_threads()));
    }
    slots_.reserve(slots);
    for (std::size_t i = 0; i < slots; ++i) {
      slots_.push_back(std::make_unique<Slot>());
    }
  }

  ContextPool(const ContextPool&) = delete;
  ContextPool& operator=(const ContextPool&) = delete;

  /// RAII checkout of one context. Movable so acquire() can return it;
  /// the moved-from lease releases nothing.
  class Lease {
   public:
    Lease(Lease&& other) noexcept : pool_(other.pool_), slot_(other.slot_) {
      other.pool_ = nullptr;
    }
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = other.pool_;
        slot_ = other.slot_;
        other.pool_ = nullptr;
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] CodecContext& ctx() const noexcept {
      return pool_->slots_[slot_]->ctx;
    }
    CodecContext& operator*() const noexcept { return ctx(); }
    CodecContext* operator->() const noexcept { return &ctx(); }

    /// Index of the pooled slot this lease holds. Test hook: the
    /// ContextPool suite in tests/test_context_pool.cpp asserts exclusive
    /// handout and release-exactly-once through it.
    [[nodiscard]] std::size_t slot() const noexcept { return slot_; }

   private:
    friend class ContextPool;
    Lease(ContextPool* pool, std::size_t slot) : pool_(pool), slot_(slot) {}

    void release() noexcept {
      if (pool_ != nullptr) {
        pool_->slots_[slot_]->busy.store(false, std::memory_order_release);
        pool_ = nullptr;
      }
    }

    ContextPool* pool_;
    std::size_t slot_ = 0;
  };

  /// Installs the resource governor every subsequent checkout stamps onto
  /// its context (POD copy — the steady-state allocation profile is
  /// untouched). One call governs all leases of a request: the chunked
  /// codec and the archive reader route their per-chunk decodes through
  /// here, so tightening a pool tightens every worker drawing from it.
  void set_governor(const ResourceLimits& limits,
                    const CancelToken* cancel) noexcept {
    limits_ = limits;
    cancel_ = cancel;
  }
  [[nodiscard]] const ResourceLimits& limits() const noexcept {
    return limits_;
  }
  [[nodiscard]] const CancelToken* cancel() const noexcept { return cancel_; }

  /// Checks out a context, preferring the calling thread's slot and
  /// probing forward from it. Spins (yielding) while every slot is busy.
  [[nodiscard]] Lease acquire() {
    const std::size_t n = slots_.size();
    const std::size_t preferred =
        static_cast<std::size_t>(thread_index()) % n;
    for (;;) {
      for (std::size_t probe = 0; probe < n; ++probe) {
        const std::size_t s = (preferred + probe) % n;
        bool expected = false;
        if (slots_[s]->busy.compare_exchange_strong(
                expected, true, std::memory_order_acquire)) {
          checkouts_.fetch_add(1, std::memory_order_relaxed);
          // `warmed` is only touched while the busy flag is held, so the
          // plain bool is race-free; a warm hit means the caller inherits
          // already-sized scratch buffers.
          if (slots_[s]->warmed) {
            warm_hits_.fetch_add(1, std::memory_order_release);
          }
          slots_[s]->warmed = true;
          slots_[s]->ctx.limits = limits_;
          slots_[s]->ctx.cancel = cancel_;
          return Lease(this, s);
        }
      }
      std::this_thread::yield();
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return slots_.size(); }

  /// Checkout telemetry. `warm_hits` counts checkouts that landed on a
  /// previously used (already-sized) context; `contexts` is the pool size,
  /// i.e. the total scratch arenas ever allocated on its behalf.
  struct Stats {
    std::uint64_t checkouts = 0;
    std::uint64_t warm_hits = 0;
    std::size_t contexts = 0;
  };

  [[nodiscard]] Stats stats() const {
    // Warm hits first: every hit this load sees released its checkout
    // increment, so the checkouts load below sees it too and a snapshot
    // taken mid-run never reports more warm hits than checkouts.
    const std::uint64_t warm = warm_hits_.load(std::memory_order_acquire);
    return {checkouts_.load(std::memory_order_relaxed), warm, slots_.size()};
  }

 private:
  struct Slot {
    CodecContext ctx;
    std::atomic<bool> busy{false};
    bool warmed = false;
  };

  // unique_ptr per slot: atomics are neither movable nor copyable, and the
  // indirection keeps busy flags on separate cache lines from each other
  // for the common small-pool case.
  std::vector<std::unique_ptr<Slot>> slots_;
  std::atomic<std::uint64_t> checkouts_{0};
  std::atomic<std::uint64_t> warm_hits_{0};
  /// Stamped onto every checked-out context; set_governor and acquire
  /// must not race (configure the pool before fanning work out on it).
  ResourceLimits limits_;
  const CancelToken* cancel_ = nullptr;
};

}  // namespace cliz
