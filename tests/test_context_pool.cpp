// ContextPool contract tests: a context is handed to exactly one lease at
// a time (hammered from many raw std::threads so the TSan CI job checks
// the same property under the race detector), a released slot is handed
// out again, leases release exactly once across moves, checkout telemetry
// adds up, and the pooled chunked compressor emits frames byte-identical
// to a hand-built serial loop of fresh per-chunk compressions.
#include "src/core/context_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstring>
#include <numbers>
#include <optional>
#include <thread>

#include "src/common/bytestream.hpp"
#include "src/common/crc32c.hpp"
#include "src/common/rng.hpp"
#include "src/core/chunked.hpp"
#include "src/core/cliz.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz {
namespace {

struct TestField {
  NdArray<float> data;
  MaskMap mask;
};

/// Masked, periodic synthetic field in the SSH mould: [time][lat][lon].
TestField make_field(std::size_t n_time, std::size_t n_lat, std::size_t n_lon,
                     std::uint64_t seed) {
  const Shape shape({n_time, n_lat, n_lon});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(seed);
  for (std::size_t t = 0; t < n_time; ++t) {
    for (std::size_t la = 0; la < n_lat; ++la) {
      for (std::size_t lo = 0; lo < n_lon; ++lo) {
        const std::size_t off = (t * n_lat + la) * n_lon + lo;
        if ((la * n_lon + lo) % 17 == 0) {
          mask.mutable_data()[off] = 0;
          data[off] = 9.96921e36f;
          continue;
        }
        const double space = std::sin(0.2 * static_cast<double>(la)) +
                             std::cos(0.15 * static_cast<double>(lo));
        const double season =
            std::cos(2.0 * std::numbers::pi * static_cast<double>(t) / 12.0);
        data[off] =
            static_cast<float>(space + 0.5 * season + 0.01 * rng.normal());
      }
    }
  }
  return {std::move(data), std::move(mask)};
}

template <typename T>
double max_abs_err(const NdArray<T>& a, const NdArray<T>& b) {
  double e = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    e = std::max(e, std::abs(static_cast<double>(a[i]) -
                             static_cast<double>(b[i])));
  }
  return e;
}

// --- exclusive handout --------------------------------------------------

TEST(ContextPool, ExclusiveHandoutUnderContention) {
  constexpr std::size_t kSlots = 4;
  constexpr std::size_t kThreads = 8;  // 2x oversubscribed: acquire() spins
  constexpr int kItersPerThread = 2000;

  ContextPool pool(kSlots);
  ASSERT_EQ(pool.size(), kSlots);

  // One holder count per slot; any count other than 0 -> 1 -> 0 while a
  // lease is alive means two leases held the same context at once.
  std::array<std::atomic<int>, kSlots> holders{};
  std::atomic<int> violations{0};
  std::atomic<int> corruptions{0};
  std::atomic<std::uint64_t> grants{0};

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        const ContextPool::Lease lease = pool.acquire();
        if (holders[lease.slot()].fetch_add(1, std::memory_order_acq_rel) !=
            0) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        // Write-then-read through the leased context: under a double
        // handout this is a data race TSan flags and a value mismatch we
        // count even without the sanitizer.
        auto& scratch = lease->slab<float>();
        const float stamp = static_cast<float>(t * kItersPerThread + i);
        scratch.assign(8, stamp);
        for (const float v : scratch) {
          if (v != stamp) corruptions.fetch_add(1, std::memory_order_relaxed);
        }
        holders[lease.slot()].fetch_sub(1, std::memory_order_acq_rel);
        grants.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // A concurrent stats() reader alongside the hammer: telemetry reads must
  // be race-free (TSan checks that) and the counters monotone, but their
  // exact values are NOT comparable to `grants` while leases are still
  // outstanding — checkouts increments inside acquire(), before the worker
  // bumps its own counter. The exact-value assertions therefore stay below,
  // after every worker has joined.
  std::atomic<bool> stop_poller{false};
  std::atomic<std::uint64_t> poller_reads{0};
  std::thread poller([&] {
    std::uint64_t last_checkouts = 0;
    std::uint64_t last_warm = 0;
    // do-while: at least one read happens even when the hammer drains
    // before this thread is first scheduled (a loaded machine can finish
    // the workers in single-digit milliseconds).
    do {
      const auto s = pool.stats();
      EXPECT_EQ(s.contexts, kSlots);
      EXPECT_GE(s.checkouts, last_checkouts) << "checkouts went backwards";
      EXPECT_GE(s.warm_hits, last_warm) << "warm hits went backwards";
      EXPECT_LE(s.warm_hits, s.checkouts);
      last_checkouts = s.checkouts;
      last_warm = s.warm_hits;
      poller_reads.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::yield();
    } while (!stop_poller.load(std::memory_order_acquire));
  });

  for (auto& w : workers) w.join();
  stop_poller.store(true, std::memory_order_release);
  poller.join();
  EXPECT_GT(poller_reads.load(), 0u);

  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(corruptions.load(), 0);
  EXPECT_EQ(grants.load(), kThreads * kItersPerThread);

  // Exact telemetry only after the joins above: every lease returned, so
  // checkouts and grants have converged.
  const auto stats = pool.stats();
  EXPECT_EQ(stats.contexts, kSlots);
  // Every grant is exactly one successful checkout (failed probes do not
  // count), and at most one cold checkout per slot.
  EXPECT_EQ(stats.checkouts, kThreads * kItersPerThread);
  EXPECT_GE(stats.warm_hits, stats.checkouts - kSlots);
  EXPECT_LT(stats.warm_hits, stats.checkouts);
}

// --- acquire / release --------------------------------------------------
//
// acquire() probes forward from the caller's preferred slot, so a pool one
// slot larger than the leases a test holds never blocks: a slot that failed
// to release shows up as a checkout landing on the spare slot instead.

TEST(ContextPool, ReleasedSlotIsHandedOutAgain) {
  ContextPool pool(3);
  std::optional<ContextPool::Lease> a = pool.acquire();
  const ContextPool::Lease b = pool.acquire();
  EXPECT_NE(a->slot(), b.slot());

  // Returning one lease frees exactly that slot: the next checkout probes
  // from the same preferred slot and lands on it again.
  const std::size_t freed = a->slot();
  a.reset();
  const ContextPool::Lease c = pool.acquire();
  EXPECT_EQ(c.slot(), freed);
  EXPECT_NE(c.slot(), b.slot());
}

TEST(ContextPool, AcquireBlocksUntilAnotherThreadReleases) {
  ContextPool pool(1);
  std::optional<ContextPool::Lease> held = pool.acquire();
  std::atomic<bool> release_requested{false};

  std::thread releaser([&] {
    while (!release_requested.load(std::memory_order_acquire)) {
      std::this_thread::yield();
    }
    held.reset();
  });

  release_requested.store(true, std::memory_order_release);
  // Spins until the releaser thread drops the only lease; completing at
  // all is the assertion.
  const ContextPool::Lease lease = pool.acquire();
  EXPECT_EQ(lease.slot(), 0u);
  releaser.join();
}

TEST(ContextPool, LeaseMovesReleaseExactlyOnce) {
  ContextPool pool(3);
  std::size_t slot_a = 0;
  {
    std::optional<ContextPool::Lease> a = pool.acquire();
    slot_a = a->slot();
    // Move construction transfers the claim without releasing it, and the
    // moved-from lease releases nothing when it goes.
    const ContextPool::Lease b = std::move(*a);
    a.reset();
    EXPECT_EQ(b.slot(), slot_a);
    const ContextPool::Lease probe = pool.acquire();
    EXPECT_NE(probe.slot(), slot_a);
  }
  // Both leases gone: the slot `a` held is free again, so the next
  // checkout, probing from the same preferred slot, lands on it.
  const ContextPool::Lease x = pool.acquire();
  EXPECT_EQ(x.slot(), slot_a);
}

TEST(ContextPool, LeaseMoveAssignReleasesTheOldClaim) {
  ContextPool pool(3);
  ContextPool::Lease a = pool.acquire();
  ContextPool::Lease b = pool.acquire();
  const std::size_t slot_a = a.slot();
  const std::size_t slot_b = b.slot();
  a = std::move(b);  // must release slot_a, keep slot_b claimed
  EXPECT_EQ(a.slot(), slot_b);
  const ContextPool::Lease probe = pool.acquire();
  EXPECT_EQ(probe.slot(), slot_a);
}

TEST(ContextPool, DefaultSizeCoversHardwareThreads) {
  const ContextPool pool;
  EXPECT_GE(pool.size(), 1u);
  EXPECT_EQ(pool.stats().contexts, pool.size());
}

// --- telemetry ----------------------------------------------------------

TEST(ContextPool, StatsCountColdAndWarmCheckouts) {
  ContextPool pool(1);
  for (int i = 0; i < 3; ++i) {
    const ContextPool::Lease lease = pool.acquire();
    (void)lease;
  }
  const auto stats = pool.stats();
  EXPECT_EQ(stats.checkouts, 3u);
  EXPECT_EQ(stats.warm_hits, 2u);  // first draw of the slot was cold
  EXPECT_EQ(stats.contexts, 1u);
}

// --- byte identity vs the serial pre-pool path --------------------------

/// The chunked frame as the pre-pool serial code path produced it: the
/// same slab arithmetic and per-chunk degradation rule, but every chunk
/// compressed by a fresh compressor with fresh scratch, strictly in order.
template <typename T>
std::vector<std::uint8_t> serial_reference_frame(const NdArray<T>& data,
                                                 double eb,
                                                 const PipelineConfig& config,
                                                 const MaskMap* mask,
                                                 std::size_t chunks) {
  const Shape& shape = data.shape();
  chunks = std::clamp<std::size_t>(chunks, 1, shape.dim(0));
  const std::size_t row = shape.size() / shape.dim(0);

  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::vector<std::vector<std::uint8_t>> streams;
  for (std::size_t c = 0; c < chunks; ++c) {
    const std::size_t lo = shape.dim(0) * c / chunks;
    const std::size_t hi = shape.dim(0) * (c + 1) / chunks;
    DimVec dims = shape.dims();
    dims[0] = hi - lo;
    NdArray<T> chunk{Shape(std::move(dims))};
    std::memcpy(chunk.data(), data.data() + lo * row,
                chunk.size() * sizeof(T));
    std::optional<MaskMap> cmask;
    if (mask != nullptr) {
      DimVec start(shape.ndims(), 0);
      start[0] = lo;
      cmask = mask->crop(start, chunk.shape());
    }
    PipelineConfig cconfig = config;
    if (config.period > 0 && config.time_dim == 0 &&
        hi - lo < 2 * config.period) {
      cconfig.period = 0;  // undersized chunk: periodicity degrades
    }
    ranges.emplace_back(lo, hi);
    streams.push_back(ClizCompressor(std::move(cconfig))
                          .compress(chunk, eb,
                                    cmask.has_value() ? &*cmask : nullptr));
  }

  // v2 frame layout: CRC-covered header first, payload blocks after.
  ByteWriter w;
  w.put(std::uint32_t{0x434C4B32u});  // "CLK2"
  w.put_varint(shape.ndims());
  for (const std::size_t d : shape.dims()) w.put_varint(d);
  w.put_varint(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    w.put_varint(ranges[c].first);
    w.put_varint(ranges[c].second);
    w.put(crc32c(streams[c]));
  }
  w.put(crc32c(w.bytes().subspan(4)));
  for (std::size_t c = 0; c < chunks; ++c) w.put_block(streams[c]);
  return std::move(w).take();
}

TEST(ContextPool, PooledChunkedFrameMatchesSerialReference) {
  const auto field = make_field(36, 14, 12, 7);
  const double eb = 1e-3;
  PipelineConfig config = PipelineConfig::defaults(3);
  config.period = 12;
  config.classify_bins = true;

  const auto expected =
      serial_reference_frame(field.data, eb, config, &field.mask, 3);

  ChunkedScratch scratch;
  ChunkedOptions opts;
  opts.chunks = 3;
  opts.scratch = &scratch;
  const auto pooled =
      chunked_compress(field.data, eb, config, &field.mask, opts);
  EXPECT_EQ(pooled, expected);

  // Second call through the now-warm scratch: still identical.
  std::vector<std::uint8_t> again;
  chunked_compress_into(field.data, eb, config, &field.mask, opts, again);
  EXPECT_EQ(again, expected);
  EXPECT_GT(scratch.pool.stats().warm_hits, 0u);

  // And the scratch-free convenience call agrees too.
  ChunkedOptions plain_opts;
  plain_opts.chunks = 3;
  EXPECT_EQ(chunked_compress(field.data, eb, config, &field.mask, plain_opts),
            expected);

  // The frame decodes within bound.
  const auto recon = chunked_decompress(expected, &scratch);
  EXPECT_LE(error_stats(field.data.flat(), recon.flat(), &field.mask)
                .max_abs_error,
            eb);
}

TEST(ContextPool, PooledChunkedFrameMatchesSerialReferenceF64) {
  NdArray<double> data(Shape({25, 9, 8}));
  Rng rng(11);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = std::sin(0.03 * static_cast<double>(i)) + 0.01 * rng.normal();
  }
  const double eb = 1e-4;
  const PipelineConfig config = PipelineConfig::defaults(3);

  // 25 rows in 4 chunks: deliberately uneven slabs.
  const auto expected = serial_reference_frame(data, eb, config, nullptr, 4);

  ChunkedScratch scratch;
  ChunkedOptions opts;
  opts.chunks = 4;
  opts.scratch = &scratch;
  EXPECT_EQ(chunked_compress(data, eb, config, nullptr, opts), expected);

  const auto recon = chunked_decompress<double>(expected, &scratch);
  EXPECT_LE(max_abs_err(data, recon), eb);
}

TEST(ContextPool, ConcurrentChunkedCallsWithPrivateScratches) {
  const auto field = make_field(24, 12, 10, 21);
  const double eb = 1e-3;
  const PipelineConfig config = PipelineConfig::defaults(3);
  const auto reference =
      serial_reference_frame(field.data, eb, config, &field.mask, 4);

  constexpr int kCallers = 4;
  std::array<std::vector<std::uint8_t>, kCallers> results;
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      // One scratch per caller (the documented ownership rule), reused
      // across that caller's repeated calls.
      ChunkedScratch scratch;
      ChunkedOptions opts;
      opts.chunks = 4;
      opts.scratch = &scratch;
      for (int round = 0; round < 3; ++round) {
        chunked_compress_into(field.data, eb, config, &field.mask, opts,
                              results[static_cast<std::size_t>(t)]);
      }
    });
  }
  for (auto& c : callers) c.join();
  for (const auto& r : results) EXPECT_EQ(r, reference);
}

}  // namespace
}  // namespace cliz
