// TileCache unit tests: LRU behaviour under a byte budget, oversized-entry
// handling, telemetry counters, and a concurrent hammer that gives TSan a
// workload over the sharded locking.
#include "src/core/tile_cache.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/common/rng.hpp"

namespace cliz {
namespace {

TileCache::Payload payload_of(std::size_t n, std::uint8_t fill) {
  return std::make_shared<std::vector<std::uint8_t>>(n, fill);
}

TEST(TileCache, LookupMissThenHit) {
  TileCache cache(1 << 20);
  const TileCache::Key key{1, 2, 3};
  EXPECT_EQ(cache.lookup(key), nullptr);
  cache.insert(key, payload_of(64, 0xAB));
  const auto hit = cache.lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 64u);
  EXPECT_EQ((*hit)[0], 0xAB);

  const auto s = cache.stats();
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.insertions, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 64u);
}

TEST(TileCache, DigestDisambiguatesSameVarAndTile) {
  // Same variable/tile ids with different payload digests are different
  // entries — a stale or cross-frame tile can never serve a lookup.
  TileCache cache(1 << 20);
  cache.insert({7, 7, 100}, payload_of(16, 1));
  EXPECT_EQ(cache.lookup({7, 7, 200}), nullptr);
  const auto hit = cache.lookup({7, 7, 100});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ((*hit)[0], 1);
}

TEST(TileCache, EvictsLeastRecentlyUsedUnderBudget) {
  // Single shard so the LRU order is global and deterministic.
  TileCache cache(4 * 100, 1);
  for (std::uint64_t i = 0; i < 4; ++i) {
    cache.insert({1, i, 0}, payload_of(100, static_cast<std::uint8_t>(i)));
  }
  EXPECT_EQ(cache.stats().entries, 4u);
  // Touch tile 0 so tile 1 becomes the eviction victim.
  EXPECT_NE(cache.lookup({1, 0, 0}), nullptr);
  cache.insert({1, 9, 0}, payload_of(100, 9));
  EXPECT_EQ(cache.stats().entries, 4u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup({1, 1, 0}), nullptr);  // evicted
  EXPECT_NE(cache.lookup({1, 0, 0}), nullptr);  // kept (recently used)
  EXPECT_NE(cache.lookup({1, 9, 0}), nullptr);  // newly inserted
}

TEST(TileCache, OversizedEntryIsDroppedNotCached) {
  TileCache cache(256, 1);
  cache.insert({1, 1, 1}, payload_of(10'000, 5));
  EXPECT_EQ(cache.lookup({1, 1, 1}), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.oversized, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
}

TEST(TileCache, ReinsertRefreshesEntry) {
  TileCache cache(1 << 20, 1);
  cache.insert({3, 3, 3}, payload_of(32, 1));
  cache.insert({3, 3, 3}, payload_of(48, 2));
  const auto hit = cache.lookup({3, 3, 3});
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->size(), 48u);
  EXPECT_EQ((*hit)[0], 2);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(cache.stats().bytes, 48u);
}

TEST(TileCache, ClearEmptiesEverything) {
  TileCache cache(1 << 20);
  for (std::uint64_t i = 0; i < 32; ++i) {
    cache.insert({i, i, 0}, payload_of(64, 0));
  }
  cache.clear();
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(cache.stats().bytes, 0u);
  EXPECT_EQ(cache.lookup({4, 4, 0}), nullptr);
}

TEST(TileCache, BudgetIsRespectedAcrossManyInserts) {
  const std::size_t budget = 1 << 14;
  TileCache cache(budget, 4);
  Rng rng(42);
  for (int i = 0; i < 2000; ++i) {
    const auto var = static_cast<std::uint64_t>(rng.uniform_index(8));
    const auto tile = static_cast<std::uint64_t>(rng.uniform_index(64));
    cache.insert({var, tile, static_cast<std::uint32_t>(var * 64 + tile)},
                 payload_of(64 + rng.uniform_index(256), 0));
  }
  EXPECT_LE(cache.stats().bytes, budget);
  EXPECT_GT(cache.stats().evictions, 0u);
}

/// Concurrency hammer: many threads inserting and looking up overlapping
/// key ranges under a tight budget. Run under TSan in CI; the assertions
/// here are liveness/accounting sanity, the sanitizer checks the locking.
TEST(TileCacheThreads, ConcurrentHammer) {
  TileCache cache(1 << 16, 8);
  constexpr int kThreads = 8;
  constexpr int kOps = 4000;
  std::atomic<std::size_t> found{0};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&cache, &found, t] {
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kOps; ++i) {
        const auto var = static_cast<std::uint64_t>(rng.uniform_index(4));
        const auto tile = static_cast<std::uint64_t>(rng.uniform_index(128));
        const TileCache::Key key{var, tile,
                                 static_cast<std::uint32_t>(var ^ tile)};
        if (i % 3 == 0) {
          cache.insert(key, payload_of(32 + rng.uniform_index(128),
                                       static_cast<std::uint8_t>(tile)));
        } else if (const auto hit = cache.lookup(key); hit != nullptr) {
          // Payload contents must be coherent with the key even under
          // concurrent eviction (shared_ptr keeps the bytes alive).
          if ((*hit)[0] == static_cast<std::uint8_t>(tile)) {
            found.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto s = cache.stats();
  EXPECT_LE(s.bytes, std::size_t{1} << 16);
  EXPECT_EQ(s.hits, found.load());
  EXPECT_GT(s.insertions, 0u);
}

}  // namespace
}  // namespace cliz
