#include "src/core/tile_cache.hpp"

#include <atomic>
#include <list>
#include <mutex>
#include <unordered_map>

namespace cliz {

namespace {

/// Mixes the key fields into the shard selector / map hash. splitmix64
/// finalizer: cheap, and adjacent tile indexes land on different shards so
/// a window scan spreads lock pressure instead of hammering one shard.
std::uint64_t mix(std::uint64_t x) noexcept {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

std::uint64_t key_hash(const TileCache::Key& k) noexcept {
  return mix(mix(k.frame ^ k.tile * 0x9E3779B97F4A7C15ull) ^ k.digest);
}

struct KeyHasher {
  std::size_t operator()(const TileCache::Key& k) const noexcept {
    return static_cast<std::size_t>(key_hash(k));
  }
};

}  // namespace

struct TileCache::Shard {
  std::mutex mu;
  /// LRU order, most recent at the front; the map points into the list.
  struct Entry {
    Key key;
    Payload payload;
  };
  std::list<Entry> lru;
  std::unordered_map<Key, std::list<Entry>::iterator, KeyHasher> index;
  std::uint64_t bytes = 0;

  // Counters are per-shard atomics summed on stats() so lookup/insert never
  // contend on a cache-global line.
  std::atomic<std::uint64_t> hits{0};
  std::atomic<std::uint64_t> misses{0};
  std::atomic<std::uint64_t> insertions{0};
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> oversized{0};
};

TileCache::TileCache(std::uint64_t max_bytes, std::size_t shards)
    : max_bytes_(max_bytes) {
  std::size_t n = 1;
  while (n < shards) n <<= 1;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_budget_ = max_bytes_ / n;
}

TileCache::~TileCache() = default;

TileCache::Shard& TileCache::shard_for(const Key& key) const {
  return *shards_[key_hash(key) & (shards_.size() - 1)];
}

TileCache::Payload TileCache::lookup(const Key& key) {
  Shard& s = shard_for(key);
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(key);
  if (it == s.index.end()) {
    s.misses.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  s.hits.fetch_add(1, std::memory_order_relaxed);
  s.lru.splice(s.lru.begin(), s.lru, it->second);  // touch: move to front
  return it->second->payload;
}

void TileCache::insert(const Key& key, Payload payload) {
  if (payload == nullptr) return;
  const std::uint64_t size = payload->size();
  Shard& s = shard_for(key);
  if (size > shard_budget_) {
    s.oversized.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  std::lock_guard<std::mutex> lock(s.mu);
  if (const auto it = s.index.find(key); it != s.index.end()) {
    // Refresh: same key re-decoded (or raced in by another reader).
    s.bytes -= it->second->payload->size();
    s.bytes += size;
    it->second->payload = std::move(payload);
    s.lru.splice(s.lru.begin(), s.lru, it->second);
  } else {
    s.lru.push_front(Shard::Entry{key, std::move(payload)});
    s.index.emplace(key, s.lru.begin());
    s.bytes += size;
    s.insertions.fetch_add(1, std::memory_order_relaxed);
  }
  while (s.bytes > shard_budget_ && !s.lru.empty()) {
    const auto& victim = s.lru.back();
    s.bytes -= victim.payload->size();
    s.index.erase(victim.key);
    s.lru.pop_back();
    s.evictions.fetch_add(1, std::memory_order_relaxed);
  }
}

void TileCache::clear() {
  for (auto& sp : shards_) {
    std::lock_guard<std::mutex> lock(sp->mu);
    sp->lru.clear();
    sp->index.clear();
    sp->bytes = 0;
  }
}

TileCache::Stats TileCache::stats() const {
  Stats out;
  out.max_bytes = max_bytes_;
  for (const auto& sp : shards_) {
    out.hits += sp->hits.load(std::memory_order_relaxed);
    out.misses += sp->misses.load(std::memory_order_relaxed);
    out.insertions += sp->insertions.load(std::memory_order_relaxed);
    out.evictions += sp->evictions.load(std::memory_order_relaxed);
    out.oversized += sp->oversized.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(sp->mu);
    out.bytes += sp->bytes;
    out.entries += sp->index.size();
  }
  return out;
}

}  // namespace cliz
