#pragma once

// Shared decoded-tile cache: a sharded LRU of decoded sample bytes keyed by
// (frame, tile). Region reads over gridded climate variables are
// overwhelmingly small, overlapping windows (a map pan, a time scrub), so
// the same tiles decode over and over; the cache turns the repeat decode
// into a memcpy. One cache instance is meant to be shared by every reader
// of a process, which is why it is internally synchronized and
// byte-budgeted through ResourceLimits rather than entry-counted.
//
// Keys are a 64-bit frame namespace (ChunkedReader passes a digest of the
// frame's tile index, which covers every tile's payload CRC) plus the
// tile's index and payload digest. The same frame bytes share entries
// wherever they are read from. Values are immutable shared buffers, so a
// hit can be scattered into the caller's window while another thread
// evicts the entry.

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/governor.hpp"

namespace cliz {

class TileCache {
 public:
  /// Identity of one decoded tile. `digest` is the tile's compressed-payload
  /// CRC32C: two frames that collide on
  /// `frame` still miss each other unless their payload bytes also collide,
  /// so a stale or cross-variable hit cannot silently serve wrong samples.
  struct Key {
    std::uint64_t frame = 0;
    std::uint64_t tile = 0;
    std::uint32_t digest = 0;

    friend bool operator==(const Key&, const Key&) = default;
  };

  using Payload = std::shared_ptr<const std::vector<std::uint8_t>>;

  /// Budget is split evenly across shards; an entry larger than one
  /// shard's slice is never cached (it would evict everything for one
  /// tile). `shards` is rounded up to a power of two.
  explicit TileCache(std::uint64_t max_bytes =
                         ResourceLimits{}.max_tile_cache_bytes,
                     std::size_t shards = 16);
  ~TileCache();

  TileCache(const TileCache&) = delete;
  TileCache& operator=(const TileCache&) = delete;

  /// Returns the cached decoded bytes, or nullptr on miss. Counts a hit or
  /// a miss either way.
  [[nodiscard]] Payload lookup(const Key& key);

  /// Inserts (or refreshes) an entry, evicting least-recently-used entries
  /// of the same shard until the shard fits its budget slice. Oversized
  /// payloads are counted (stats().oversized) and dropped.
  void insert(const Key& key, Payload payload);

  /// Drops every entry (budget and shard count are kept).
  void clear();

  /// Point-in-time telemetry; counters are monotonic since construction.
  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    std::uint64_t oversized = 0;   ///< inserts dropped for exceeding a shard
    std::uint64_t bytes = 0;       ///< decoded bytes currently resident
    std::uint64_t entries = 0;     ///< entries currently resident
    std::uint64_t max_bytes = 0;   ///< configured budget
  };
  [[nodiscard]] Stats stats() const;

  [[nodiscard]] std::uint64_t max_bytes() const noexcept { return max_bytes_; }

 private:
  struct Shard;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t max_bytes_ = 0;
  std::uint64_t shard_budget_ = 0;

  [[nodiscard]] Shard& shard_for(const Key& key) const;
};

}  // namespace cliz
