#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "src/common/status.hpp"

namespace cliz {

/// One entry of a symbol census: a symbol and its occurrence count.
struct SymbolCount {
  std::uint32_t symbol = 0;
  std::uint64_t count = 0;
};

/// The input every entropy coder builds its tables from: symbols strictly
/// ascending, counts positive. Raises cliz::Error otherwise.
inline void require_valid_census(std::span<const SymbolCount> census) {
  for (std::size_t i = 0; i < census.size(); ++i) {
    CLIZ_REQUIRE(census[i].count > 0 &&
                     (i == 0 || census[i].symbol > census[i - 1].symbol),
                 "census not strictly ascending with positive counts");
  }
}

/// Symbol census over a known alphabet [0, alphabet). Counts live in a flat
/// array indexed by symbol, and the symbols seen since reset() are listed,
/// so reset() and counts() touch only those, never the whole alphabet.
/// Storage is kept across resets: a census owned by a CodecContext recounts
/// with no steady-state allocations. The count array comes from calloc, so
/// pages no symbol lands on stay unmapped, and growing it replaces the
/// all-zero array instead of copying it.
class SymbolCensus {
 public:
  /// Empties the census and sizes it for symbols in [0, alphabet).
  void reset(std::size_t alphabet) {
    for (const std::uint32_t s : seen_) counts_[s] = 0;
    seen_.clear();
    if (counts_ == nullptr || alphabet > capacity_) {
      // Every count is zero here, so the array is replaced, not copied.
      counts_.reset();
      counts_.reset(static_cast<std::uint64_t*>(std::calloc(
          std::max<std::size_t>(alphabet, 1), sizeof(std::uint64_t))));
      if (counts_ == nullptr) throw std::bad_alloc();
      capacity_ = alphabet;
    }
    alphabet_ = alphabet;
  }

  /// Counts one occurrence of `symbol` (Error when outside the alphabet).
  void add(std::uint32_t symbol) {
    CLIZ_REQUIRE(symbol < alphabet_, "symbol outside census alphabet");
    if (counts_[symbol]++ == 0) seen_.push_back(symbol);
  }

  /// Number of distinct symbols counted.
  [[nodiscard]] std::size_t size() const noexcept { return seen_.size(); }

  /// The census: symbols strictly ascending, counts positive. Valid until
  /// the next add() or reset().
  [[nodiscard]] std::span<const SymbolCount> counts() {
    std::sort(seen_.begin(), seen_.end());
    entries_.resize(seen_.size());
    for (std::size_t i = 0; i < seen_.size(); ++i) {
      entries_[i] = {seen_[i], counts_[seen_[i]]};
    }
    return entries_;
  }

 private:
  struct Free {
    void operator()(std::uint64_t* p) const noexcept { std::free(p); }
  };
  std::unique_ptr<std::uint64_t[], Free> counts_;  // by symbol; 0 = unseen
  std::size_t capacity_ = 0;  // entries allocated in counts_
  std::size_t alphabet_ = 0;  // symbols accepted since reset()
  std::vector<std::uint32_t> seen_;    // symbols with a nonzero count
  std::vector<SymbolCount> entries_;   // counts() output
};

}  // namespace cliz
