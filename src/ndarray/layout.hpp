#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/ndarray/shape.hpp"

namespace cliz {

/// One logical axis over physical memory: iterating it advances the linear
/// offset by `stride`, `extent` times. Fused dimensions are expressed as a
/// single AxisSpec whose extent is the product of the fused extents.
struct AxisSpec {
  std::size_t extent = 0;
  std::size_t stride = 0;

  friend bool operator==(const AxisSpec&, const AxisSpec&) = default;
};

/// Partition of the physical dimensions into runs of *adjacent* dims, in
/// storage order. Each run becomes one logical axis ("dimension fusion",
/// paper section VI-C). Adjacency in row-major storage is what makes the
/// fused axis a valid single stride.
class FusionSpec {
 public:
  /// groups: inclusive [first,last] ranges covering 0..ndims-1 in order.
  explicit FusionSpec(std::vector<std::pair<std::size_t, std::size_t>> groups)
      : groups_(std::move(groups)) {
    CLIZ_REQUIRE(!groups_.empty(), "fusion needs at least one group");
    std::size_t expect = 0;
    for (const auto& [first, last] : groups_) {
      CLIZ_REQUIRE(first == expect, "fusion groups must tile dims in order");
      CLIZ_REQUIRE(last >= first, "fusion group reversed");
      expect = last + 1;
    }
  }

  /// Identity fusion: every physical dim stays its own logical axis.
  static FusionSpec none(std::size_t ndims) {
    std::vector<std::pair<std::size_t, std::size_t>> g;
    g.reserve(ndims);
    for (std::size_t i = 0; i < ndims; ++i) g.emplace_back(i, i);
    return FusionSpec(std::move(g));
  }

  [[nodiscard]] std::size_t ngroups() const noexcept { return groups_.size(); }
  [[nodiscard]] std::size_t ndims() const noexcept {
    return groups_.back().second + 1;
  }
  [[nodiscard]] const std::vector<std::pair<std::size_t, std::size_t>>&
  groups() const noexcept {
    return groups_;
  }

  /// Group index owning a physical dim.
  [[nodiscard]] std::size_t group_of(std::size_t dim) const {
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      if (dim >= groups_[g].first && dim <= groups_[g].second) return g;
    }
    throw Error("cliz: dim outside fusion spec");
  }

  /// Paper-style label, e.g. "no", "0&1", "0&1&2".
  [[nodiscard]] std::string label() const {
    std::string s;
    for (const auto& [first, last] : groups_) {
      if (first == last) continue;
      if (!s.empty()) s += ",";
      for (std::size_t d = first; d <= last; ++d) {
        if (d != first) s += "&";
        s += std::to_string(d);
      }
    }
    return s.empty() ? "no" : s;
  }

  friend bool operator==(const FusionSpec& a, const FusionSpec& b) {
    return a.groups_ == b.groups_;
  }

  /// Moves the group storage out so a deserializer can refill it in place
  /// (capacity kept) and rebuild the spec without reallocating. The
  /// moved-from spec is only valid for destruction/assignment.
  [[nodiscard]] std::vector<std::pair<std::size_t, std::size_t>>
  take_groups() && {
    return std::move(groups_);
  }

 private:
  std::vector<std::pair<std::size_t, std::size_t>> groups_;
};

/// Logical axes of `shape` after applying `fusion`. A run of adjacent
/// physical dims [i..j] becomes one axis with extent prod(dims[i..j]) and
/// stride strides[j] (valid because row-major adjacency makes the run
/// contiguous at that stride).
inline std::vector<AxisSpec> fused_axes(const Shape& shape,
                                        const FusionSpec& fusion) {
  CLIZ_REQUIRE(fusion.ndims() == shape.ndims(),
               "fusion arity does not match shape");
  std::vector<AxisSpec> axes;
  axes.reserve(fusion.ngroups());
  for (const auto& [first, last] : fusion.groups()) {
    std::size_t extent = 1;
    for (std::size_t d = first; d <= last; ++d) extent *= shape.dim(d);
    axes.push_back({extent, shape.stride(last)});
  }
  return axes;
}

/// Scratch-reusing variant of fused_axes: fills `axes` in place (capacity
/// kept), for steady-state allocation-free codec paths.
inline void fused_axes_into(const Shape& shape, const FusionSpec& fusion,
                            std::vector<AxisSpec>& axes) {
  CLIZ_REQUIRE(fusion.ndims() == shape.ndims(),
               "fusion arity does not match shape");
  axes.clear();
  for (const auto& [first, last] : fusion.groups()) {
    std::size_t extent = 1;
    for (std::size_t d = first; d <= last; ++d) extent *= shape.dim(d);
    axes.push_back({extent, shape.stride(last)});
  }
}

/// Order of logical axes induced by a permutation of the *physical* dims:
/// logical groups are ordered by the first appearance of any member dim in
/// the physical permutation. This is how a paper-style combo like sequence
/// "201" + fusion "1&2" resolves to a pass order over the fused axes.
/// Fills `order` in place (capacity kept). The seen-set is a plain bitmask
/// — group counts are bounded by the axis limit, far under 64 — so the
/// whole computation is allocation-free once `order` has settled.
inline void induced_axis_order_into(const FusionSpec& fusion,
                                    std::span<const std::size_t> phys_perm,
                                    std::vector<std::size_t>& order) {
  CLIZ_REQUIRE(fusion.ngroups() <= 64, "too many fused groups");
  order.clear();
  std::uint64_t seen = 0;
  for (const std::size_t d : phys_perm) {
    const std::size_t g = fusion.group_of(d);
    if ((seen & (std::uint64_t{1} << g)) == 0) {
      seen |= std::uint64_t{1} << g;
      order.push_back(g);
    }
  }
  CLIZ_REQUIRE(order.size() == fusion.ngroups(),
               "permutation does not cover all dims");
}

/// All partitions of `ndims` physical dims into adjacent runs
/// (2^(ndims-1) of them; 4 for 3-D, matching the paper's enumeration).
std::vector<FusionSpec> all_fusions(std::size_t ndims);

/// All permutations of 0..n-1 in lexicographic order.
std::vector<std::vector<std::size_t>> all_permutations(std::size_t n);

/// Compact label for a permutation, e.g. "201".
std::string perm_label(std::span<const std::size_t> perm);

}  // namespace cliz
