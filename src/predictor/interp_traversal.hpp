#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "src/common/status.hpp"
#include "src/ndarray/layout.hpp"

namespace cliz {

/// Maximum number of logical axes the traversal supports (4 physical dims
/// is the most any dataset in the paper has; fusion only reduces it).
inline constexpr std::size_t kMaxAxes = 8;

/// Reference points for one interpolation target: linear offsets of the
/// four cubic references at coordinates c-3h, c-h, c+h, c+3h along the
/// current pass axis, plus whether each lies inside the array. The linear
/// fit uses entries 1 and 2.
struct InterpRefs {
  std::array<std::size_t, 4> offset;
  std::array<bool, 4> in_range;
};

/// In-range bits of the four references of a target at coordinate `c` of
/// an axis of `extent` (bit i = reference i at -3h, -h, +h, +3h; the -h
/// reference always exists).
inline unsigned ref_range_bits(std::size_t c, std::size_t h,
                               std::size_t extent) {
  return (c >= 3 * h ? 1u : 0u) | 2u | (c + h < extent ? 4u : 0u) |
         (c + 3 * h < extent ? 8u : 0u);
}

/// Reference set of the target at linear offset `off`, with references
/// `hs` elements apart per h and in-range bits `in_range`; an out-of-range
/// reference gets offset 0.
inline InterpRefs refs_at(std::size_t off, std::size_t hs, unsigned in_range) {
  InterpRefs refs{};
  for (unsigned i = 0; i < 4; ++i) {
    refs.in_range[i] = ((in_range >> i) & 1u) != 0;
  }
  refs.offset[0] = refs.in_range[0] ? off - 3 * hs : 0;
  refs.offset[1] = off - hs;
  refs.offset[2] = refs.in_range[2] ? off + hs : 0;
  refs.offset[3] = refs.in_range[3] ? off + 3 * hs : 0;
  return refs;
}

namespace detail {

/// Runs one interpolation pass: axis `d` at half-stride `h` (level stride
/// s = 2h), with per-axis steps already resolved. Calls
/// visit(offset, d, h, refs) for each target.
template <typename Visitor>
void run_pass(std::span<const AxisSpec> axes, std::size_t d, std::size_t h,
              std::size_t s, const std::array<std::size_t, kMaxAxes>& step,
              Visitor&& visit) {
  const std::size_t m = axes.size();
  const AxisSpec target_axis = axes[d];

  std::array<std::size_t, kMaxAxes> coord{};
  coord.fill(0);
  for (;;) {
    std::size_t base = 0;
    for (std::size_t j = 0; j < m; ++j) {
      if (j != d) base += coord[j] * axes[j].stride;
    }

    for (std::size_t c = h; c < target_axis.extent; c += s) {
      const std::size_t off = base + c * target_axis.stride;
      visit(off, d, h,
            refs_at(off, h * target_axis.stride,
                    ref_range_bits(c, h, target_axis.extent)));
    }

    // Advance the odometer over the non-target axes.
    std::size_t j = m;
    while (j-- > 0) {
      if (j == d) {
        if (j == 0) break;
        continue;
      }
      coord[j] += step[j];
      if (coord[j] < axes[j].extent) break;
      coord[j] = 0;
      if (j == 0) break;
    }
    bool done = true;
    for (std::size_t q = 0; q < m; ++q) {
      if (q != d && coord[q] != 0) {
        done = false;
        break;
      }
    }
    if (done) break;
  }
}

/// Base offsets of the independent 1-D lines of one pass, written to
/// `bases` in the exact order run_pass iterates them (its outer odometer
/// over the non-target axes, the last axis fastest). Every target of the
/// pass lies on exactly one line, and the pass visits lines in `bases`
/// order, targets in coordinate order within a line — so (line, target)
/// enumeration reproduces the serial visit order, which is what lets the
/// parallel encoder write codes to precomputed positions.
inline void collect_pass_lines(std::span<const AxisSpec> axes, std::size_t d,
                               const std::array<std::size_t, kMaxAxes>& step,
                               std::vector<std::size_t>& bases) {
  // One axis at a time, outermost first: every base so far becomes the
  // run of bases along the next axis. Expanding from the back keeps each
  // base readable until its own run overwrites it.
  bases.assign(1, 0);
  for (std::size_t j = 0; j < axes.size(); ++j) {
    if (j == d) continue;
    const std::size_t cnt = (axes[j].extent + step[j] - 1) / step[j];
    const std::size_t ss = step[j] * axes[j].stride;
    const std::size_t n = bases.size();
    bases.resize(n * cnt);
    for (std::size_t i = n; i-- > 0;) {
      const std::size_t b = bases[i];
      for (std::size_t q = cnt; q-- > 0;) bases[i * cnt + q] = b + q * ss;
    }
  }
}

}  // namespace detail

/// One (scale, axis) interpolation pass: level stride `s`, half-stride
/// `h = s/2`, target axis `d`, and the per-axis odometer steps (h along
/// axes already refined this level, s along the rest).
struct InterpPass {
  std::size_t s = 0;
  std::size_t h = 0;
  std::size_t d = 0;
  std::array<std::size_t, kMaxAxes> step{};
};

/// Number of targets per line of a pass over an axis of `extent`: the odd
/// multiples of h in [h, extent) at stride s. Identical for every line of
/// the pass (all lines span the same target axis).
inline std::size_t pass_line_targets(std::size_t extent, std::size_t h,
                                     std::size_t s) {
  if (extent <= h) return 0;
  return (extent - h - 1) / s + 1;
}

/// Enumerates the passes of the level-by-level traversal without running
/// them: visitor(const InterpPass&) once per non-empty pass, in execution
/// order. The workhorse behind interp_traverse_passes, exposed so the
/// line-parallel engine can schedule a pass's lines itself.
template <typename Visitor>
void interp_for_each_pass(std::span<const AxisSpec> axes,
                          std::span<const std::size_t> order,
                          Visitor&& visitor) {
  const std::size_t m = axes.size();
  CLIZ_REQUIRE(m >= 1 && m <= kMaxAxes, "unsupported number of axes");
  CLIZ_REQUIRE(order.size() == m, "pass order arity mismatch");

  std::size_t max_extent = 0;
  for (const auto& ax : axes) max_extent = std::max(max_extent, ax.extent);
  if (max_extent <= 1) return;  // single point: anchor only

  std::array<std::size_t, kMaxAxes> pos{};
  {
    std::array<bool, kMaxAxes> seen{};
    for (std::size_t k = 0; k < m; ++k) {
      CLIZ_REQUIRE(order[k] < m && !seen[order[k]], "invalid pass order");
      seen[order[k]] = true;
      pos[order[k]] = k;
    }
  }

  for (std::size_t s = std::bit_ceil(max_extent); s >= 2; s >>= 1) {
    const std::size_t h = s / 2;
    for (std::size_t k = 0; k < m; ++k) {
      const std::size_t d = order[k];
      if (axes[d].extent <= h) continue;  // no odd multiple of h exists

      InterpPass pass;
      pass.s = s;
      pass.h = h;
      pass.d = d;
      for (std::size_t j = 0; j < m; ++j) pass.step[j] = pos[j] < k ? h : s;
      visitor(std::as_const(pass));
    }
  }
}

/// SZ3-style level-by-level interpolation traversal over logical axes,
/// exposing pass boundaries.
///
/// Starting from stride s = bit_ceil(max extent) down to 2, each level runs
/// one pass per axis in `order`; a pass over axis d targets the points whose
/// coordinate along d is an odd multiple of h = s/2, whose coordinates along
/// axes earlier in `order` are multiples of h (already refined this level)
/// and along later axes multiples of s (not yet refined). Every non-anchor
/// point is visited exactly once, and all of a target's references are
/// visited (or are the anchor) before the target itself — the invariant that
/// makes compressor/decompressor prediction parity possible.
///
/// `pass_visitor(s, h, d, run)` is called once per non-empty pass; calling
/// `run(point_visitor)` executes the pass, invoking
/// point_visitor(target_offset, axis, h, refs) per target. A pass may be run
/// more than once (QoZ probes a pass with both fittings before committing).
/// The anchor (logical origin, offset 0) is NOT visited; callers handle it
/// explicitly.
template <typename PassVisitor>
void interp_traverse_passes(std::span<const AxisSpec> axes,
                            std::span<const std::size_t> order,
                            PassVisitor&& pass_visitor) {
  interp_for_each_pass(axes, order, [&](const InterpPass& pass) {
    const auto run = [&](auto&& point_visitor) {
      detail::run_pass(axes, pass.d, pass.h, pass.s, pass.step,
                       std::forward<decltype(point_visitor)>(point_visitor));
    };
    pass_visitor(pass.s, pass.h, pass.d, run);
  });
}

/// Flat traversal: visit(target_offset, axis, h, refs) over every pass in
/// order. Equivalent to interp_traverse_passes with a pass visitor that
/// just runs each pass once.
template <typename Visitor>
void interp_traverse(std::span<const AxisSpec> axes,
                     std::span<const std::size_t> order, Visitor&& visit) {
  interp_traverse_passes(
      axes, order,
      [&](std::size_t /*s*/, std::size_t /*h*/, std::size_t /*d*/,
          auto&& run) { run(visit); });
}

}  // namespace cliz
