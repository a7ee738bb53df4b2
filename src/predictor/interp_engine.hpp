#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/predictor/fitting.hpp"
#include "src/predictor/interp_traversal.hpp"
#include "src/predictor/predict_kernels.hpp"
#include "src/quantizer/linear_quantizer.hpp"

namespace cliz {

/// Computes the fitting prediction for one target given the reference set.
/// A reference participates only when it is inside the array AND valid per
/// the optional mask (`validity` indexed by linear offset, nullptr = all
/// valid); invalid references get coefficient zero via the Theorem-1 tables,
/// so masked garbage never leaks into a prediction.
template <typename T>
T interp_predict(const T* data, const InterpRefs& refs,
                 const std::uint8_t* validity, FittingKind fit) {
  unsigned vm = 0;
  for (unsigned i = 0; i < 4; ++i) {
    const bool v = refs.in_range[i] &&
                   (validity == nullptr || validity[refs.offset[i]] != 0);
    vm |= static_cast<unsigned>(v) << i;
  }
  if (fit == FittingKind::kCubic) {
    const CubicFit& f = cubic_fit(vm);
    double p = 0.0;
    for (unsigned i = 0; i < 4; ++i) {
      if (f.p[i] != 0.0) p += f.p[i] * static_cast<double>(data[refs.offset[i]]);
    }
    return static_cast<T>(p);
  }
  const auto lf = linear_fit((vm >> 1) & 1u, (vm >> 2) & 1u);
  double p = 0.0;
  if (lf[0] != 0.0) p += lf[0] * static_cast<double>(data[refs.offset[1]]);
  if (lf[1] != 0.0) p += lf[1] * static_cast<double>(data[refs.offset[2]]);
  return static_cast<T>(p);
}

/// Encode side of the interpolation codec: walks the traversal, predicts,
/// quantizes (mutating `data` to the reconstruction so later predictions
/// match the decoder), and hands each emitted code to `sink(offset, code)`.
/// Masked targets (validity[off] == 0) are skipped entirely — no bin is
/// emitted for them (paper VI-B). The anchor (offset 0) is quantized first
/// with prediction 0 when valid.
template <typename T, typename BinSink>
void interp_encode(T* data, std::span<const AxisSpec> axes,
                   std::span<const std::size_t> order, FittingKind fit,
                   const LinearQuantizer<T>& quantizer,
                   std::vector<T>& outliers, const std::uint8_t* validity,
                   BinSink&& sink) {
  if (validity == nullptr || validity[0] != 0) {
    sink(std::size_t{0}, quantizer.quantize(data[0], T{0}, outliers));
  }
  interp_traverse(axes, order,
                  [&](std::size_t off, std::size_t /*axis*/,
                      std::size_t /*h*/, const InterpRefs& refs) {
                    if (validity != nullptr && validity[off] == 0) return;
                    const T pred = interp_predict(data, refs, validity, fit);
                    sink(off, quantizer.quantize(data[off], pred, outliers));
                  });
}

/// Decode side: identical traversal, predictions from already-reconstructed
/// values; `source(offset)` must return the codes in the same order sink
/// received them. Masked targets are skipped and must be filled by the
/// caller afterwards.
template <typename T, typename BinSource>
void interp_decode(T* data, std::span<const AxisSpec> axes,
                   std::span<const std::size_t> order, FittingKind fit,
                   const LinearQuantizer<T>& quantizer,
                   std::span<const T> outliers, std::size_t& outlier_cursor,
                   const std::uint8_t* validity, BinSource&& source) {
  if (validity == nullptr || validity[0] != 0) {
    data[0] = quantizer.recover(source(std::size_t{0}), T{0}, outliers,
                                outlier_cursor);
  }
  interp_traverse(axes, order,
                  [&](std::size_t off, std::size_t /*axis*/,
                      std::size_t /*h*/, const InterpRefs& refs) {
                    if (validity != nullptr && validity[off] == 0) return;
                    const T pred = interp_predict(data, refs, validity, fit);
                    data[off] = quantizer.recover(source(off), pred, outliers,
                                                  outlier_cursor);
                  });
}

// ---------------------------------------------------------------------------
// Line-parallel engine. A pass's targets are partitioned into independent
// 1-D lines along the active axis: every reference of a target sits at an
// even multiple of h along that axis (refined in an earlier pass or level),
// so within one pass reads and writes never alias and lines can run on any
// thread in any order. Codes land at precomputed disjoint positions and
// per-block outlier runs are concatenated in line order, so the emitted
// stream is byte-identical to the serial engine for every thread count.
// ---------------------------------------------------------------------------

/// Minimum targets in a pass before its lines are dispatched in parallel;
/// below this the fork/join overhead outweighs the work (bench_codec_speed
/// puts the break-even around a few thousand quantizations per fork).
inline constexpr std::size_t kLineParallelGrain = 4096;

/// Reusable scratch for the line-parallel engine (owned by CodecContext).
/// The per-block staging holds one outlier run per concurrent line block,
/// reused across passes and chunks so the hot path never allocates.
struct InterpLineScratch {
  std::vector<std::size_t> line_base;   ///< per-line base offsets of a pass
  std::vector<std::size_t> line_start;  ///< exclusive per-line code prefix
  std::vector<std::size_t> line_zero;   ///< decode: per-line outlier prefix
  std::vector<double> probe_lin;        ///< dynamic-fit probe terms, linear
  std::vector<double> probe_cub;        ///< dynamic-fit probe terms, cubic
  std::vector<std::uint8_t> probe_valid;
  std::vector<std::uint64_t> dec_offsets;  ///< decode: pass target offsets
  std::vector<std::uint32_t> dec_codes;    ///< decode: pass code batch

  template <typename T>
  [[nodiscard]] std::vector<std::vector<T>>& block_outliers();

 private:
  std::vector<std::vector<float>> outl_f32_;
  std::vector<std::vector<double>> outl_f64_;
};

template <>
[[nodiscard]] inline std::vector<std::vector<float>>&
InterpLineScratch::block_outliers<float>() {
  return outl_f32_;
}
template <>
[[nodiscard]] inline std::vector<std::vector<double>>&
InterpLineScratch::block_outliers<double>() {
  return outl_f64_;
}

namespace detail {

/// Reference offsets for the target at coordinate `c` (linear offset `off`)
/// along the pass axis — identical to the refs run_pass builds.
inline InterpRefs line_refs(std::size_t off, std::size_t c, std::size_t h,
                            const AxisSpec& ax) {
  InterpRefs refs{};
  refs.in_range[0] = c >= 3 * h;
  refs.in_range[1] = true;  // c >= h by construction
  refs.in_range[2] = c + h < ax.extent;
  refs.in_range[3] = c + 3 * h < ax.extent;
  refs.offset[0] = refs.in_range[0] ? off - 3 * h * ax.stride : 0;
  refs.offset[1] = off - h * ax.stride;
  refs.offset[2] = refs.in_range[2] ? off + h * ax.stride : 0;
  refs.offset[3] = refs.in_range[3] ? off + 3 * h * ax.stride : 0;
  return refs;
}

/// Interior index range [lo, hi) of a line's n targets: the targets whose
/// references (for this fitting) are all in range, so the branch-free
/// fixed-coefficient kernel applies.
inline std::pair<std::size_t, std::size_t> line_interior(std::size_t extent,
                                                         std::size_t h,
                                                         std::size_t s,
                                                         std::size_t n,
                                                         FittingKind fit) {
  if (fit == FittingKind::kCubic) {
    // c = h + i*s needs c >= 3h (i >= 1) and c + 3h < extent.
    const std::size_t lo = std::min<std::size_t>(1, n);
    const std::size_t raw =
        extent > 4 * h ? (extent - 4 * h + s - 1) / s : 0;
    return {lo, std::min(n, std::max(raw, lo))};
  }
  // Linear uses refs 1 and 2 only; ref 1 is always in range, ref 2 needs
  // c + h = (i+1)*s < extent.
  return {0, std::min(n, (extent - 1) / s)};
}

/// Walks one line's targets in target order and hands them out in two
/// shapes. `run(k0, v0, len)` gets each maximal run of targets k0 ..
/// k0+len-1 that are valid and whose fit references (+-h, and +-3h for
/// cubic) are all in range and valid: there the Theorem-1 row is the
/// all-valid one, so the fixed-coefficient interior kernels apply.
/// `edge(c, v)` gets every other valid target, at coordinate c. `v` and
/// `v0` count the valid targets before it on the line — the target's slot
/// in the line's code segment, since a masked line packs its codes over
/// valid targets only. Runs and edges arrive in target order, so outliers
/// are appended and consumed in the serial order.
template <typename Run, typename Edge>
void split_line(std::size_t base, const AxisSpec& ax, std::size_t h,
                std::size_t s, FittingKind fit, const std::uint8_t* validity,
                Run&& run, Edge&& edge) {
  const std::size_t n = pass_line_targets(ax.extent, h, s);
  if (validity == nullptr) {
    const auto [lo, hi] = line_interior(ax.extent, h, s, n, fit);
    for (std::size_t i = 0; i < lo; ++i) edge(h + i * s, i);
    if (hi > lo) run(lo, lo, hi - lo);
    for (std::size_t i = hi; i < n; ++i) edge(h + i * s, i);
    return;
  }
  // Target k sits at c = h + k*s and its references at the grid points
  // (k-1)s, ks, (k+1)s, (k+2)s (s = 2h; linear reads the middle two), so
  // a target is interior when it is valid and the `need` consecutive grid
  // points ending at its last reference, k + lead, are in range and valid.
  // `grid_run` counts the consecutive valid grid points ending there;
  // cubic's k = 0 would need grid point -1, which the count never reaches.
  const std::size_t st = ax.stride;
  const std::size_t ss = s * st;
  const bool cubic = fit == FittingKind::kCubic;
  const std::size_t need = cubic ? 4 : 2;
  const std::size_t lead = cubic ? 2 : 1;
  const std::size_t n_grid = (ax.extent - 1) / s + 1;  // grid points in range
  const std::uint8_t* grid = validity + base;
  std::size_t grid_run = 0;
  for (std::size_t j = 0; j < lead && j < n_grid; ++j) {
    grid_run = grid[j * ss] != 0 ? grid_run + 1 : 0;
  }
  std::size_t v = 0;
  std::size_t run_k = 0;
  std::size_t run_v = 0;
  std::size_t run_len = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t j = k + lead;
    grid_run = j < n_grid && grid[j * ss] != 0 ? grid_run + 1 : 0;
    const bool valid = grid[h * st + k * ss] != 0;
    if (valid && grid_run >= need) {
      if (run_len == 0) {
        run_k = k;
        run_v = v;
      }
      ++run_len;
      ++v;
      continue;
    }
    if (run_len != 0) run(run_k, run_v, std::exchange(run_len, 0));
    if (valid) edge(h + k * s, v++);
  }
  if (run_len != 0) run(run_k, run_v, run_len);
}

/// Encodes one line of a pass: an (offset, code) pair per valid target into
/// off_out/code_out, outliers appended in target order. Runs go through the
/// interior kernel of `kt`, with the line base shifted to the run's first
/// target so the kernel covers [0, len); the other targets take the scalar
/// interp_predict, which every kernel tier reproduces bit for bit.
template <typename T>
void encode_line(const InterpKernelTable<T>& kt, T* data, std::size_t base,
                 const AxisSpec& ax, std::size_t h, std::size_t s,
                 FittingKind fit, const LinearQuantizer<T>& q,
                 const std::uint8_t* validity, std::uint64_t* off_out,
                 std::uint32_t* code_out, std::vector<T>& outliers) {
  const std::size_t st = ax.stride;
  const bool cubic = fit == FittingKind::kCubic;
  split_line(
      base, ax, h, s, fit, validity,
      [&](std::size_t k0, std::size_t v0, std::size_t len) {
        const std::size_t first = base + (h + k0 * s) * st;
        for (std::size_t i = 0; i < len; ++i) {
          off_out[v0 + i] = first + i * s * st;
        }
        kt.encode_interior(data + base + k0 * s * st, st, h, s, 0, len, cubic,
                           q, code_out + v0, outliers);
      },
      [&](std::size_t c, std::size_t v) {
        const std::size_t off = base + c * st;
        const T pred =
            interp_predict(data, line_refs(off, c, h, ax), validity, fit);
        off_out[v] = off;
        code_out[v] = q.quantize(data[off], pred, outliers);
      });
}

/// Decodes one line: recover() runs in target order from a line-local
/// outlier cursor (the caller prefix-summed the per-line escape counts, so
/// the cursor is exact no matter which thread runs the line).
template <typename T>
void decode_line(const InterpKernelTable<T>& kt, T* out, std::size_t base,
                 const AxisSpec& ax, std::size_t h, std::size_t s,
                 FittingKind fit, const LinearQuantizer<T>& q,
                 const std::uint8_t* validity, const std::uint32_t* codes,
                 std::span<const T> outliers, std::size_t cursor) {
  const std::size_t st = ax.stride;
  const bool cubic = fit == FittingKind::kCubic;
  split_line(
      base, ax, h, s, fit, validity,
      [&](std::size_t k0, std::size_t v0, std::size_t len) {
        kt.decode_interior(out + base + k0 * s * st, st, h, s, 0, len, cubic,
                           q, codes + v0, outliers, cursor);
      },
      [&](std::size_t c, std::size_t v) {
        const std::size_t off = base + c * st;
        const T pred =
            interp_predict(out, line_refs(off, c, h, ax), validity, fit);
        out[off] = q.recover(codes[v], pred, outliers, cursor);
      });
}

/// Exclusive per-line code-count prefix for one pass into `start`
/// (n_lines + 1 entries). Unmasked passes have `tpl` targets on every line;
/// masked ones count valid targets per line in parallel, then prefix-sum.
inline void line_code_prefix(std::span<const std::size_t> line_base,
                             const AxisSpec& ax, std::size_t h, std::size_t s,
                             std::size_t tpl, const std::uint8_t* validity,
                             std::vector<std::size_t>& start) {
  const std::size_t n_lines = line_base.size();
  start.resize(n_lines + 1);
  if (validity == nullptr) {
    for (std::size_t i = 0; i <= n_lines; ++i) start[i] = i * tpl;
    return;
  }
  const std::size_t grain =
      std::max<std::size_t>(2, kLineParallelGrain / std::max<std::size_t>(
                                                        tpl, std::size_t{1}));
  start[0] = 0;
  parallel_for(0, n_lines, grain, [&](std::size_t ln) {
    const std::size_t base = line_base[ln];
    std::size_t cnt = 0;
    for (std::size_t c = h; c < ax.extent; c += s) {
      cnt += validity[base + c * ax.stride] != 0 ? 1u : 0u;
    }
    start[ln + 1] = cnt;
  });
  for (std::size_t i = 0; i < n_lines; ++i) start[i + 1] += start[i];
}

/// Dynamic-fitting probe of one pass, parallelized by probe slot: every
/// 8th target of the pass in traversal order (masked ones skipped) is
/// predicted both linearly and cubically, and the fit with the smaller
/// summed |error| wins (cubic on ties; `fallback` when nothing was probed).
/// Each slot's |error| terms are computed independently, then summed
/// serially in slot order, so the sums — and therefore the committed fit —
/// are bit-identical at every thread count. Masked slots contribute an
/// exact 0.0, which cannot change a non-negative accumulation.
template <typename T>
FittingKind probe_pass_fit(const T* data, const AxisSpec& ax,
                           const InterpPass& pass,
                           std::span<const std::size_t> line_base,
                           std::size_t tpl, const std::uint8_t* validity,
                           FittingKind fallback, InterpLineScratch& scratch) {
  constexpr std::size_t kProbeStride = 8;
  const std::size_t total = line_base.size() * tpl;
  const std::size_t n_slots = (total + kProbeStride - 1) / kProbeStride;
  auto& lin = scratch.probe_lin;
  auto& cub = scratch.probe_cub;
  auto& valid = scratch.probe_valid;
  lin.resize(n_slots);
  cub.resize(n_slots);
  valid.resize(n_slots);
  parallel_for(
      0, n_slots, kLineParallelGrain / kProbeStride, [&](std::size_t k) {
        const std::size_t tg = k * kProbeStride;
        const std::size_t c = pass.h + (tg % tpl) * pass.s;
        const std::size_t off = line_base[tg / tpl] + c * ax.stride;
        if (validity != nullptr && validity[off] == 0) {
          lin[k] = 0.0;
          cub[k] = 0.0;
          valid[k] = 0;
          return;
        }
        const InterpRefs refs = line_refs(off, c, pass.h, ax);
        const double v = static_cast<double>(data[off]);
        lin[k] = std::abs(static_cast<double>(interp_predict(
                              data, refs, validity, FittingKind::kLinear)) -
                          v);
        cub[k] = std::abs(static_cast<double>(interp_predict(
                              data, refs, validity, FittingKind::kCubic)) -
                          v);
        valid[k] = 1;
      });
  double err_lin = 0.0;
  double err_cub = 0.0;
  std::size_t probed = 0;
  for (std::size_t k = 0; k < n_slots; ++k) {
    err_lin += lin[k];
    err_cub += cub[k];
    probed += valid[k];
  }
  if (probed == 0) return fallback;
  return err_cub <= err_lin ? FittingKind::kCubic : FittingKind::kLinear;
}

}  // namespace detail

/// Line-parallel encode used by CliZ's predict stage: the interp_encode
/// traversal, with per-pass dynamic fitting when `dynamic` is set (one
/// byte per pass appended to `pass_fits`, 1 = cubic). Emits (offset, code)
/// pairs by appending to `offsets`/`codes`, and outliers/pass_fits, in the
/// serial traversal order — byte-identical for every thread count,
/// including masked inputs.
///
/// When `fetch_marks` is non-null, the cumulative code count is recorded at
/// every boundary the decode side fetches at — after the anchor and after
/// each non-empty pass (interp_decode_lines pulls one batch per pass). The
/// per-pass entropy framing splits its segments on these marks.
template <typename T>
void interp_encode_lines(T* data, std::span<const AxisSpec> axes,
                         std::span<const std::size_t> order, bool dynamic,
                         FittingKind fallback_fit,
                         const LinearQuantizer<T>& quantizer,
                         const std::uint8_t* validity,
                         std::vector<std::uint64_t>& offsets,
                         std::vector<std::uint32_t>& codes,
                         std::vector<T>& outliers,
                         std::vector<std::uint8_t>& pass_fits,
                         InterpLineScratch& scratch,
                         std::vector<std::size_t>* fetch_marks = nullptr) {
  if (validity == nullptr || validity[0] != 0) {
    offsets.push_back(0);
    codes.push_back(quantizer.quantize(data[0], T{0}, outliers));
    if (fetch_marks != nullptr) fetch_marks->push_back(codes.size());
  }
  const InterpKernelTable<T>& kt = interp_kernels<T>();
  auto& outl_blocks = scratch.block_outliers<T>();
  interp_for_each_pass(axes, order, [&](const InterpPass& pass) {
    const AxisSpec ax = axes[pass.d];
    const std::size_t tpl = pass_line_targets(ax.extent, pass.h, pass.s);
    detail::collect_pass_lines(axes, pass.d, pass.step, scratch.line_base);
    const auto& line_base = scratch.line_base;
    const std::size_t n_lines = line_base.size();

    FittingKind fit = fallback_fit;
    if (dynamic) {
      fit = detail::probe_pass_fit(data, ax, pass, line_base, tpl, validity,
                                   fallback_fit, scratch);
      pass_fits.push_back(fit == FittingKind::kCubic ? 1 : 0);
    }

    auto& start = scratch.line_start;
    detail::line_code_prefix(line_base, ax, pass.h, pass.s, tpl, validity,
                             start);
    const std::size_t tot = start[n_lines];
    if (tot == 0) return;

    const std::size_t cbase = codes.size();
    codes.resize(cbase + tot);
    offsets.resize(cbase + tot);

    const auto workers =
        static_cast<std::size_t>(std::max(1, hardware_threads()));
    const std::size_t nblocks = tot >= kLineParallelGrain && n_lines > 1
                                    ? std::min(n_lines, workers)
                                    : 1;
    if (outl_blocks.size() < nblocks) outl_blocks.resize(nblocks);

    ErrorLatch latch;
    parallel_for(0, nblocks, 2, [&](std::size_t b) {
      latch.run([&] {
        auto& outl = outl_blocks[b];
        outl.clear();
        const std::size_t blo = n_lines * b / nblocks;
        const std::size_t bhi = n_lines * (b + 1) / nblocks;
        for (std::size_t ln = blo; ln < bhi; ++ln) {
          detail::encode_line(kt, data, line_base[ln], ax, pass.h, pass.s,
                              fit, quantizer, validity,
                              offsets.data() + cbase + start[ln],
                              codes.data() + cbase + start[ln], outl);
        }
      });
    });
    latch.rethrow_if_failed();
    // Per-block outlier runs concatenate in block (== line == visit) order,
    // so the side stream does not depend on the partition.
    for (std::size_t b = 0; b < nblocks; ++b) {
      outliers.insert(outliers.end(), outl_blocks[b].begin(),
                      outl_blocks[b].end());
    }
    if (fetch_marks != nullptr) fetch_marks->push_back(codes.size());
  });
}

/// Line-parallel decode, the inverse of interp_encode_lines. Entropy
/// decoding stays serial — `fetch(offsets, codes, n)` must fill `codes`
/// with the next n symbols in stream order — while prediction +
/// reconstruction of each pass's lines runs in parallel. Only classified
/// sources read the target offsets, so they are built only when
/// `classified` is set (`offsets` is nullptr otherwise, except for the
/// anchor). Reconstructions are bit-identical to the serial decoders' for
/// every thread count.
template <typename T, typename FetchCodes>
void interp_decode_lines(T* out, std::span<const AxisSpec> axes,
                         std::span<const std::size_t> order, bool dynamic,
                         FittingKind static_fit,
                         std::span<const std::uint8_t> pass_fits,
                         const LinearQuantizer<T>& quantizer,
                         std::span<const T> outliers,
                         std::size_t& outlier_cursor,
                         const std::uint8_t* validity, bool classified,
                         InterpLineScratch& scratch, FetchCodes&& fetch) {
  if (validity == nullptr || validity[0] != 0) {
    const std::uint64_t off0 = 0;
    std::uint32_t code0 = 0;
    fetch(&off0, &code0, std::size_t{1});
    out[0] = quantizer.recover(code0, T{0}, outliers, outlier_cursor);
  }
  const InterpKernelTable<T>& kt = interp_kernels<T>();
  std::size_t pass_idx = 0;
  interp_for_each_pass(axes, order, [&](const InterpPass& pass) {
    FittingKind fit = static_fit;
    if (dynamic) {
      CLIZ_REQUIRE(pass_idx < pass_fits.size(), "pass-fit table truncated");
      fit = pass_fits[pass_idx++] != 0 ? FittingKind::kCubic
                                       : FittingKind::kLinear;
    }
    const AxisSpec ax = axes[pass.d];
    const std::size_t tpl = pass_line_targets(ax.extent, pass.h, pass.s);
    detail::collect_pass_lines(axes, pass.d, pass.step, scratch.line_base);
    const auto& line_base = scratch.line_base;
    const std::size_t n_lines = line_base.size();

    auto& start = scratch.line_start;
    detail::line_code_prefix(line_base, ax, pass.h, pass.s, tpl, validity,
                             start);
    const std::size_t tot = start[n_lines];
    if (tot == 0) return;

    auto& cds = scratch.dec_codes;
    cds.resize(tot);
    const std::uint64_t* offs = nullptr;
    if (classified) {
      auto& dec_offs = scratch.dec_offsets;
      dec_offs.resize(tot);
      const std::size_t grain = std::max<std::size_t>(
          2, kLineParallelGrain / std::max<std::size_t>(tpl, std::size_t{1}));
      parallel_for(0, n_lines, grain, [&](std::size_t ln) {
        std::uint64_t* dst = dec_offs.data() + start[ln];
        const std::size_t base = line_base[ln];
        std::size_t k = 0;
        for (std::size_t c = pass.h; c < ax.extent; c += pass.s) {
          const std::size_t off = base + c * ax.stride;
          if (validity == nullptr || validity[off] != 0) dst[k++] = off;
        }
      });
      offs = dec_offs.data();
    }
    fetch(offs, cds.data(), tot);

    // Per-line escape (code 0) prefix gives each line its outlier cursor;
    // validating codes and the outlier supply here keeps recover() from
    // throwing inside the parallel region below. The vectorized scan's
    // max-code check is equivalent to checking every non-zero code (zeros
    // are below any legal limit).
    auto& zero = scratch.line_zero;
    zero.resize(n_lines + 1);
    zero[0] = 0;
    const std::uint32_t code_limit = 2 * quantizer.radius();
    for (std::size_t ln = 0; ln < n_lines; ++ln) {
      const CodeScan scan =
          kt.scan_codes(cds.data() + start[ln], start[ln + 1] - start[ln]);
      CLIZ_REQUIRE(scan.max_code < code_limit,
                   "quantization code out of range");
      zero[ln + 1] = zero[ln] + scan.zeros;
    }
    CLIZ_REQUIRE(outlier_cursor + zero[n_lines] <= outliers.size(),
                 "outlier stream truncated");

    const auto workers =
        static_cast<std::size_t>(std::max(1, hardware_threads()));
    const std::size_t nblocks = tot >= kLineParallelGrain && n_lines > 1
                                    ? std::min(n_lines, workers)
                                    : 1;

    ErrorLatch latch;
    parallel_for(0, nblocks, 2, [&](std::size_t b) {
      latch.run([&] {
        const std::size_t blo = n_lines * b / nblocks;
        const std::size_t bhi = n_lines * (b + 1) / nblocks;
        for (std::size_t ln = blo; ln < bhi; ++ln) {
          detail::decode_line(kt, out, line_base[ln], ax, pass.h, pass.s, fit,
                              quantizer, validity, cds.data() + start[ln],
                              outliers, outlier_cursor + zero[ln]);
        }
      });
    });
    latch.rethrow_if_failed();
    outlier_cursor += zero[n_lines];
  });
  if (dynamic) {
    CLIZ_REQUIRE(pass_idx == pass_fits.size(),
                 "pass-fit table not fully consumed");
  }
}

/// Cheap fitting-error probe used by auto-tuning: walks the traversal
/// predicting from ORIGINAL values (no quantization feedback) and sums
/// |prediction - value| over every `sample_stride`-th visited point.
/// An approximation of the quantization-feedback error, good enough to rank
/// linear vs cubic and different pass orders.
template <typename T>
double interp_probe_error(const T* data, std::span<const AxisSpec> axes,
                          std::span<const std::size_t> order, FittingKind fit,
                          const std::uint8_t* validity,
                          std::size_t sample_stride = 1) {
  double total = 0.0;
  std::size_t count = 0;
  interp_traverse(axes, order,
                  [&](std::size_t off, std::size_t /*axis*/,
                      std::size_t /*h*/, const InterpRefs& refs) {
                    if (count++ % sample_stride != 0) return;
                    if (validity != nullptr && validity[off] == 0) return;
                    const T pred = interp_predict(data, refs, validity, fit);
                    total += std::abs(static_cast<double>(pred) -
                                      static_cast<double>(data[off]));
                  });
  return total;
}

}  // namespace cliz
