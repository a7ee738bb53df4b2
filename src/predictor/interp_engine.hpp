#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/predictor/fitting.hpp"
#include "src/predictor/interp_traversal.hpp"
#include "src/predictor/predict_kernels.hpp"
#include "src/quantizer/linear_quantizer.hpp"

namespace cliz {

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
// so within one pass reads and writes never alias and targets can run on
// any thread in any order. The engine runs a pass as rows — one target
// coordinate across a block of lines, the vector lanes over lines — in
// parallel over blocks. Codes land at their line-major positions and
// escapes are filed by code position, so the emitted stream is
// byte-identical to the serial engine for every thread count.
// ---------------------------------------------------------------------------

/// Minimum targets in a pass before its line blocks are dispatched in
/// parallel; below this the fork/join overhead outweighs the work
/// (bench_codec_speed puts the break-even around a few thousand
/// quantizations per fork).
inline constexpr std::size_t kLineParallelGrain = 4096;

/// Reusable scratch for the line-parallel engine (owned by CodecContext),
/// reused across passes and chunks so the hot path never allocates.
struct InterpLineScratch {
  std::vector<std::size_t> line_base;   ///< per-line base offsets of a pass
  std::vector<std::size_t> line_start;  ///< exclusive per-line code prefix
  std::vector<double> probe_lin;        ///< dynamic-fit probe terms, linear
  std::vector<double> probe_cub;        ///< dynamic-fit probe terms, cubic
  std::vector<std::uint8_t> probe_valid;
  std::vector<std::uint64_t> dec_offsets;  ///< decode: pass target offsets
  std::vector<std::uint32_t> dec_codes;    ///< decode: pass code batch
  std::vector<std::size_t> dec_escapes;    ///< decode: pass escape positions
  std::vector<std::size_t> dec_block_escapes;  ///< decode: first per block

  /// Encode: one (position, value) escape list per concurrent block range.
  template <typename T>
  [[nodiscard]] std::vector<std::vector<RowEscape<T>>>& block_escapes();

 private:
  std::vector<std::vector<RowEscape<float>>> esc_f32_;
  std::vector<std::vector<RowEscape<double>>> esc_f64_;
};

template <>
[[nodiscard]] inline std::vector<std::vector<RowEscape<float>>>&
InterpLineScratch::block_escapes<float>() {
  return esc_f32_;
}
template <>
[[nodiscard]] inline std::vector<std::vector<RowEscape<double>>>&
InterpLineScratch::block_escapes<double>() {
  return esc_f64_;
}

namespace detail {

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

/// Writes the linear offset of every valid target of a pass to `dst` at
/// its code position: line ln's targets in coordinate order from start[ln].
inline void pass_target_offsets(std::span<const std::size_t> line_base,
                                std::span<const std::size_t> start,
                                const AxisSpec& ax, const InterpPass& pass,
                                std::size_t tpl, const std::uint8_t* validity,
                                std::uint64_t* dst) {
  const std::size_t grain = std::max<std::size_t>(
      2, kLineParallelGrain / std::max<std::size_t>(tpl, std::size_t{1}));
  parallel_for(0, line_base.size(), grain, [&](std::size_t ln) {
    std::uint64_t* out = dst + start[ln];
    std::uint64_t* const end = dst + start[ln + 1];
    for (std::size_t c = pass.h; out != end; c += pass.s) {
      // Branch-free over the mask: a masked target's offset is written
      // and then overwritten by the line's next valid target.
      const std::size_t off = line_base[ln] + c * ax.stride;
      *out = off;
      out += validity == nullptr || validity[off] != 0 ? 1 : 0;
    }
  });
}

/// Number of parallel parts a pass of `n_lines` lines and `codes` codes
/// runs in: whole row blocks per part, one part below kLineParallelGrain.
inline std::size_t row_block_parts(std::size_t n_lines, std::size_t codes) {
  const std::size_t n_blocks = (n_lines + kRowBlock - 1) / kRowBlock;
  const auto workers =
      static_cast<std::size_t>(std::max(1, hardware_threads()));
  return codes >= kLineParallelGrain ? std::min(n_blocks, workers) : 1;
}

/// Rows per staged window (see run_row_blocks).
inline constexpr std::size_t kStageRows = 16;
/// Coordinates a staged window holds per lane: its rows' targets and
/// their references, from 3h before the first target to 3h past the last.
inline constexpr std::size_t kStageCoords = 2 * kStageRows + 5;

/// Whether the lanes of a row would crowd a few L1 sets: lines that lie a
/// multiple of 1 KiB apart share at most four of the 64 sets a 4 KiB cache
/// way has, so every row of a block evicts the lines the next row reads.
template <typename T>
bool rows_alias(std::span<const std::size_t> line_base) {
  return line_base.size() > 1 &&
         (line_base[1] - line_base[0]) * sizeof(T) % 1024 == 0;
}

/// Lane k's line base in a staged window: lanes are interleaved.
inline constexpr auto kStageLanes = [] {
  std::array<std::size_t, kRowBlock> ids{};
  for (std::size_t k = 0; k < kRowBlock; ++k) ids[k] = k;
  return ids;
}();

/// Fills the staged window whose first target is `cw`: coordinate c of
/// lane k goes to stage[((c + 3h - cw) / h) * kRowBlock + k], for every
/// in-range grid point from 3h before cw to 3h past the window's last
/// target, and for the targets too when `targets` is set (the encoder
/// reads them).
template <typename T>
void stage_window(const T* data, const std::size_t* base, std::size_t lanes,
                  const AxisSpec& ax, const InterpPass& pass, std::size_t cw,
                  bool targets, T* stage) {
  const std::size_t h = pass.h;
  const std::size_t st = ax.stride;
  const std::size_t first = cw >= 3 * h ? cw - 3 * h : 0;
  const std::size_t last =
      std::min(ax.extent - 1, cw + (kStageRows - 1) * pass.s + 3 * h);
  const std::size_t step = targets ? h : pass.s;
  const std::size_t du = (targets ? 1 : 2) * kRowBlock;
  T* const row0 = stage + (first + 3 * h - cw) / h * kRowBlock;
  for (std::size_t k = 0; k < lanes; ++k) {
    const T* src = data + base[k];
    T* dst = row0 + k;
    for (std::size_t x = first; x <= last; x += step, dst += du) {
      *dst = src[x * st];
    }
  }
}

/// Copies the valid targets of the staged window from `cw` back to `data`.
template <typename T>
void unstage_window(T* data, const std::size_t* base, std::size_t lanes,
                    const AxisSpec& ax, const InterpPass& pass, std::size_t cw,
                    const std::uint8_t* validity, const T* stage) {
  const std::size_t n = std::min(kStageRows, (ax.extent - 1 - cw) / pass.s + 1);
  const std::size_t step = pass.s * ax.stride;
  for (std::size_t k = 0; k < lanes; ++k) {
    const std::size_t o = base[k] + cw * ax.stride;
    const T* src = stage + 3 * kRowBlock + k;
    for (std::size_t j = 0; j < n; ++j) {
      if (validity == nullptr || validity[o + j * step] != 0) {
        data[o + j * step] = src[j * 2 * kRowBlock];
      }
    }
  }
}

/// Splits a pass's lines into `parts` ranges of whole row blocks (the last
/// block may be short), run in parallel. Each block of kRowBlock lines runs
/// row(part, block, r, cursors, dp, cds) once per target coordinate,
/// `block` being its index in the pass; cds[cursors[k]] is where lane k's
/// next code goes. Unstaged, that is `codes` at the line-major position
/// (start[ln] plus the valid targets already coded on the line), and `dp`
/// is `data`.
///
/// When the lines alias in the cache (rows_alias), `dp` is instead a window
/// of kStageRows rows copied out of `data` with the lanes interleaved
/// (stage_window): the block's rows then touch a few contiguous cache
/// lines, and each window's targets are copied back before the next window
/// is filled. The encoder (`escapes` set, one list per part) reads the
/// targets and writes codes, so its window also stages codes: lane k codes
/// into a slice of kStageRows codes, which moves to the lane's line-major
/// position when the window closes, and the window's escapes take their
/// line-major positions.
template <typename T, typename Row>
void run_row_blocks(T* data, std::uint32_t* codes,
                    std::vector<RowEscape<T>>* escapes,
                    std::span<const std::size_t> line_base,
                    std::span<const std::size_t> start, const AxisSpec& ax,
                    const InterpPass& pass, FittingKind fit,
                    const std::uint8_t* validity, std::size_t parts,
                    Row&& row) {
  const std::size_t n_lines = line_base.size();
  const std::size_t n_blocks = (n_lines + kRowBlock - 1) / kRowBlock;
  const std::size_t st = ax.stride;
  const std::size_t h = pass.h;
  const bool staged = rows_alias<T>(line_base);
  const bool encode = escapes != nullptr;
  ErrorLatch latch;
  parallel_for(0, parts, 2, [&](std::size_t part) {
    latch.run([&] {
      const std::size_t lo = kRowBlock * (n_blocks * part / parts);
      const std::size_t hi =
          std::min(n_lines, kRowBlock * (n_blocks * (part + 1) / parts));
      std::array<std::size_t, kRowBlock> cursor;
      // The kernels keep each lane's reference values here (InterpRow::ring).
      alignas(32) std::array<double, 4 * kRowBlock> ring;
      // Masked rows: each lane's reference validity bits slide one grid
      // point (s) per row, so a row loads two bytes per lane: the new +3h
      // reference and the target.
      std::array<std::uint32_t, kRowBlock> lane_valid;
      alignas(32) std::array<T, kStageCoords * kRowBlock> stage;
      // Encoder windows: lane k's codes at wcodes[k * kStageRows + j].
      std::array<std::size_t, kRowBlock> wcursor;
      std::array<std::uint32_t, kRowBlock * kStageRows> wcodes;
      std::size_t wesc = 0;  // the window's first escape
      for (std::size_t b = lo; b < hi; b += kRowBlock) {
        const std::size_t lanes = std::min(kRowBlock, hi - b);
        const std::size_t* base = line_base.data() + b;
        std::copy_n(start.data() + b, lanes, cursor.data());
        if (validity != nullptr) {
          // Before the first row: grid points 0 and 1 (coordinates 0, s)
          // in bits 2 and 3; bit 1 stands for grid point -1.
          const bool second = pass.s < ax.extent;
          for (std::size_t k = 0; k < lanes; ++k) {
            const auto g0 = static_cast<std::uint32_t>(validity[base[k]] != 0);
            const auto g1 = static_cast<std::uint32_t>(
                second && validity[base[k] + pass.s * st] != 0);
            lane_valid[k] = g0 << 2 | g1 << 3;
          }
        }
        InterpRow r{staged ? kStageLanes.data() : base,
                    lanes,
                    0,
                    0,
                    staged ? kRowBlock : h * st,
                    0,
                    fit,
                    validity != nullptr ? lane_valid.data() : nullptr,
                    ring.data()};
        std::size_t cw = 0;  // first target of the staged window
        const auto close_window = [&] {
          unstage_window(data, base, lanes, ax, pass, cw, validity,
                         stage.data());
          if (!encode) return;
          std::vector<RowEscape<T>>& esc = escapes[part];
          for (std::size_t i = wesc; i < esc.size(); ++i) {
            const std::size_t k = esc[i].pos / kStageRows;
            esc[i].pos = cursor[k] + esc[i].pos % kStageRows;
          }
          for (std::size_t k = 0; k < lanes; ++k) {
            const std::size_t n = wcursor[k] - k * kStageRows;
            std::copy_n(wcodes.data() + k * kStageRows, n,
                        codes + cursor[k]);
            cursor[k] += n;
          }
        };
        for (std::size_t c = h; c < ax.extent; c += pass.s, ++r.index) {
          const std::size_t off = c * st;
          r.in_range = ref_range_bits(c, h, ax.extent);
          if (validity != nullptr) {
            const std::size_t far = off + 3 * h * st;  // the +3h reference
            const bool in = (r.in_range & 8u) != 0;
            for (std::size_t k = 0; k < lanes; ++k) {
              const std::uint8_t* v = validity + base[k];
              lane_valid[k] =
                  (lane_valid[k] >> 1 & 0x7u) |
                  static_cast<std::uint32_t>(in && v[far] != 0) << 3 |
                  (v[off] != 0 ? kTargetValid : 0u);
            }
          }
          if (!staged) {
            r.off = off;
            row(part, b / kRowBlock, r, cursor.data(), data, codes);
            continue;
          }
          if (r.index % kStageRows == 0) {
            if (r.index != 0) close_window();
            cw = c;
            stage_window<T>(data, base, lanes, ax, pass, cw, encode,
                            stage.data());
            if (encode) {
              for (std::size_t k = 0; k < lanes; ++k) {
                wcursor[k] = k * kStageRows;
              }
              wesc = escapes[part].size();
            }
          }
          r.off = ((c + 3 * h - cw) / h) * kRowBlock;
          if (encode) {
            row(part, b / kRowBlock, r, wcursor.data(), stage.data(),
                wcodes.data());
          } else {
            row(part, b / kRowBlock, r, cursor.data(), stage.data(), codes);
          }
        }
        if (staged) close_window();
      }
    });
  });
  latch.rethrow_if_failed();
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
        const InterpRefs refs = refs_at(off, pass.h * ax.stride,
                                        ref_range_bits(c, pass.h, ax.extent));
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
/// byte per pass appended to `pass_fits`, 1 = cubic). Emits codes,
/// outliers and pass_fits by appending, in the serial traversal order —
/// byte-identical for every thread count, including masked inputs. Only
/// bin classification reads the target offsets, so they are appended to
/// `offsets` (one per code) only when it is non-null.
template <typename T>
void interp_encode_lines(T* data, std::span<const AxisSpec> axes,
                         std::span<const std::size_t> order, bool dynamic,
                         FittingKind fallback_fit,
                         const LinearQuantizer<T>& quantizer,
                         const std::uint8_t* validity,
                         std::vector<std::uint64_t>* offsets,
                         std::vector<std::uint32_t>& codes,
                         std::vector<T>& outliers,
                         std::vector<std::uint8_t>& pass_fits,
                         InterpLineScratch& scratch) {
  if (validity == nullptr || validity[0] != 0) {
    if (offsets != nullptr) offsets->push_back(0);
    codes.push_back(quantizer.quantize(data[0], T{0}, outliers));
  }
  const InterpKernelTable<T>& kt = interp_kernels<T>();
  auto& escapes = scratch.block_escapes<T>();
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
    if (offsets != nullptr) {
      offsets->resize(cbase + tot);
      detail::pass_target_offsets(line_base, start, ax, pass, tpl, validity,
                                  offsets->data() + cbase);
    }
    const std::size_t parts = detail::row_block_parts(n_lines, tot);
    if (escapes.size() < parts) escapes.resize(parts);
    detail::run_row_blocks(
        data, codes.data() + cbase, escapes.data(), line_base, start, ax,
        pass, fit, validity, parts,
        [&](std::size_t part, std::size_t, const InterpRow& row,
            std::size_t* cursor, T* dp, std::uint32_t* cds) {
          kt.encode_row(dp, row, quantizer, cursor, cds, escapes[part]);
        });
    // Rows file escapes row by row; the stream wants them in code
    // (line-major) order. Parts cover ascending line ranges, so their
    // sorted escapes concatenate to the serial order whatever the
    // partition.
    for (std::size_t part = 0; part < parts; ++part) {
      auto& esc = escapes[part];
      std::sort(esc.begin(), esc.end(),
                [](const RowEscape<T>& a, const RowEscape<T>& b) {
                  return a.pos < b.pos;
                });
      for (const RowEscape<T>& e : esc) outliers.push_back(e.value);
      esc.clear();
    }
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
      detail::pass_target_offsets(line_base, start, ax, pass, tpl, validity,
                                  dec_offs.data());
      offs = dec_offs.data();
    }
    fetch(offs, cds.data(), tot);

    // One scan validates the codes and the outlier supply, which keeps
    // dequantize() and the escape reads safe inside the parallel region
    // below, and lists the escape positions in code order. The vectorized
    // scan's max-code check is equivalent to checking every non-zero code
    // (zeros are below any legal limit).
    auto& esc = scratch.dec_escapes;
    esc.clear();
    const CodeScan scan = kt.scan_codes(cds.data(), tot, esc);
    CLIZ_REQUIRE(scan.max_code < 2 * quantizer.radius(),
                 "quantization code out of range");
    CLIZ_REQUIRE(outlier_cursor + scan.zeros <= outliers.size(),
                 "outlier stream truncated");
    // Per row block the index of its first escape, so a block's escapes
    // rank within its own slice.
    auto& block_esc = scratch.dec_block_escapes;
    const std::size_t n_blocks = (n_lines + kRowBlock - 1) / kRowBlock;
    block_esc.resize(n_blocks + 1);
    for (std::size_t bi = 0, e = 0; bi <= n_blocks; ++bi) {
      const std::size_t first = start[std::min(bi * kRowBlock, n_lines)];
      while (e < esc.size() && esc[e] < first) ++e;
      block_esc[bi] = e;
    }
    const T* pass_outl = outliers.data() + outlier_cursor;

    detail::run_row_blocks(
        out, cds.data(), static_cast<std::vector<RowEscape<T>>*>(nullptr),
        line_base, start, ax, pass, fit, validity,
        detail::row_block_parts(n_lines, tot),
        [&](std::size_t, std::size_t block, const InterpRow& row,
            std::size_t* cursor, T* dp, const std::uint32_t* codes) {
          const std::size_t e0 = block_esc[block];
          const PassOutliers<T> block_outl{esc.data() + e0, pass_outl + e0,
                                           block_esc[block + 1] - e0};
          kt.decode_row(dp, row, quantizer, cursor, codes, block_outl);
        });
    outlier_cursor += scan.zeros;
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
