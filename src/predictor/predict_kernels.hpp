#pragma once

// Flat kernels for the predict/quantize hot path, dispatched at runtime
// over the cpu_features ISA tiers. Every family is a scalar reference plus
// an AVX2 variant: the scalar and SSE4.2 tiers (and every tier off x86) run
// the scalar reference, the AVX2 tier runs AVX2 kernels.
//
// The line-parallel interpolation engine has one kernel shape, the *row*:
// one target coordinate c of a pass, predicted on a block of lines at once
// with the vector lanes running over lines. Along a row every line has the
// same in-range set of +-h/+-3h references, so one Theorem-1 coefficient
// row serves every lane and line ends are ordinary rows with a smaller
// in-range set. Consecutive rows share three references, so the AVX2 kernels
// keep each lane's last four reference values in a ring (InterpRow::ring)
// and load one new value per row. On a masked field a lane whose fit
// references are not all valid takes the masked Theorem-1 fit (fit_predict,
// interp_predict's body); every other lane uses the row's coefficients,
// which equal it there bit for bit.
// Codes land at per-lane cursors (the line-major code positions), so the
// row order never shows in the stream. A row addresses its lanes only
// through base offsets, a reference distance and cursors, so the engine can
// hand the kernels a staged copy of the rows instead of the field (its
// staged windows, for lines that alias in the L1 cache).
//
// The AVX2 kernels reproduce the scalar reference bit for bit:
//  - all arithmetic is double, in the scalar accumulation order, with no
//    FMA contraction (the target attribute deliberately omits "fma");
//  - llround's half-away-from-zero is emulated exactly on top of the AVX
//    round-to-nearest-even instruction (the half-integer correction is
//    computable exactly because |scaled| < radius <= 2^30);
//  - escapes are filed (encode) and looked up (decode) by code position,
//    so the outlier side stream keeps the serial order whichever lanes
//    run as vectors and whichever take the scalar lane path.
// Streams are therefore byte-identical across tiers and thread counts; the
// golden corpus and the SimdKernels equivalence suite both enforce this.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/cpu_features.hpp"
#include "src/predictor/fitting.hpp"
#include "src/predictor/interp_traversal.hpp"
#include "src/quantizer/linear_quantizer.hpp"

namespace cliz {

/// The Theorem-1 prediction for validity id `vm` (bit i set when reference
/// i, at -3h, -h, +h, +3h, is in range and valid), where ref(i) returns
/// the value of reference i. Only references with a non-zero coefficient
/// are read, so masked garbage never leaks into a prediction. Always
/// inlined, so the AVX2 kernels' masked lanes stay in VEX code.
template <typename T, typename Ref>
[[gnu::always_inline]] inline T fit_predict(unsigned vm, FittingKind fit,
                                            Ref&& ref) {
  if (fit == FittingKind::kCubic) {
    const CubicFit& f = cubic_fit(vm);
    double p = 0.0;
    for (unsigned i = 0; i < 4; ++i) {
      if (f.p[i] != 0.0) p += f.p[i] * static_cast<double>(ref(i));
    }
    return static_cast<T>(p);
  }
  const auto lf = linear_fit((vm >> 1) & 1u, (vm >> 2) & 1u);
  double p = 0.0;
  if (lf[0] != 0.0) p += lf[0] * static_cast<double>(ref(1));
  if (lf[1] != 0.0) p += lf[1] * static_cast<double>(ref(2));
  return static_cast<T>(p);
}

/// Computes the fitting prediction for one target given the reference set.
/// A reference participates only when it is inside the array AND valid per
/// the optional mask (`validity` indexed by linear offset, nullptr = all
/// valid); invalid references get coefficient zero via the Theorem-1 tables.
template <typename T>
T interp_predict(const T* data, const InterpRefs& refs,
                 const std::uint8_t* validity, FittingKind fit) {
  unsigned vm = 0;
  for (unsigned i = 0; i < 4; ++i) {
    const bool v = refs.in_range[i] &&
                   (validity == nullptr || validity[refs.offset[i]] != 0);
    vm |= static_cast<unsigned>(v) << i;
  }
  return fit_predict<T>(vm, fit,
                        [&](unsigned i) { return data[refs.offset[i]]; });
}

/// Lines per row block: the engine runs a pass one target row at a time
/// across blocks of this many lines.
inline constexpr std::size_t kRowBlock = 64;

/// One row of a pass: the targets at coordinate c = h + index * s on
/// `lanes` lines, the k-th at linear offset base[k] + off. Its references
/// are the grid points (coordinates g * s) index - 1 to index + 2.
struct InterpRow {
  const std::size_t* base;  ///< line base offsets, one per lane
  std::size_t lanes;
  std::size_t index;     ///< row index within the pass
  std::size_t off;       ///< c * stride of the pass axis
  std::size_t hs;        ///< h * stride: distance of the +-h references
  unsigned in_range;     ///< ref_range_bits(c, h, extent)
  FittingKind fit;
  /// Masked rows: per lane, bit i (i < 4) set when reference i is in range
  /// and valid, and kTargetValid when the target is valid. nullptr on
  /// unmasked rows, whose targets and in-range references are all valid.
  const std::uint32_t* lane_valid;
  /// Per lane, the values of the last four grid points, widened to double:
  /// grid point g of lane k at ring[(g % 4) * kRowBlock + k]. Consecutive
  /// rows of a block share three references, so the AVX2 kernels load grid
  /// points 0 and 1 on row 0 and one new grid point (+3h) per row into the
  /// ring and predict their vector lanes from it; the scalar lane path
  /// reads the field. 32-byte aligned, kept by the engine across a block's
  /// rows.
  double* ring;
};

/// InterpRow::lane_valid bit of a valid target.
inline constexpr std::uint32_t kTargetValid = 16;

/// An encode escape: its code position and the exact value it carries.
template <typename T>
struct RowEscape {
  std::size_t pos;
  T value;
};

/// The decode side's view of one pass's outliers: the code positions of
/// its escapes in ascending order, and their values in the same order. An
/// escape finds its value by its rank among the positions.
template <typename T>
struct PassOutliers {
  const std::size_t* pos = nullptr;
  const T* value = nullptr;
  std::size_t count = 0;

  /// The outlier of the escape at position `p`, which must be one of
  /// pos[0..count). A branch-free binary search: escape positions are
  /// irregular, so a branching one mispredicts at almost every step.
  [[nodiscard]] T at(std::size_t p) const {
    const std::size_t* first = pos;
    for (std::size_t n = count; n > 1;) {
      const std::size_t half = n / 2;
      first = first[half] <= p ? first + half : first;
      n -= half;
    }
    return value[first - pos];
  }
};

/// Result of the decode-side code pre-scan: escape count plus the maximum
/// code value, so `max_code < 2*radius` validates the whole batch (escape
/// zeros are trivially below any legal limit).
struct CodeScan {
  std::size_t zeros = 0;
  std::uint32_t max_code = 0;
};

/// Function-pointer table of the interpolation engine's kernels for one
/// sample type at one ISA tier.
template <typename T>
struct InterpKernelTable {
  /// Encode one row: for each lane in order whose target is valid, predict,
  /// quantize in place, and write the code at the lane's cursor `pos[k]`,
  /// which then advances. Escapes append (cursor, value).
  void (*encode_row)(T* data, const InterpRow& row,
                     const LinearQuantizer<T>& q, std::size_t* pos,
                     std::uint32_t* codes,
                     std::vector<RowEscape<T>>& escapes);
  /// Decode counterpart: reconstruct each valid target from the code at
  /// its lane's cursor. Codes must already be range-checked (scan_codes).
  void (*decode_row)(T* data, const InterpRow& row,
                     const LinearQuantizer<T>& q, std::size_t* pos,
                     const std::uint32_t* codes,
                     const PassOutliers<T>& outliers);
  /// Vectorized scan of a decoded code batch: escape count and max code,
  /// with the position of every escape appended to `escapes` in order.
  CodeScan (*scan_codes)(const std::uint32_t* codes, std::size_t n,
                         std::vector<std::size_t>& escapes);
};

/// Kernel table for an explicit tier (at most the detected one). The
/// equivalence tests and the tier-sweep bench use this to pin tiers; the
/// codec itself goes through interp_kernels() below.
template <typename T>
const InterpKernelTable<T>& interp_kernels_for(SimdTier tier);

template <>
const InterpKernelTable<float>& interp_kernels_for<float>(SimdTier tier);
template <>
const InterpKernelTable<double>& interp_kernels_for<double>(SimdTier tier);

/// Kernel table at the active tier (re-read per call, so CLIZ_SIMD /
/// set_active_simd_tier take effect without re-creating contexts).
template <typename T>
inline const InterpKernelTable<T>& interp_kernels() {
  return interp_kernels_for<T>(active_simd_tier());
}

/// Masked element-wise accumulate kernels (dst[i] op= src[i] where
/// valid[i], or unconditionally when valid == nullptr) for the periodic
/// template tiling — the same flat, branch-free shape as the predictor
/// kernels. Element-wise float ops are order-independent, so every tier is
/// bit-identical by construction; invalid lanes keep their exact bits.
template <typename T>
struct AccumKernelTable {
  void (*add)(T* dst, const T* src, const std::uint8_t* valid, std::size_t n);
  void (*sub)(T* dst, const T* src, const std::uint8_t* valid, std::size_t n);
};

template <typename T>
const AccumKernelTable<T>& accum_kernels_for(SimdTier tier);

template <>
const AccumKernelTable<float>& accum_kernels_for<float>(SimdTier tier);
template <>
const AccumKernelTable<double>& accum_kernels_for<double>(SimdTier tier);

template <typename T>
inline const AccumKernelTable<T>& accum_kernels() {
  return accum_kernels_for<T>(active_simd_tier());
}

/// Masked widening-sum kernels for the periodic template build:
/// sums[i] += (double)src[i]; ++counts[i]; on valid lanes (every lane when
/// valid == nullptr). Element-wise with one double add per lane per call,
/// so the per-slot accumulation order is exactly the slab visit order and
/// every tier is bit-identical.
template <typename T>
struct SumKernelTable {
  void (*accumulate)(double* sums, std::uint32_t* counts, const T* src,
                     const std::uint8_t* valid, std::size_t n);
};

template <typename T>
const SumKernelTable<T>& sum_kernels_for(SimdTier tier);

template <>
const SumKernelTable<float>& sum_kernels_for<float>(SimdTier tier);
template <>
const SumKernelTable<double>& sum_kernels_for<double>(SimdTier tier);

template <typename T>
inline const SumKernelTable<T>& sum_kernels() {
  return sum_kernels_for<T>(active_simd_tier());
}

// ---------------------------------------------------------------------------
// Lorenzo row kernels — the scalar tier of the shared flat-kernel layer.
// The raster-scan Lorenzo predictor reads values it reconstructed earlier
// in the same row (term delta 1 is the previous element), so the loop is
// inherently serial; what the flat restructure removes is the per-point
// odometer and interior test. The nd engine splits the array into rows,
// classifies each row's interior run analytically, and hands the run to
// these branch-free kernels.
// ---------------------------------------------------------------------------

/// One stencil term of the row kernels (mirrors LorenzoTerm's hot fields;
/// kept separate so the kernel loop touches 16 bytes per term).
struct LorenzoFlatTerm {
  std::size_t delta;  ///< backward linear-offset distance
  double weight;      ///< signed contribution weight
};

/// Fused predict+quantize over one interior row run [off0, off0 + n): every
/// stencil neighbour is in range and unmasked, so the prediction is a plain
/// weighted sum in term order — identical accumulation to the generic
/// predictor's interior fast path.
template <typename T>
inline void lorenzo_row_encode(T* data, std::size_t off0, std::size_t n,
                               std::span<const LorenzoFlatTerm> terms,
                               const LinearQuantizer<T>& q,
                               std::vector<std::uint64_t>& offsets,
                               std::vector<std::uint32_t>& codes,
                               std::vector<T>& outliers) {
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t off = off0 + j;
    double p = 0.0;
    for (const LorenzoFlatTerm& t : terms) {
      p += t.weight * static_cast<double>(data[off - t.delta]);
    }
    offsets.push_back(off);
    codes.push_back(q.quantize(data[off], static_cast<T>(p), outliers));
  }
}

/// Decode counterpart: reconstruct one interior row run from `codes`.
template <typename T>
inline void lorenzo_row_decode(T* data, std::size_t off0, std::size_t n,
                               std::span<const LorenzoFlatTerm> terms,
                               const LinearQuantizer<T>& q,
                               const std::uint32_t* codes,
                               std::span<const T> outliers,
                               std::size_t& cursor) {
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t off = off0 + j;
    double p = 0.0;
    for (const LorenzoFlatTerm& t : terms) {
      p += t.weight * static_cast<double>(data[off - t.delta]);
    }
    data[off] = q.recover(codes[j], static_cast<T>(p), outliers, cursor);
  }
}

}  // namespace cliz
