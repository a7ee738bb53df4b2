#pragma once

// Flat kernels for the predict/quantize hot path, dispatched at runtime
// over the cpu_features ISA tiers. Every family is a scalar reference plus
// an AVX2 variant: the scalar and SSE4.2 tiers (and every tier off x86) run
// the scalar reference, the AVX2 tier runs AVX2 kernels.
//
// The line-parallel interpolation engine has one kernel shape, the
// *interior* run: targets at a fixed stride, the four references at fixed
// +-h / +-3h distances, all in range and valid, so every coefficient row is
// the all-valid Theorem-1 row and the kernel needs only the run geometry,
// no per-point state at all. The engine cuts each line (masked or not)
// into maximal such runs; the few targets at line ends and mask edges take
// the scalar interp_predict, which the interior kernels equal bit for bit
// at validity id 0xF.
//
// The AVX2 kernels reproduce the scalar reference bit for bit:
//  - all arithmetic is double, in the scalar accumulation order, with no
//    FMA contraction (the target attribute deliberately omits "fma");
//  - llround's half-away-from-zero is emulated exactly on top of the AVX
//    round-to-nearest-even instruction (the half-integer correction is
//    computable exactly because |scaled| < radius <= 2^30);
//  - divergent lanes (quantizer escapes, outlier reads) fall back to the
//    scalar path per lane in ascending lane order, so the outlier side
//    stream is appended/consumed in exactly the serial order.
// Streams are therefore byte-identical across tiers and thread counts; the
// golden corpus and the SimdKernels equivalence suite both enforce this.

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/cpu_features.hpp"
#include "src/quantizer/linear_quantizer.hpp"

namespace cliz {

/// Result of the decode-side code pre-scan: escape count plus the maximum
/// code value, so `max_code < 2*radius` validates the whole batch (escape
/// zeros are trivially below any legal limit).
struct CodeScan {
  std::size_t zeros = 0;
  std::uint32_t max_code = 0;
};

/// Function-pointer table of the interpolation engine's kernels for one
/// sample type at one ISA tier. `cubic` selects the four-reference cubic
/// fit; otherwise the two-reference linear fit.
template <typename T>
struct InterpKernelTable {
  /// Encode targets dp[(h+i*s)*st] for i in [lo, hi) of one interior run:
  /// predict from the fixed +-h/+-3h references, quantize in place, write
  /// codes[lo..hi). Outliers append in target order.
  void (*encode_interior)(T* dp, std::size_t st, std::size_t h, std::size_t s,
                          std::size_t lo, std::size_t hi, bool cubic,
                          const LinearQuantizer<T>& q, std::uint32_t* codes,
                          std::vector<T>& outliers);
  /// Decode counterpart: reconstruct dp[(h+i*s)*st] for i in [lo, hi) from
  /// codes[lo..hi), consuming escapes from `outliers` at `cursor`.
  void (*decode_interior)(T* dp, std::size_t st, std::size_t h, std::size_t s,
                          std::size_t lo, std::size_t hi, bool cubic,
                          const LinearQuantizer<T>& q,
                          const std::uint32_t* codes,
                          std::span<const T> outliers, std::size_t& cursor);
  /// Vectorized scan of a decoded code batch (escape count + max code).
  CodeScan (*scan_codes)(const std::uint32_t* codes, std::size_t n);
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
