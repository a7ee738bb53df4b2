#include "src/predictor/predict_kernels.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>

#include "src/predictor/fitting.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define CLIZ_KERNELS_X86 1
#endif

namespace cliz {
namespace {

/// Linear-fit weights {w(-h), w(+h)} with both references valid.
constexpr std::array<double, 2> kLinearAll = linear_fit(true, true);

// ---------------------------------------------------------------------------
// Scalar tier: the reference implementation the AVX2 tier must match bit
// for bit, and the kernels every tier below AVX2 runs. The interior kernels
// reproduce interp_predict's accumulation order at validity id 0xF (every
// coefficient is non-zero there, so its zero-skip never fires).
// ---------------------------------------------------------------------------

template <typename T>
void encode_interior_scalar(T* dp, std::size_t st, std::size_t h,
                            std::size_t s, std::size_t lo, std::size_t hi,
                            bool cubic, const LinearQuantizer<T>& q,
                            std::uint32_t* codes, std::vector<T>& outliers) {
  // Signed distances: a run's first target may sit less than 3h past
  // `dp`, so its -3h reference is a negative index (still in the array).
  const auto hs = static_cast<std::ptrdiff_t>(h * st);
  const std::ptrdiff_t h3 = 3 * hs;
  if (cubic) {
    const CubicFit& f = cubic_fit(0xFu);
    const double c0 = f.p[0];
    const double c1 = f.p[1];
    const double c2 = f.p[2];
    const double c3 = f.p[3];
    for (std::size_t i = lo; i < hi; ++i) {
      const auto o = static_cast<std::ptrdiff_t>((h + i * s) * st);
      double p = 0.0;
      p += c0 * static_cast<double>(dp[o - h3]);
      p += c1 * static_cast<double>(dp[o - hs]);
      p += c2 * static_cast<double>(dp[o + hs]);
      p += c3 * static_cast<double>(dp[o + h3]);
      codes[i] = q.quantize(dp[o], static_cast<T>(p), outliers);
    }
    return;
  }
  const double l0 = kLinearAll[0];
  const double l1 = kLinearAll[1];
  for (std::size_t i = lo; i < hi; ++i) {
    const auto o = static_cast<std::ptrdiff_t>((h + i * s) * st);
    double p = 0.0;
    p += l0 * static_cast<double>(dp[o - hs]);
    p += l1 * static_cast<double>(dp[o + hs]);
    codes[i] = q.quantize(dp[o], static_cast<T>(p), outliers);
  }
}

template <typename T>
void decode_interior_scalar(T* dp, std::size_t st, std::size_t h,
                            std::size_t s, std::size_t lo, std::size_t hi,
                            bool cubic, const LinearQuantizer<T>& q,
                            const std::uint32_t* codes,
                            std::span<const T> outliers, std::size_t& cursor) {
  const auto hs = static_cast<std::ptrdiff_t>(h * st);
  const std::ptrdiff_t h3 = 3 * hs;
  if (cubic) {
    const CubicFit& f = cubic_fit(0xFu);
    const double c0 = f.p[0];
    const double c1 = f.p[1];
    const double c2 = f.p[2];
    const double c3 = f.p[3];
    for (std::size_t i = lo; i < hi; ++i) {
      const auto o = static_cast<std::ptrdiff_t>((h + i * s) * st);
      double p = 0.0;
      p += c0 * static_cast<double>(dp[o - h3]);
      p += c1 * static_cast<double>(dp[o - hs]);
      p += c2 * static_cast<double>(dp[o + hs]);
      p += c3 * static_cast<double>(dp[o + h3]);
      dp[o] = q.recover(codes[i], static_cast<T>(p), outliers, cursor);
    }
    return;
  }
  const double l0 = kLinearAll[0];
  const double l1 = kLinearAll[1];
  for (std::size_t i = lo; i < hi; ++i) {
    const auto o = static_cast<std::ptrdiff_t>((h + i * s) * st);
    double p = 0.0;
    p += l0 * static_cast<double>(dp[o - hs]);
    p += l1 * static_cast<double>(dp[o + hs]);
    dp[o] = q.recover(codes[i], static_cast<T>(p), outliers, cursor);
  }
}

CodeScan scan_codes_scalar(const std::uint32_t* codes, std::size_t n) {
  CodeScan r;
  for (std::size_t i = 0; i < n; ++i) {
    r.zeros += codes[i] == 0 ? 1u : 0u;
    r.max_code = std::max(r.max_code, codes[i]);
  }
  return r;
}

template <typename T>
void accum_add_scalar(T* dst, const T* src, const std::uint8_t* valid,
                      std::size_t n) {
  if (valid == nullptr) {
    for (std::size_t i = 0; i < n; ++i) dst[i] += src[i];
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (valid[i] != 0) dst[i] += src[i];
  }
}

template <typename T>
void accum_sub_scalar(T* dst, const T* src, const std::uint8_t* valid,
                      std::size_t n) {
  if (valid == nullptr) {
    for (std::size_t i = 0; i < n; ++i) dst[i] -= src[i];
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (valid[i] != 0) dst[i] -= src[i];
  }
}

template <typename T>
void sum_scalar(double* sums, std::uint32_t* counts, const T* src,
                const std::uint8_t* valid, std::size_t n) {
  if (valid == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      sums[i] += static_cast<double>(src[i]);
      ++counts[i];
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (valid[i] != 0) {
      sums[i] += static_cast<double>(src[i]);
      ++counts[i];
    }
  }
}

#ifdef CLIZ_KERNELS_X86

// ---------------------------------------------------------------------------
// AVX2 tier: four f64 lanes with hardware gathers (f32 gathered via
// VGATHERQPS and widened — arithmetic stays double). The target attribute
// deliberately omits "fma" so GCC cannot contract the mul+add pairs; the
// scalar reference compiles without FMA, so contraction would change bits.
// Indices are 64-bit throughout (i64gather), so no 32-bit offset-overflow
// guard is needed for large arrays.
// ---------------------------------------------------------------------------

struct Q4d {
  __m256d recon;  ///< candidate reconstructions (f32 narrowed-and-rewidened)
  __m128i code;   ///< q + radius in four int32 lanes
  int ok;         ///< 4-bit lane mask: in-bound AND reconstruction-bound ok
};

__attribute__((target("avx2"))) inline __m256d llround4(__m256d scaled) {
  const __m256d re =
      _mm256_round_pd(scaled, _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d delta = _mm256_sub_pd(scaled, re);
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d pos = _mm256_and_pd(
      _mm256_and_pd(_mm256_cmp_pd(delta, _mm256_set1_pd(0.5), _CMP_EQ_OQ),
                    _mm256_cmp_pd(scaled, zero, _CMP_GT_OQ)),
      one);
  const __m256d neg = _mm256_and_pd(
      _mm256_and_pd(_mm256_cmp_pd(delta, _mm256_set1_pd(-0.5), _CMP_EQ_OQ),
                    _mm256_cmp_pd(scaled, zero, _CMP_LT_OQ)),
      one);
  return _mm256_sub_pd(_mm256_add_pd(re, pos), neg);
}

/// LinearQuantizer state in the form the four-lane quantizer reads.
struct QuantParams {
  double two_eb;
  double eb;
  double lim;  ///< radius - 1: |scaled| must stay below it
  std::uint32_t radius;
};

/// Quantizes four lanes exactly like LinearQuantizer<T>::quantize: f32
/// reconstructions are narrowed to float and re-widened before the bound
/// check, as the scalar path's static_cast<T> does.
template <typename T>
__attribute__((target("avx2"))) inline Q4d quantize4(__m256d v, __m256d p,
                                                     const QuantParams& qp) {
  const __m256d te = _mm256_set1_pd(qp.two_eb);
  const __m256d scaled = _mm256_div_pd(_mm256_sub_pd(v, p), te);
  const __m256d absm =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m256d inb = _mm256_cmp_pd(_mm256_and_pd(scaled, absm),
                                    _mm256_set1_pd(qp.lim), _CMP_LT_OQ);
  const __m256d qd = llround4(scaled);
  __m256d recon = _mm256_add_pd(p, _mm256_mul_pd(te, qd));
  if constexpr (sizeof(T) == 4) {
    recon = _mm256_cvtps_pd(_mm256_cvtpd_ps(recon));
  }
  const __m256d err = _mm256_and_pd(_mm256_sub_pd(recon, v), absm);
  const __m256d bok = _mm256_cmp_pd(err, _mm256_set1_pd(qp.eb), _CMP_LE_OQ);
  Q4d r;
  r.recon = recon;
  r.code = _mm_add_epi32(_mm256_cvtpd_epi32(qd),
                         _mm_set1_epi32(static_cast<int>(qp.radius)));
  r.ok = _mm256_movemask_pd(_mm256_and_pd(inb, bok));
  return r;
}

__attribute__((target("avx2"))) inline __m256d gather4(const double* base,
                                                       __m256i vi) {
  return _mm256_i64gather_pd(base, vi, 8);
}

__attribute__((target("avx2"))) inline __m256d gather4(const float* base,
                                                       __m256i vi) {
  return _mm256_cvtps_pd(_mm256_i64gather_ps(base, vi, 4));
}

/// Offsets of one group of four targets starting at `o0`. A group of
/// r < 4 targets (a run's tail) repeats its last target in the spare
/// lanes, so every gather stays on the run's targets and references.
__attribute__((target("avx2"))) inline __m256i lane_offsets(std::size_t o0,
                                                            std::size_t ss,
                                                            std::size_t r) {
  const auto lane = [=](std::size_t k) {
    return static_cast<long long>(o0 + std::min(k, r - 1) * ss);
  };
  return _mm256_set_epi64x(lane(3), lane(2), lane(1), lane(0));
}

/// All-valid Theorem-1 prediction of four interior targets, in the scalar
/// accumulation order and narrowed to T as static_cast<T>(p) does.
template <typename T>
__attribute__((target("avx2"))) inline __m256d predict4_interior(
    const T* dp, __m256i oi, std::size_t hs, bool cubic) {
  const __m256i vh = _mm256_set1_epi64x(static_cast<long long>(hs));
  const __m256i v3 = _mm256_set1_epi64x(static_cast<long long>(3 * hs));
  __m256d acc = _mm256_setzero_pd();
  if (cubic) {
    const CubicFit& f = cubic_fit(0xFu);
    const __m256d x0 = gather4(dp, _mm256_sub_epi64(oi, v3));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(f.p[0]), x0));
    const __m256d x1 = gather4(dp, _mm256_sub_epi64(oi, vh));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(f.p[1]), x1));
    const __m256d x2 = gather4(dp, _mm256_add_epi64(oi, vh));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(f.p[2]), x2));
    const __m256d x3 = gather4(dp, _mm256_add_epi64(oi, v3));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(f.p[3]), x3));
  } else {
    const __m256d l0 = _mm256_set1_pd(kLinearAll[0]);
    const __m256d l1 = _mm256_set1_pd(kLinearAll[1]);
    const __m256d x1 = gather4(dp, _mm256_sub_epi64(oi, vh));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(l0, x1));
    const __m256d x2 = gather4(dp, _mm256_add_epi64(oi, vh));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(l1, x2));
  }
  if constexpr (sizeof(T) == 4) acc = _mm256_cvtps_pd(_mm256_cvtpd_ps(acc));
  return acc;
}

/// Encodes the r <= 4 targets of one group, the first at offset `o0`;
/// codes go to codes[0..r). Inlined with r = 4 into the main loop, so full
/// groups pay nothing for the spare-lane handling.
template <typename T>
__attribute__((target("avx2"), always_inline)) inline void encode_group4(
    T* dp, std::size_t o0, std::size_t ss, std::size_t hs, std::size_t r,
    bool cubic, const QuantParams& qp, std::uint32_t* codes,
    std::vector<T>& outliers) {
  const __m256i oi = lane_offsets(o0, ss, r);
  const __m256d acc = predict4_interior(dp, oi, hs, cubic);
  const __m256d v = gather4(dp, oi);
  const Q4d qr = quantize4<T>(v, acc, qp);
  double rc[4];
  double vv[4];
  std::uint32_t cds[4];
  _mm256_storeu_pd(rc, qr.recon);
  _mm256_storeu_pd(vv, v);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(cds), qr.code);
  for (std::size_t k = 0; k < r; ++k) {
    if ((qr.ok >> k) & 1) {
      dp[o0 + k * ss] = static_cast<T>(rc[k]);
      codes[k] = cds[k];
    } else {
      outliers.push_back(static_cast<T>(vv[k]));
      codes[k] = 0;
    }
  }
}

/// The r < 4 tail group, kept out of line: inlined beside the main loop it
/// slowed that loop's f64 code by 30% (predict_quantize_kernel/f64/avx2).
template <typename T>
__attribute__((target("avx2"), noinline)) void encode_tail4(
    T* dp, std::size_t o0, std::size_t ss, std::size_t hs, std::size_t r,
    bool cubic, const QuantParams& qp, std::uint32_t* codes,
    std::vector<T>& outliers) {
  encode_group4(dp, o0, ss, hs, r, cubic, qp, codes, outliers);
}

/// A run's last one to three targets go through one more vector group:
/// each carries a division that the scalar loop would pay alone.
template <typename T>
__attribute__((target("avx2"))) void encode_interior_avx2(
    T* dp, std::size_t st, std::size_t h, std::size_t s, std::size_t lo,
    std::size_t hi, bool cubic, const LinearQuantizer<T>& q,
    std::uint32_t* codes, std::vector<T>& outliers) {
  // Copied out of `q`: outlier appends could alias it, so the compiler
  // would reload it in the loop.
  const QuantParams qp{2.0 * q.error_bound(), q.error_bound(),
                       static_cast<double>(q.radius()) - 1, q.radius()};
  const std::size_t ss = s * st;
  const std::size_t hs = h * st;
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    encode_group4(dp, (h + i * s) * st, ss, hs, 4, cubic, qp, codes + i,
                  outliers);
  }
  if (i < hi) {
    encode_tail4(dp, (h + i * s) * st, ss, hs, hi - i, cubic, qp, codes + i,
                 outliers);
  }
}

template <typename T>
__attribute__((target("avx2"))) void decode_interior_avx2(
    T* dp, std::size_t st, std::size_t h, std::size_t s, std::size_t lo,
    std::size_t hi, bool cubic, const LinearQuantizer<T>& q,
    const std::uint32_t* codes, std::span<const T> outliers,
    std::size_t& cursor) {
  const double two_eb = 2.0 * q.error_bound();
  const int radius = static_cast<int>(q.radius());
  const std::size_t ss = s * st;
  std::size_t i = lo;
  for (; i + 4 <= hi; i += 4) {
    __m128i ci;
    std::memcpy(&ci, codes + i, sizeof(ci));
    if (_mm_movemask_ps(_mm_castsi128_ps(
            _mm_cmpeq_epi32(ci, _mm_setzero_si128()))) != 0) {
      // Escape lanes consume the outlier stream in serial order.
      decode_interior_scalar(dp, st, h, s, i, i + 4, cubic, q, codes, outliers,
                             cursor);
      continue;
    }
    const std::size_t o0 = (h + i * s) * st;
    const __m256d acc =
        predict4_interior(dp, lane_offsets(o0, ss, 4), h * st, cubic);
    const __m256d qd =
        _mm256_cvtepi32_pd(_mm_sub_epi32(ci, _mm_set1_epi32(radius)));
    const __m256d recon =
        _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(two_eb), qd));
    double rc[4];
    _mm256_storeu_pd(rc, recon);
    for (std::size_t k = 0; k < 4; ++k) {
      dp[o0 + k * ss] = static_cast<T>(rc[k]);
    }
  }
  // A run's tail has no division to amortise: scalar is cheaper there.
  decode_interior_scalar(dp, st, h, s, i, hi, cubic, q, codes, outliers,
                         cursor);
}

__attribute__((target("avx2"))) CodeScan scan_codes_avx2(
    const std::uint32_t* codes, std::size_t n) {
  CodeScan r;
  const __m256i zero = _mm256_setzero_si256();
  __m256i vmax = zero;
  std::size_t zeros = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v;
    std::memcpy(&v, codes + i, sizeof(v));
    zeros += static_cast<unsigned>(__builtin_popcount(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, zero)))));
    vmax = _mm256_max_epu32(vmax, v);
  }
  alignas(32) std::uint32_t mx[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(mx), vmax);
  for (unsigned k = 0; k < 8; ++k) r.max_code = std::max(r.max_code, mx[k]);
  r.zeros = zeros;
  for (; i < n; ++i) {
    r.zeros += codes[i] == 0 ? 1u : 0u;
    r.max_code = std::max(r.max_code, codes[i]);
  }
  return r;
}

#define CLIZ_AVX2_ACCUM_F32(NAME, VOP, SOP)                                   \
  __attribute__((target("avx2"))) void NAME(                                  \
      float* dst, const float* src, const std::uint8_t* valid,                \
      std::size_t n) {                                                        \
    std::size_t i = 0;                                                        \
    if (valid == nullptr) {                                                   \
      for (; i + 8 <= n; i += 8) {                                            \
        _mm256_storeu_ps(                                                     \
            dst + i, VOP(_mm256_loadu_ps(dst + i), _mm256_loadu_ps(src + i)));\
      }                                                                       \
      for (; i < n; ++i) dst[i] = SOP(dst[i], src[i]);                        \
      return;                                                                 \
    }                                                                         \
    for (; i + 8 <= n; i += 8) {                                              \
      const __m128i vb8 = _mm_loadl_epi64(                                    \
          reinterpret_cast<const __m128i*>(valid + i));                       \
      const __m256 keep = _mm256_castsi256_ps(_mm256_cmpeq_epi32(             \
          _mm256_cvtepu8_epi32(vb8), _mm256_setzero_si256()));                \
      const __m256 d = _mm256_loadu_ps(dst + i);                              \
      _mm256_storeu_ps(                                                       \
          dst + i, _mm256_blendv_ps(VOP(d, _mm256_loadu_ps(src + i)), d,      \
                                    keep));                                   \
    }                                                                         \
    for (; i < n; ++i) {                                                      \
      if (valid[i] != 0) dst[i] = SOP(dst[i], src[i]);                        \
    }                                                                         \
  }

#define CLIZ_AVX2_ACCUM_F64(NAME, VOP, SOP)                                   \
  __attribute__((target("avx2"))) void NAME(                                  \
      double* dst, const double* src, const std::uint8_t* valid,              \
      std::size_t n) {                                                        \
    std::size_t i = 0;                                                        \
    if (valid == nullptr) {                                                   \
      for (; i + 4 <= n; i += 4) {                                            \
        _mm256_storeu_pd(                                                     \
            dst + i, VOP(_mm256_loadu_pd(dst + i), _mm256_loadu_pd(src + i)));\
      }                                                                       \
      for (; i < n; ++i) dst[i] = SOP(dst[i], src[i]);                        \
      return;                                                                 \
    }                                                                         \
    for (; i + 4 <= n; i += 4) {                                              \
      std::uint32_t v4;                                                       \
      std::memcpy(&v4, valid + i, 4);                                         \
      const __m256d keep = _mm256_castsi256_pd(_mm256_cmpeq_epi64(            \
          _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(v4))),      \
          _mm256_setzero_si256()));                                           \
      const __m256d d = _mm256_loadu_pd(dst + i);                             \
      _mm256_storeu_pd(                                                       \
          dst + i, _mm256_blendv_pd(VOP(d, _mm256_loadu_pd(src + i)), d,      \
                                    keep));                                   \
    }                                                                         \
    for (; i < n; ++i) {                                                      \
      if (valid[i] != 0) dst[i] = SOP(dst[i], src[i]);                        \
    }                                                                         \
  }

#define CLIZ_SOP_ADD(a, b) ((a) + (b))
#define CLIZ_SOP_SUB(a, b) ((a) - (b))
CLIZ_AVX2_ACCUM_F32(accum_add_avx2_f32, _mm256_add_ps, CLIZ_SOP_ADD)
CLIZ_AVX2_ACCUM_F32(accum_sub_avx2_f32, _mm256_sub_ps, CLIZ_SOP_SUB)
CLIZ_AVX2_ACCUM_F64(accum_add_avx2_f64, _mm256_add_pd, CLIZ_SOP_ADD)
CLIZ_AVX2_ACCUM_F64(accum_sub_avx2_f64, _mm256_sub_pd, CLIZ_SOP_SUB)
#undef CLIZ_SOP_ADD
#undef CLIZ_SOP_SUB
#undef CLIZ_AVX2_ACCUM_F32
#undef CLIZ_AVX2_ACCUM_F64

// ---------------------------------------------------------------------------
// AVX2 widening-sum kernels for the periodic template build. Invalid lanes
// add +0.0 to the running sum instead of branching; the caller seeds the
// sums at +0.0 and a +0.0-seeded running sum can never round to -0.0, so
// the no-op add is bit-preserving — and the masked fill garbage (possibly
// NaN/Inf) is zeroed before the add, so it never leaks into a mean.
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void sum_avx2_f32(double* sums,
                                                  std::uint32_t* counts,
                                                  const float* src,
                                                  const std::uint8_t* valid,
                                                  std::size_t n) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i one32 = _mm256_set1_epi32(1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 v = _mm256_loadu_ps(src + i);
    __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(v));
    __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(v, 1));
    __m256i cnt =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counts + i));
    if (valid != nullptr) {
      const __m128i vb =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(valid + i));
      const __m256i m32 =
          _mm256_cmpgt_epi32(_mm256_cvtepu8_epi32(vb), zero);
      const __m256d mlo = _mm256_castsi256_pd(
          _mm256_cvtepi32_epi64(_mm256_castsi256_si128(m32)));
      const __m256d mhi = _mm256_castsi256_pd(
          _mm256_cvtepi32_epi64(_mm256_extracti128_si256(m32, 1)));
      lo = _mm256_and_pd(lo, mlo);
      hi = _mm256_and_pd(hi, mhi);
      cnt = _mm256_sub_epi32(cnt, m32);  // -(-1) adds 1 on valid lanes
    } else {
      cnt = _mm256_add_epi32(cnt, one32);
    }
    _mm256_storeu_pd(sums + i, _mm256_add_pd(_mm256_loadu_pd(sums + i), lo));
    _mm256_storeu_pd(sums + i + 4,
                     _mm256_add_pd(_mm256_loadu_pd(sums + i + 4), hi));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(counts + i), cnt);
  }
  sum_scalar(sums + i, counts + i, src + i,
             valid != nullptr ? valid + i : nullptr, n - i);
}

__attribute__((target("avx2"))) void sum_avx2_f64(double* sums,
                                                  std::uint32_t* counts,
                                                  const double* src,
                                                  const std::uint8_t* valid,
                                                  std::size_t n) {
  const __m128i zero = _mm_setzero_si128();
  const __m128i one32 = _mm_set1_epi32(1);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d v = _mm256_loadu_pd(src + i);
    __m128i cnt =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(counts + i));
    if (valid != nullptr) {
      std::uint32_t vb4;
      std::memcpy(&vb4, valid + i, sizeof(vb4));
      const __m128i m32 = _mm_cmpgt_epi32(
          _mm_cvtepu8_epi32(_mm_cvtsi32_si128(static_cast<int>(vb4))), zero);
      const __m256d m64 =
          _mm256_castsi256_pd(_mm256_cvtepi32_epi64(m32));
      v = _mm256_and_pd(v, m64);
      cnt = _mm_sub_epi32(cnt, m32);
    } else {
      cnt = _mm_add_epi32(cnt, one32);
    }
    _mm256_storeu_pd(sums + i, _mm256_add_pd(_mm256_loadu_pd(sums + i), v));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(counts + i), cnt);
  }
  sum_scalar(sums + i, counts + i, src + i,
             valid != nullptr ? valid + i : nullptr, n - i);
}

#endif  // CLIZ_KERNELS_X86

}  // namespace

// ---------------------------------------------------------------------------
// Dispatch. Every kernel family is a scalar reference plus an AVX2 variant:
// tiers below AVX2 (and every tier off x86) run the scalar reference. The
// active tier is clamped to the detected one by cpu_features, so the AVX2
// entries are never selected on a machine that cannot execute them.
// ---------------------------------------------------------------------------

template <>
const InterpKernelTable<double>& interp_kernels_for<double>(
    [[maybe_unused]] SimdTier tier) {
  static constexpr InterpKernelTable<double> kScalar = {
      &encode_interior_scalar<double>, &decode_interior_scalar<double>,
      &scan_codes_scalar};
#ifdef CLIZ_KERNELS_X86
  static constexpr InterpKernelTable<double> kAvx2 = {
      &encode_interior_avx2<double>, &decode_interior_avx2<double>,
      &scan_codes_avx2};
  if (tier >= SimdTier::kAvx2) return kAvx2;
#endif
  return kScalar;
}

template <>
const InterpKernelTable<float>& interp_kernels_for<float>(
    [[maybe_unused]] SimdTier tier) {
  static constexpr InterpKernelTable<float> kScalar = {
      &encode_interior_scalar<float>, &decode_interior_scalar<float>,
      &scan_codes_scalar};
#ifdef CLIZ_KERNELS_X86
  static constexpr InterpKernelTable<float> kAvx2 = {
      &encode_interior_avx2<float>, &decode_interior_avx2<float>,
      &scan_codes_avx2};
  if (tier >= SimdTier::kAvx2) return kAvx2;
#endif
  return kScalar;
}

template <>
const AccumKernelTable<double>& accum_kernels_for<double>(
    [[maybe_unused]] SimdTier tier) {
  static constexpr AccumKernelTable<double> kScalar = {
      &accum_add_scalar<double>, &accum_sub_scalar<double>};
#ifdef CLIZ_KERNELS_X86
  static constexpr AccumKernelTable<double> kAvx2 = {&accum_add_avx2_f64,
                                                     &accum_sub_avx2_f64};
  if (tier >= SimdTier::kAvx2) return kAvx2;
#endif
  return kScalar;
}

template <>
const AccumKernelTable<float>& accum_kernels_for<float>(
    [[maybe_unused]] SimdTier tier) {
  static constexpr AccumKernelTable<float> kScalar = {
      &accum_add_scalar<float>, &accum_sub_scalar<float>};
#ifdef CLIZ_KERNELS_X86
  static constexpr AccumKernelTable<float> kAvx2 = {&accum_add_avx2_f32,
                                                    &accum_sub_avx2_f32};
  if (tier >= SimdTier::kAvx2) return kAvx2;
#endif
  return kScalar;
}

template <>
const SumKernelTable<double>& sum_kernels_for<double>(
    [[maybe_unused]] SimdTier tier) {
  static constexpr SumKernelTable<double> kScalar = {&sum_scalar<double>};
#ifdef CLIZ_KERNELS_X86
  static constexpr SumKernelTable<double> kAvx2 = {&sum_avx2_f64};
  if (tier >= SimdTier::kAvx2) return kAvx2;
#endif
  return kScalar;
}

template <>
const SumKernelTable<float>& sum_kernels_for<float>(
    [[maybe_unused]] SimdTier tier) {
  static constexpr SumKernelTable<float> kScalar = {&sum_scalar<float>};
#ifdef CLIZ_KERNELS_X86
  static constexpr SumKernelTable<float> kAvx2 = {&sum_avx2_f32};
  if (tier >= SimdTier::kAvx2) return kAvx2;
#endif
  return kScalar;
}

}  // namespace cliz
