#include "src/predictor/predict_kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "src/predictor/fitting.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define CLIZ_KERNELS_X86 1
#endif

namespace cliz {
namespace {

/// Linear-fit weights indexed by the two reference-validity bits
/// ((fid >> 1) & 3): row m = linear_fit(m & 1, (m >> 1) & 1), i.e.
/// {w(-h), w(+h)}. Kept as a flat constant array so the AVX2 path can
/// gather rows by index.
alignas(32) constexpr double kLinearW[4][2] = {
    {0.0, 0.0}, {1.0, 0.0}, {0.0, 1.0}, {0.5, 0.5}};

// ---------------------------------------------------------------------------
// Scalar tier: the reference implementation the AVX2 tier must match bit
// for bit, and the kernels every tier below AVX2 runs. The masked predict reproduces interp_predict exactly (coefficient
// row selected by the validity id, zero-coefficient terms skipped before the
// multiply so masked garbage never contributes); the interior kernels
// reproduce predict_line's fixed-coefficient accumulation order.
// ---------------------------------------------------------------------------

template <typename T>
inline T flat_predict_ref(const T* data, const InterpFlatRefs& r,
                          std::size_t i, bool cubic) {
  if (cubic) {
    const CubicFit& f = cubic_fit(r.fid[i]);
    double p = 0.0;
    if (f.p[0] != 0.0) p += f.p[0] * static_cast<double>(data[r.nb0[i]]);
    if (f.p[1] != 0.0) p += f.p[1] * static_cast<double>(data[r.nb1[i]]);
    if (f.p[2] != 0.0) p += f.p[2] * static_cast<double>(data[r.nb2[i]]);
    if (f.p[3] != 0.0) p += f.p[3] * static_cast<double>(data[r.nb3[i]]);
    return static_cast<T>(p);
  }
  const double* w = kLinearW[(r.fid[i] >> 1) & 3u];
  double p = 0.0;
  if (w[0] != 0.0) p += w[0] * static_cast<double>(data[r.nb1[i]]);
  if (w[1] != 0.0) p += w[1] * static_cast<double>(data[r.nb2[i]]);
  return static_cast<T>(p);
}

template <typename T>
void encode_flat_scalar(T* data, const InterpFlatRefs& r, std::size_t n,
                        bool cubic, const LinearQuantizer<T>& q,
                        std::uint32_t* codes, std::vector<T>& outliers) {
  for (std::size_t i = 0; i < n; ++i) {
    const T pred = flat_predict_ref(data, r, i, cubic);
    codes[i] = q.quantize(data[r.tgt[i]], pred, outliers);
  }
}

template <typename T>
void decode_flat_scalar(T* data, const InterpFlatRefs& r, std::size_t n,
                        bool cubic, const LinearQuantizer<T>& q,
                        const std::uint32_t* codes, std::span<const T> outliers,
                        std::size_t& cursor) {
  for (std::size_t i = 0; i < n; ++i) {
    const T pred = flat_predict_ref(data, r, i, cubic);
    data[r.tgt[i]] = q.recover(codes[i], pred, outliers, cursor);
  }
}

template <typename T>
void encode_interior_scalar(T* dp, std::size_t st, std::size_t h,
                            std::size_t s, std::size_t lo, std::size_t hi,
                            bool cubic, const LinearQuantizer<T>& q,
                            std::uint32_t* codes, std::vector<T>& outliers) {
  const std::size_t hs = h * st;
  const std::size_t h3 = 3 * h * st;
  if (cubic) {
    const CubicFit& f = cubic_fit(0xFu);
    const double c0 = f.p[0];
    const double c1 = f.p[1];
    const double c2 = f.p[2];
    const double c3 = f.p[3];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t o = (h + i * s) * st;
      double p = 0.0;
      p += c0 * static_cast<double>(dp[o - h3]);
      p += c1 * static_cast<double>(dp[o - hs]);
      p += c2 * static_cast<double>(dp[o + hs]);
      p += c3 * static_cast<double>(dp[o + h3]);
      codes[i] = q.quantize(dp[o], static_cast<T>(p), outliers);
    }
    return;
  }
  const double l0 = kLinearW[3][0];
  const double l1 = kLinearW[3][1];
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t o = (h + i * s) * st;
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
  const std::size_t hs = h * st;
  const std::size_t h3 = 3 * h * st;
  if (cubic) {
    const CubicFit& f = cubic_fit(0xFu);
    const double c0 = f.p[0];
    const double c1 = f.p[1];
    const double c2 = f.p[2];
    const double c3 = f.p[3];
    for (std::size_t i = lo; i < hi; ++i) {
      const std::size_t o = (h + i * s) * st;
      double p = 0.0;
      p += c0 * static_cast<double>(dp[o - h3]);
      p += c1 * static_cast<double>(dp[o - hs]);
      p += c2 * static_cast<double>(dp[o + hs]);
      p += c3 * static_cast<double>(dp[o + h3]);
      dp[o] = q.recover(codes[i], static_cast<T>(p), outliers, cursor);
    }
    return;
  }
  const double l0 = kLinearW[3][0];
  const double l1 = kLinearW[3][1];
  for (std::size_t i = lo; i < hi; ++i) {
    const std::size_t o = (h + i * s) * st;
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

__attribute__((target("avx2"))) inline Q4d quantize4_f64(
    __m256d v, __m256d p, double two_eb, double eb, double lim,
    std::uint32_t radius) {
  const __m256d te = _mm256_set1_pd(two_eb);
  const __m256d scaled = _mm256_div_pd(_mm256_sub_pd(v, p), te);
  const __m256d absm =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m256d inb = _mm256_cmp_pd(_mm256_and_pd(scaled, absm),
                                    _mm256_set1_pd(lim), _CMP_LT_OQ);
  const __m256d qd = llround4(scaled);
  const __m256d recon = _mm256_add_pd(p, _mm256_mul_pd(te, qd));
  const __m256d err = _mm256_and_pd(_mm256_sub_pd(recon, v), absm);
  const __m256d bok = _mm256_cmp_pd(err, _mm256_set1_pd(eb), _CMP_LE_OQ);
  Q4d r;
  r.recon = recon;
  r.code = _mm_add_epi32(_mm256_cvtpd_epi32(qd),
                         _mm_set1_epi32(static_cast<int>(radius)));
  r.ok = _mm256_movemask_pd(_mm256_and_pd(inb, bok));
  return r;
}

__attribute__((target("avx2"))) inline Q4d quantize4_f32(
    __m256d v, __m256d p, double two_eb, double eb, double lim,
    std::uint32_t radius) {
  const __m256d te = _mm256_set1_pd(two_eb);
  const __m256d scaled = _mm256_div_pd(_mm256_sub_pd(v, p), te);
  const __m256d absm =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m256d inb = _mm256_cmp_pd(_mm256_and_pd(scaled, absm),
                                    _mm256_set1_pd(lim), _CMP_LT_OQ);
  const __m256d qd = llround4(scaled);
  const __m256d wide = _mm256_add_pd(p, _mm256_mul_pd(te, qd));
  const __m256d recon = _mm256_cvtps_pd(_mm256_cvtpd_ps(wide));
  const __m256d err = _mm256_and_pd(_mm256_sub_pd(recon, v), absm);
  const __m256d bok = _mm256_cmp_pd(err, _mm256_set1_pd(eb), _CMP_LE_OQ);
  Q4d r;
  r.recon = recon;
  r.code = _mm_add_epi32(_mm256_cvtpd_epi32(qd),
                         _mm_set1_epi32(static_cast<int>(radius)));
  r.ok = _mm256_movemask_pd(_mm256_and_pd(inb, bok));
  return r;
}

__attribute__((target("avx2"))) inline __m256d gather_idx_f64(
    const double* base, const std::uint64_t* idx) {
  __m256i vi;
  std::memcpy(&vi, idx, sizeof(vi));
  return _mm256_i64gather_pd(base, vi, 8);
}

__attribute__((target("avx2"))) inline __m256d gather_idx_f32(
    const float* base, const std::uint64_t* idx) {
  __m256i vi;
  std::memcpy(&vi, idx, sizeof(vi));
  return _mm256_cvtps_pd(_mm256_i64gather_ps(base, vi, 4));
}

__attribute__((target("avx2"))) inline __m256d gather_vec_f64(
    const double* base, __m256i vi) {
  return _mm256_i64gather_pd(base, vi, 8);
}

__attribute__((target("avx2"))) inline __m256d gather_vec_f32(
    const float* base, __m256i vi) {
  return _mm256_cvtps_pd(_mm256_i64gather_ps(base, vi, 4));
}

/// Masked four-lane cubic prediction: coefficient rows gathered from the
/// Theorem-1 table by validity id, zero-coefficient terms blend-skipped in
/// scalar accumulation order. All-valid groups (the common case away from
/// mask boundaries) take a broadcast-constant fast path that performs the
/// identical operation sequence.
__attribute__((target("avx2"))) inline __m256d predict4_cubic(
    __m256d x0, __m256d x1, __m256d x2, __m256d x3, std::uint32_t f4) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = zero;
  if (f4 == 0x0F0F0F0Fu) {
    const CubicFit& f = cubic_fit(0xFu);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(f.p[0]), x0));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(f.p[1]), x1));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(f.p[2]), x2));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(f.p[3]), x3));
    return acc;
  }
  const double* tbl = detail::kCubicTable[0].p.data();
  const __m256i fidx = _mm256_slli_epi64(
      _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(f4))), 2);
  const __m256d xs[4] = {x0, x1, x2, x3};
  for (int j = 0; j < 4; ++j) {
    const __m256d c = _mm256_i64gather_pd(
        tbl, _mm256_add_epi64(fidx, _mm256_set1_epi64x(j)), 8);
    acc = _mm256_blendv_pd(acc, _mm256_add_pd(acc, _mm256_mul_pd(c, xs[j])),
                           _mm256_cmp_pd(c, zero, _CMP_NEQ_OQ));
  }
  return acc;
}

__attribute__((target("avx2"))) inline __m256d predict4_linear(
    __m256d x1, __m256d x2, std::uint32_t f4) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = zero;
  if ((f4 & 0x06060606u) == 0x06060606u) {
    const __m256d half = _mm256_set1_pd(0.5);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(half, x1));
    acc = _mm256_add_pd(acc, _mm256_mul_pd(half, x2));
    return acc;
  }
  const double* tbl = &kLinearW[0][0];
  const __m256i m = _mm256_and_si256(
      _mm256_srli_epi64(
          _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(f4))), 1),
      _mm256_set1_epi64x(3));
  const __m256i ridx = _mm256_slli_epi64(m, 1);
  const __m256d xs[2] = {x1, x2};
  for (int j = 0; j < 2; ++j) {
    const __m256d c = _mm256_i64gather_pd(
        tbl, _mm256_add_epi64(ridx, _mm256_set1_epi64x(j)), 8);
    acc = _mm256_blendv_pd(acc, _mm256_add_pd(acc, _mm256_mul_pd(c, xs[j])),
                           _mm256_cmp_pd(c, zero, _CMP_NEQ_OQ));
  }
  return acc;
}

#define CLIZ_AVX2_FLAT_ENCODE(NAME, T, GATHER, QUANT4)                        \
  __attribute__((target("avx2"))) void NAME(                                  \
      T* data, const InterpFlatRefs& r, std::size_t n, bool cubic,            \
      const LinearQuantizer<T>& q, std::uint32_t* codes,                      \
      std::vector<T>& outliers) {                                             \
    const double two_eb = 2.0 * q.error_bound();                              \
    const double eb = q.error_bound();                                        \
    const double lim = static_cast<double>(q.radius()) - 1;                   \
    std::size_t i = 0;                                                        \
    for (; i + 4 <= n; i += 4) {                                              \
      std::uint32_t f4;                                                       \
      std::memcpy(&f4, r.fid + i, 4);                                         \
      __m256d acc;                                                            \
      if (cubic) {                                                            \
        acc = predict4_cubic(GATHER(data, r.nb0 + i), GATHER(data, r.nb1 + i),\
                             GATHER(data, r.nb2 + i), GATHER(data, r.nb3 + i),\
                             f4);                                             \
      } else {                                                                \
        acc = predict4_linear(GATHER(data, r.nb1 + i), GATHER(data, r.nb2 + i),\
                              f4);                                            \
      }                                                                       \
      if (sizeof(T) == 4) acc = _mm256_cvtps_pd(_mm256_cvtpd_ps(acc));        \
      const __m256d v = GATHER(data, r.tgt + i);                              \
      const Q4d qr = QUANT4(v, acc, two_eb, eb, lim, q.radius());             \
      double rc[4];                                                           \
      double vv[4];                                                           \
      std::uint32_t cds[4];                                                   \
      _mm256_storeu_pd(rc, qr.recon);                                         \
      _mm256_storeu_pd(vv, v);                                                \
      _mm_storeu_si128(reinterpret_cast<__m128i*>(cds), qr.code);             \
      if (qr.ok == 0xF) {                                                     \
        for (unsigned k = 0; k < 4; ++k) {                                    \
          data[r.tgt[i + k]] = static_cast<T>(rc[k]);                         \
        }                                                                     \
        std::memcpy(codes + i, cds, sizeof(cds));                             \
      } else {                                                                \
        for (unsigned k = 0; k < 4; ++k) {                                    \
          if ((qr.ok >> k) & 1) {                                             \
            data[r.tgt[i + k]] = static_cast<T>(rc[k]);                       \
            codes[i + k] = cds[k];                                            \
          } else {                                                            \
            outliers.push_back(static_cast<T>(vv[k]));                        \
            codes[i + k] = 0;                                                 \
          }                                                                   \
        }                                                                     \
      }                                                                       \
    }                                                                         \
    for (; i < n; ++i) {                                                      \
      codes[i] = q.quantize(data[r.tgt[i]],                                   \
                            flat_predict_ref(data, r, i, cubic), outliers);   \
    }                                                                         \
  }

CLIZ_AVX2_FLAT_ENCODE(encode_flat_avx2_f64, double, gather_idx_f64,
                      quantize4_f64)
CLIZ_AVX2_FLAT_ENCODE(encode_flat_avx2_f32, float, gather_idx_f32,
                      quantize4_f32)
#undef CLIZ_AVX2_FLAT_ENCODE

#define CLIZ_AVX2_FLAT_DECODE(NAME, T, GATHER)                                \
  __attribute__((target("avx2"))) void NAME(                                  \
      T* data, const InterpFlatRefs& r, std::size_t n, bool cubic,            \
      const LinearQuantizer<T>& q, const std::uint32_t* codes,                \
      std::span<const T> outliers, std::size_t& cursor) {                     \
    const double two_eb = 2.0 * q.error_bound();                              \
    const int radius = static_cast<int>(q.radius());                          \
    std::size_t i = 0;                                                        \
    for (; i + 4 <= n; i += 4) {                                              \
      __m128i ci;                                                             \
      std::memcpy(&ci, codes + i, sizeof(ci));                                \
      if (_mm_movemask_ps(_mm_castsi128_ps(                                   \
              _mm_cmpeq_epi32(ci, _mm_setzero_si128()))) != 0) {              \
        /* escape lanes consume the outlier stream in serial order */         \
        for (unsigned k = 0; k < 4; ++k) {                                    \
          const T pred = flat_predict_ref(data, r, i + k, cubic);             \
          data[r.tgt[i + k]] =                                                \
              q.recover(codes[i + k], pred, outliers, cursor);                \
        }                                                                     \
        continue;                                                             \
      }                                                                       \
      __m256d acc;                                                            \
      std::uint32_t f4;                                                       \
      std::memcpy(&f4, r.fid + i, 4);                                         \
      if (cubic) {                                                            \
        acc = predict4_cubic(GATHER(data, r.nb0 + i), GATHER(data, r.nb1 + i),\
                             GATHER(data, r.nb2 + i), GATHER(data, r.nb3 + i),\
                             f4);                                             \
      } else {                                                                \
        acc = predict4_linear(GATHER(data, r.nb1 + i), GATHER(data, r.nb2 + i),\
                              f4);                                            \
      }                                                                       \
      if (sizeof(T) == 4) acc = _mm256_cvtps_pd(_mm256_cvtpd_ps(acc));        \
      const __m256d qd = _mm256_cvtepi32_pd(                                  \
          _mm_sub_epi32(ci, _mm_set1_epi32(radius)));                         \
      const __m256d recon =                                                   \
          _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(two_eb), qd));      \
      double rc[4];                                                           \
      _mm256_storeu_pd(rc, recon);                                            \
      for (unsigned k = 0; k < 4; ++k) {                                      \
        data[r.tgt[i + k]] = static_cast<T>(rc[k]);                           \
      }                                                                       \
    }                                                                         \
    for (; i < n; ++i) {                                                      \
      const T pred = flat_predict_ref(data, r, i, cubic);                     \
      data[r.tgt[i]] = q.recover(codes[i], pred, outliers, cursor);           \
    }                                                                         \
  }

CLIZ_AVX2_FLAT_DECODE(decode_flat_avx2_f64, double, gather_idx_f64)
CLIZ_AVX2_FLAT_DECODE(decode_flat_avx2_f32, float, gather_idx_f32)
#undef CLIZ_AVX2_FLAT_DECODE

#define CLIZ_AVX2_INTERIOR_ENCODE(NAME, T, GATHERV, QUANT4)                   \
  __attribute__((target("avx2"))) void NAME(                                  \
      T* dp, std::size_t st, std::size_t h, std::size_t s, std::size_t lo,    \
      std::size_t hi, bool cubic, const LinearQuantizer<T>& q,                \
      std::uint32_t* codes, std::vector<T>& outliers) {                       \
    const double two_eb = 2.0 * q.error_bound();                              \
    const double eb = q.error_bound();                                        \
    const double lim = static_cast<double>(q.radius()) - 1;                   \
    const std::size_t hs = h * st;                                            \
    const std::size_t h3 = 3 * h * st;                                        \
    const std::size_t ss = s * st;                                            \
    const CubicFit& f = cubic_fit(0xFu);                                      \
    std::size_t i = lo;                                                       \
    for (; i + 4 <= hi; i += 4) {                                             \
      const std::size_t o0 = (h + i * s) * st;                                \
      const __m256i oi = _mm256_set_epi64x(                                   \
          static_cast<long long>(o0 + 3 * ss),                                \
          static_cast<long long>(o0 + 2 * ss),                                \
          static_cast<long long>(o0 + ss), static_cast<long long>(o0));       \
      __m256d acc = _mm256_setzero_pd();                                      \
      if (cubic) {                                                            \
        acc = _mm256_add_pd(                                                  \
            acc, _mm256_mul_pd(                                               \
                     _mm256_set1_pd(f.p[0]),                                  \
                     GATHERV(dp, _mm256_sub_epi64(                            \
                                     oi, _mm256_set1_epi64x(                  \
                                             static_cast<long long>(h3)))))); \
        acc = _mm256_add_pd(                                                  \
            acc, _mm256_mul_pd(                                               \
                     _mm256_set1_pd(f.p[1]),                                  \
                     GATHERV(dp, _mm256_sub_epi64(                            \
                                     oi, _mm256_set1_epi64x(                  \
                                             static_cast<long long>(hs)))))); \
        acc = _mm256_add_pd(                                                  \
            acc, _mm256_mul_pd(                                               \
                     _mm256_set1_pd(f.p[2]),                                  \
                     GATHERV(dp, _mm256_add_epi64(                            \
                                     oi, _mm256_set1_epi64x(                  \
                                             static_cast<long long>(hs)))))); \
        acc = _mm256_add_pd(                                                  \
            acc, _mm256_mul_pd(                                               \
                     _mm256_set1_pd(f.p[3]),                                  \
                     GATHERV(dp, _mm256_add_epi64(                            \
                                     oi, _mm256_set1_epi64x(                  \
                                             static_cast<long long>(h3)))))); \
      } else {                                                                \
        const __m256d half = _mm256_set1_pd(0.5);                             \
        acc = _mm256_add_pd(                                                  \
            acc, _mm256_mul_pd(                                               \
                     half, GATHERV(dp, _mm256_sub_epi64(                      \
                                           oi, _mm256_set1_epi64x(            \
                                                   static_cast<long long>(    \
                                                       hs))))));              \
        acc = _mm256_add_pd(                                                  \
            acc, _mm256_mul_pd(                                               \
                     half, GATHERV(dp, _mm256_add_epi64(                      \
                                           oi, _mm256_set1_epi64x(            \
                                                   static_cast<long long>(    \
                                                       hs))))));              \
      }                                                                       \
      if (sizeof(T) == 4) acc = _mm256_cvtps_pd(_mm256_cvtpd_ps(acc));        \
      const __m256d v = GATHERV(dp, oi);                                      \
      const Q4d qr = QUANT4(v, acc, two_eb, eb, lim, q.radius());             \
      double rc[4];                                                           \
      double vv[4];                                                           \
      std::uint32_t cds[4];                                                   \
      _mm256_storeu_pd(rc, qr.recon);                                         \
      _mm256_storeu_pd(vv, v);                                                \
      _mm_storeu_si128(reinterpret_cast<__m128i*>(cds), qr.code);             \
      for (unsigned k = 0; k < 4; ++k) {                                      \
        if ((qr.ok >> k) & 1) {                                               \
          dp[o0 + k * ss] = static_cast<T>(rc[k]);                            \
          codes[i + k] = cds[k];                                              \
        } else {                                                              \
          outliers.push_back(static_cast<T>(vv[k]));                          \
          codes[i + k] = 0;                                                   \
        }                                                                     \
      }                                                                       \
    }                                                                         \
    encode_interior_scalar(dp, st, h, s, i, hi, cubic, q, codes, outliers);   \
  }

CLIZ_AVX2_INTERIOR_ENCODE(encode_interior_avx2_f64, double, gather_vec_f64,
                          quantize4_f64)
CLIZ_AVX2_INTERIOR_ENCODE(encode_interior_avx2_f32, float, gather_vec_f32,
                          quantize4_f32)
#undef CLIZ_AVX2_INTERIOR_ENCODE

#define CLIZ_AVX2_INTERIOR_DECODE(NAME, T, GATHERV)                           \
  __attribute__((target("avx2"))) void NAME(                                  \
      T* dp, std::size_t st, std::size_t h, std::size_t s, std::size_t lo,    \
      std::size_t hi, bool cubic, const LinearQuantizer<T>& q,                \
      const std::uint32_t* codes, std::span<const T> outliers,                \
      std::size_t& cursor) {                                                  \
    const double two_eb = 2.0 * q.error_bound();                              \
    const int radius = static_cast<int>(q.radius());                          \
    const std::size_t hs = h * st;                                            \
    const std::size_t h3 = 3 * h * st;                                        \
    const std::size_t ss = s * st;                                            \
    const CubicFit& f = cubic_fit(0xFu);                                      \
    std::size_t i = lo;                                                       \
    for (; i + 4 <= hi; i += 4) {                                             \
      __m128i ci;                                                             \
      std::memcpy(&ci, codes + i, sizeof(ci));                                \
      if (_mm_movemask_ps(_mm_castsi128_ps(                                   \
              _mm_cmpeq_epi32(ci, _mm_setzero_si128()))) != 0) {              \
        decode_interior_scalar(dp, st, h, s, i, i + 4, cubic, q, codes,       \
                               outliers, cursor);                             \
        continue;                                                             \
      }                                                                       \
      const std::size_t o0 = (h + i * s) * st;                                \
      const __m256i oi = _mm256_set_epi64x(                                   \
          static_cast<long long>(o0 + 3 * ss),                                \
          static_cast<long long>(o0 + 2 * ss),                                \
          static_cast<long long>(o0 + ss), static_cast<long long>(o0));       \
      __m256d acc = _mm256_setzero_pd();                                      \
      if (cubic) {                                                            \
        acc = _mm256_add_pd(                                                  \
            acc, _mm256_mul_pd(                                               \
                     _mm256_set1_pd(f.p[0]),                                  \
                     GATHERV(dp, _mm256_sub_epi64(                            \
                                     oi, _mm256_set1_epi64x(                  \
                                             static_cast<long long>(h3)))))); \
        acc = _mm256_add_pd(                                                  \
            acc, _mm256_mul_pd(                                               \
                     _mm256_set1_pd(f.p[1]),                                  \
                     GATHERV(dp, _mm256_sub_epi64(                            \
                                     oi, _mm256_set1_epi64x(                  \
                                             static_cast<long long>(hs)))))); \
        acc = _mm256_add_pd(                                                  \
            acc, _mm256_mul_pd(                                               \
                     _mm256_set1_pd(f.p[2]),                                  \
                     GATHERV(dp, _mm256_add_epi64(                            \
                                     oi, _mm256_set1_epi64x(                  \
                                             static_cast<long long>(hs)))))); \
        acc = _mm256_add_pd(                                                  \
            acc, _mm256_mul_pd(                                               \
                     _mm256_set1_pd(f.p[3]),                                  \
                     GATHERV(dp, _mm256_add_epi64(                            \
                                     oi, _mm256_set1_epi64x(                  \
                                             static_cast<long long>(h3)))))); \
      } else {                                                                \
        const __m256d half = _mm256_set1_pd(0.5);                             \
        acc = _mm256_add_pd(                                                  \
            acc, _mm256_mul_pd(                                               \
                     half, GATHERV(dp, _mm256_sub_epi64(                      \
                                           oi, _mm256_set1_epi64x(            \
                                                   static_cast<long long>(    \
                                                       hs))))));              \
        acc = _mm256_add_pd(                                                  \
            acc, _mm256_mul_pd(                                               \
                     half, GATHERV(dp, _mm256_add_epi64(                      \
                                           oi, _mm256_set1_epi64x(            \
                                                   static_cast<long long>(    \
                                                       hs))))));              \
      }                                                                       \
      if (sizeof(T) == 4) acc = _mm256_cvtps_pd(_mm256_cvtpd_ps(acc));        \
      const __m256d qd = _mm256_cvtepi32_pd(                                  \
          _mm_sub_epi32(ci, _mm_set1_epi32(radius)));                         \
      const __m256d recon =                                                   \
          _mm256_add_pd(acc, _mm256_mul_pd(_mm256_set1_pd(two_eb), qd));      \
      double rc[4];                                                           \
      _mm256_storeu_pd(rc, recon);                                            \
      for (unsigned k = 0; k < 4; ++k) {                                      \
        dp[o0 + k * ss] = static_cast<T>(rc[k]);                              \
      }                                                                       \
    }                                                                         \
    decode_interior_scalar(dp, st, h, s, i, hi, cubic, q, codes, outliers,    \
                           cursor);                                           \
  }

CLIZ_AVX2_INTERIOR_DECODE(decode_interior_avx2_f64, double, gather_vec_f64)
CLIZ_AVX2_INTERIOR_DECODE(decode_interior_avx2_f32, float, gather_vec_f32)
#undef CLIZ_AVX2_INTERIOR_DECODE

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
      &encode_flat_scalar<double>, &decode_flat_scalar<double>};
#ifdef CLIZ_KERNELS_X86
  static constexpr InterpKernelTable<double> kAvx2 = {
      &encode_interior_avx2_f64, &decode_interior_avx2_f64,
      &encode_flat_avx2_f64, &decode_flat_avx2_f64};
  if (tier >= SimdTier::kAvx2) return kAvx2;
#endif
  return kScalar;
}

template <>
const InterpKernelTable<float>& interp_kernels_for<float>(
    [[maybe_unused]] SimdTier tier) {
  static constexpr InterpKernelTable<float> kScalar = {
      &encode_interior_scalar<float>, &decode_interior_scalar<float>,
      &encode_flat_scalar<float>, &decode_flat_scalar<float>};
#ifdef CLIZ_KERNELS_X86
  static constexpr InterpKernelTable<float> kAvx2 = {
      &encode_interior_avx2_f32, &decode_interior_avx2_f32,
      &encode_flat_avx2_f32, &decode_flat_avx2_f32};
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

CodeScan scan_codes(const std::uint32_t* codes, std::size_t n) {
#ifdef CLIZ_KERNELS_X86
  if (active_simd_tier() >= SimdTier::kAvx2) {
    return scan_codes_avx2(codes, n);
  }
#endif
  return scan_codes_scalar(codes, n);
}

}  // namespace cliz
