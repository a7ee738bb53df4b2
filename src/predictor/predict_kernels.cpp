#include "src/predictor/predict_kernels.hpp"

#include <algorithm>
#include <cstring>

#include "src/predictor/fitting.hpp"

#if defined(__x86_64__)
#include <immintrin.h>
#define CLIZ_KERNELS_X86 1
#endif

namespace cliz {
namespace {

/// A row's Theorem-1 row: the references its fit reads (the in-range ones;
/// linear reads -h and +h only), their signed distances, coefficients and
/// ring slots. Every coefficient of a read reference is non-zero, so
/// summing the read terms in reference order from 0.0 is interp_predict's
/// accumulation at validity id `used`.
struct RowFit {
  unsigned used;
  std::ptrdiff_t dist[4];
  double coef[4];
  double* slot[4];  ///< ring slot of reference i (grid point index - 1 + i)
};

RowFit row_fit(const InterpRow& row) {
  RowFit rf{};
  const auto hs = static_cast<std::ptrdiff_t>(row.hs);
  for (unsigned i = 0; i < 4; ++i) {
    rf.dist[i] = (2 * static_cast<std::ptrdiff_t>(i) - 3) * hs;
    rf.slot[i] = row.ring + ((row.index + 3 + i) & 3u) * kRowBlock;
  }
  if (row.fit == FittingKind::kCubic) {
    rf.used = row.in_range;
    const CubicFit& f = cubic_fit(rf.used);
    for (unsigned i = 0; i < 4; ++i) rf.coef[i] = f.p[i];
  } else {
    rf.used = row.in_range & 0x6u;
    const auto lf = linear_fit(true, (rf.used & 0x4u) != 0);
    rf.coef[1] = lf[0];
    rf.coef[2] = lf[1];
  }
  return rf;
}

// ---------------------------------------------------------------------------
// Scalar tier: the reference implementation the AVX2 tier must match bit
// for bit, the kernels every tier below AVX2 runs, and the per-lane path
// the AVX2 kernels take for lanes they cannot run as a vector.
// ---------------------------------------------------------------------------

// The lane helpers are force-inlined so that inside the AVX2 kernels they
// compile to VEX code: a call from there into non-VEX code with the upper
// YMM halves dirty made each masked group several times slower.

/// The row prediction at offset `o`: interp_predict with every read
/// reference valid.
template <typename T>
[[gnu::always_inline]] inline T row_predict(const T* dp, std::size_t o,
                                           const RowFit& rf) {
  const auto so = static_cast<std::ptrdiff_t>(o);
  double p = 0.0;
  for (unsigned i = 0; i < 4; ++i) {
    if (((rf.used >> i) & 1u) != 0) {
      p += rf.coef[i] * static_cast<double>(dp[so + rf.dist[i]]);
    }
  }
  return static_cast<T>(p);
}

/// Validity id of lane k on a masked row: bit i set when the row's fit
/// reads reference i and it is valid.
[[gnu::always_inline]] inline unsigned lane_vm(const InterpRow& row,
                                               std::size_t k, unsigned used) {
  return row.lane_valid[k] & used;
}

/// Whether lane k's target is valid (every target of an unmasked row is).
[[gnu::always_inline]] inline bool lane_target(const InterpRow& row,
                                               std::size_t k) {
  return row.lane_valid == nullptr || (row.lane_valid[k] & kTargetValid) != 0;
}

/// Prediction of the valid target of lane k, at `o`: the row prediction
/// when every read reference is valid, else the masked Theorem-1 fit that
/// interp_predict computes.
template <typename T>
[[gnu::always_inline]] inline T lane_predict(const T* dp, std::size_t o,
                                             const InterpRow& row,
                                             std::size_t k, const RowFit& rf) {
  const unsigned vm =
      row.lane_valid == nullptr ? rf.used : lane_vm(row, k, rf.used);
  if (vm == rf.used) return row_predict(dp, o, rf);
  const auto so = static_cast<std::ptrdiff_t>(o);
  return fit_predict<T>(vm, row.fit,
                        [&](unsigned i) { return dp[so + rf.dist[i]]; });
}

template <typename T>
[[gnu::always_inline]] inline void encode_lanes_scalar(
    T* dp, const InterpRow& row, const RowFit& rf, std::size_t lo,
    std::size_t hi, const LinearQuantizer<T>& q, std::size_t* pos,
    std::uint32_t* codes, std::vector<RowEscape<T>>& escapes) {
  for (std::size_t k = lo; k < hi; ++k) {
    if (!lane_target(row, k)) continue;
    const std::size_t o = row.base[k] + row.off;
    const T pred = lane_predict(dp, o, row, k, rf);
    const std::size_t p = pos[k]++;
    codes[p] = q.quantize_code(dp[o], pred);
    if (codes[p] == 0) escapes.push_back({p, dp[o]});
  }
}

template <typename T>
[[gnu::always_inline]] inline void decode_lanes_scalar(
    T* dp, const InterpRow& row, const RowFit& rf, std::size_t lo,
    std::size_t hi, const LinearQuantizer<T>& q, std::size_t* pos,
    const std::uint32_t* codes, const PassOutliers<T>& outliers) {
  for (std::size_t k = lo; k < hi; ++k) {
    if (!lane_target(row, k)) continue;
    const std::size_t o = row.base[k] + row.off;
    const std::size_t p = pos[k]++;
    dp[o] = codes[p] == 0
                ? outliers.at(p)
                : q.dequantize(codes[p], lane_predict(dp, o, row, k, rf));
  }
}

template <typename T>
void encode_row_scalar(T* dp, const InterpRow& row,
                       const LinearQuantizer<T>& q, std::size_t* pos,
                       std::uint32_t* codes,
                       std::vector<RowEscape<T>>& escapes) {
  encode_lanes_scalar(dp, row, row_fit(row), 0, row.lanes, q, pos, codes,
                      escapes);
}

template <typename T>
void decode_row_scalar(T* dp, const InterpRow& row,
                       const LinearQuantizer<T>& q, std::size_t* pos,
                       const std::uint32_t* codes,
                       const PassOutliers<T>& outliers) {
  decode_lanes_scalar(dp, row, row_fit(row), 0, row.lanes, q, pos, codes,
                      outliers);
}

CodeScan scan_codes_scalar(const std::uint32_t* codes, std::size_t n,
                           std::vector<std::size_t>& escapes) {
  CodeScan r;
  for (std::size_t i = 0; i < n; ++i) {
    if (codes[i] == 0) {
      ++r.zeros;
      escapes.push_back(i);
    }
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
// AVX2 tier: four f64 lanes, one per line of a row (f32 values widened on
// load — arithmetic stays double). The target attribute deliberately
// omits "fma" so GCC cannot contract the mul+add pairs; the scalar
// reference compiles without FMA, so contraction would change bits.
// Offsets are 64-bit throughout, so no 32-bit offset-overflow guard is
// needed for large arrays.
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

/// Offsets of four lanes of a row.
struct alignas(32) Lanes4 {
  std::size_t o[4];
};

/// The values `d` elements past the four lane offsets, widened to double.
/// Scalar loads rather than a hardware gather: behind a row's scattered
/// reconstruction stores a gather stalls, and the row kernels ran 35%
/// slower with one.
template <typename T>
__attribute__((target("avx2"), always_inline)) inline __m256d load4(
    const T* dp, const Lanes4& l, std::size_t d = 0) {
  return _mm256_set_pd(static_cast<double>(dp[l.o[3] + d]),
                       static_cast<double>(dp[l.o[2] + d]),
                       static_cast<double>(dp[l.o[1] + d]),
                       static_cast<double>(dp[l.o[0] + d]));
}

/// The references of the four lanes from k (InterpRow::ring): the row's
/// new grid points — the -h and +h references on row 0, the +3h reference
/// on every row — are loaded into `ref` and stored to the ring for later
/// rows, the other read references come from the ring. The loads happen on
/// every group, valid or not, so the ring stays complete.
template <typename T, unsigned kUsed>
__attribute__((target("avx2"), always_inline)) inline void refs4(
    const T* dp, const InterpRow& row, const RowFit& rf, std::size_t k,
    const Lanes4& l, __m256d* ref) {
  // A reference the fit reads is in range, so kUsed decides at compile
  // time where it can; the linear fit still keeps +3h in the ring.
  for (unsigned i = 0; i < 4; ++i) ref[i] = _mm256_setzero_pd();
  if ((kUsed & 1u) != 0) ref[0] = _mm256_load_pd(rf.slot[0] + k);
  if (row.index == 0) {
    ref[1] = load4(dp, l, std::size_t{0} - row.hs);
    _mm256_store_pd(rf.slot[1] + k, ref[1]);
    if ((kUsed & 4u) != 0 || (row.in_range & 4u) != 0) {
      ref[2] = load4(dp, l, row.hs);
      _mm256_store_pd(rf.slot[2] + k, ref[2]);
    }
  } else {
    ref[1] = _mm256_load_pd(rf.slot[1] + k);
    if ((kUsed & 4u) != 0) ref[2] = _mm256_load_pd(rf.slot[2] + k);
  }
  if ((kUsed & 8u) != 0 || (row.in_range & 8u) != 0) {
    ref[3] = load4(dp, l, 3 * row.hs);
    _mm256_store_pd(rf.slot[3] + k, ref[3]);
  }
}

/// The masked Theorem-1 fit of lane k of a vector group, from the ring:
/// the prediction of a valid target whose read references are not all
/// valid.
template <typename T>
[[gnu::always_inline]] inline T masked_fit4(const InterpRow& row,
                                            const RowFit& rf, std::size_t k,
                                            unsigned used) {
  return fit_predict<T>(lane_vm(row, k, used), row.fit,
                        [&](unsigned i) { return rf.slot[i][k]; });
}

/// Row prediction of four lanes from their references, in row_predict's
/// accumulation order and narrowed to T as its static_cast<T>(p) does.
/// `kUsed` is the row's RowFit::used, a template argument so each row
/// shape is straight-line code.
template <typename T, unsigned kUsed>
__attribute__((target("avx2"), always_inline)) inline __m256d predict4(
    const __m256d* ref, const __m256d* coef) {
  __m256d acc = _mm256_setzero_pd();
  for (unsigned i = 0; i < 4; ++i) {
    if (((kUsed >> i) & 1u) != 0) {
      acc = _mm256_add_pd(acc, _mm256_mul_pd(coef[i], ref[i]));
    }
  }
  if constexpr (sizeof(T) == 4) acc = _mm256_cvtps_pd(_mm256_cvtpd_ps(acc));
  return acc;
}

/// Lane bits of the group of four lanes from k: `valid` marks the valid
/// targets, `full` the valid ones whose fit references are all valid.
struct GroupMask {
  unsigned valid;
  unsigned full;
};

template <unsigned kUsed>
__attribute__((target("avx2"), always_inline)) inline GroupMask group_mask(
    const InterpRow& row, std::size_t k) {
  if (row.lane_valid == nullptr) return {0xF, 0xF};
  const __m128i s = _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(row.lane_valid + k));
  const auto lanes_with = [&](std::uint32_t bits) {
    const __m128i b = _mm_set1_epi32(static_cast<int>(bits));
    return static_cast<unsigned>(_mm_movemask_ps(
        _mm_castsi128_ps(_mm_cmpeq_epi32(_mm_and_si128(s, b), b))));
  };
  return {lanes_with(kTargetValid), lanes_with(kTargetValid | kUsed)};
}

/// Groups of four lanes: when all four are full they run as vectors;
/// otherwise each valid lane finishes alone, taking the group's vector
/// prediction where it is full and the masked fit elsewhere. The last
/// lanes of a row take the scalar lane path.
template <typename T, unsigned kUsed>
__attribute__((target("avx2"))) void encode_row_avx2_used(
    T* dp, const InterpRow& row, const RowFit& rf, const LinearQuantizer<T>& q,
    std::size_t* pos, std::uint32_t* codes,
    std::vector<RowEscape<T>>& escapes) {
  // Copied out of `q`: escape appends could alias it, so the compiler
  // would reload it in the loop.
  const QuantParams qp{2.0 * q.error_bound(), q.error_bound(),
                       static_cast<double>(q.radius()) - 1, q.radius()};
  __m256d coef[4];
  for (unsigned i = 0; i < 4; ++i) coef[i] = _mm256_set1_pd(rf.coef[i]);
  std::size_t k = 0;
  for (; k + 4 <= row.lanes; k += 4) {
    Lanes4 l;
    for (unsigned j = 0; j < 4; ++j) l.o[j] = row.base[k + j] + row.off;
    __m256d ref[4];
    refs4<T, kUsed>(dp, row, rf, k, l, ref);
    const GroupMask m = group_mask<kUsed>(row, k);
    if (m.valid == 0) continue;
    const __m256d pred = predict4<T, kUsed>(ref, coef);
    std::size_t* pk = pos + k;
    if (m.full == 0xF) {
      const __m256d v = load4(dp, l);
      const Q4d qr = quantize4<T>(v, pred, qp);
      const __m256i pv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pk));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pk),
                          _mm256_add_epi64(pv, _mm256_set1_epi64x(1)));
      alignas(32) std::size_t p[4];
      alignas(32) double rc[4];
      alignas(16) std::uint32_t cds[4];
      _mm256_store_si256(reinterpret_cast<__m256i*>(p), pv);
      _mm256_store_pd(rc, qr.recon);
      _mm_store_si128(reinterpret_cast<__m128i*>(cds), qr.code);
      for (unsigned j = 0; j < 4; ++j) {
        codes[p[j]] = cds[j];
        dp[l.o[j]] = static_cast<T>(rc[j]);
      }
      if (qr.ok != 0xF) [[unlikely]] {
        // Escape lanes keep their value and take code 0.
        alignas(32) double vv[4];
        _mm256_store_pd(vv, v);
        for (unsigned j = 0; j < 4; ++j) {
          if (((qr.ok >> j) & 1) != 0) continue;
          dp[l.o[j]] = static_cast<T>(vv[j]);
          codes[p[j]] = 0;
          escapes.push_back({p[j], dp[l.o[j]]});
        }
      }
      continue;
    }
    alignas(32) double pd[4];
    _mm256_store_pd(pd, pred);
    for (unsigned j = 0; j < 4; ++j) {
      if (((m.valid >> j) & 1u) == 0) continue;
      const std::size_t o = l.o[j];
      const T pj =
          ((m.full >> j) & 1u) != 0
              ? static_cast<T>(pd[j])
              : masked_fit4<T>(row, rf, k + j, kUsed);
      const std::size_t p = pk[j]++;
      codes[p] = q.quantize_code(dp[o], pj);
      if (codes[p] == 0) escapes.push_back({p, dp[o]});
    }
  }
  encode_lanes_scalar(dp, row, rf, k, row.lanes, q, pos, codes, escapes);
}

template <typename T, unsigned kUsed>
__attribute__((target("avx2"))) void decode_row_avx2_used(
    T* dp, const InterpRow& row, const RowFit& rf, const LinearQuantizer<T>& q,
    std::size_t* pos, const std::uint32_t* codes,
    const PassOutliers<T>& outliers) {
  const __m256d two_eb = _mm256_set1_pd(2.0 * q.error_bound());
  const __m128i radius = _mm_set1_epi32(static_cast<int>(q.radius()));
  const __m256i voff = _mm256_set1_epi64x(static_cast<long long>(row.off));
  const __m256i one = _mm256_set1_epi64x(1);
  __m256d coef[4];
  for (unsigned i = 0; i < 4; ++i) coef[i] = _mm256_set1_pd(rf.coef[i]);
  std::size_t k = 0;
  for (; k + 4 <= row.lanes; k += 4) {
    Lanes4 l;
    _mm256_store_si256(
        reinterpret_cast<__m256i*>(l.o),
        _mm256_add_epi64(_mm256_loadu_si256(
                             reinterpret_cast<const __m256i*>(row.base + k)),
                         voff));
    __m256d ref[4];
    refs4<T, kUsed>(dp, row, rf, k, l, ref);
    const GroupMask m = group_mask<kUsed>(row, k);
    if (m.valid == 0) continue;
    const __m256d pred = predict4<T, kUsed>(ref, coef);
    if (m.full == 0xF) {
      // Codes are never stored during decode, so their gather does not
      // stall the way a gather of reconstructed values does.
      const __m256i pv =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(pos + k));
      const __m128i ci = _mm256_i64gather_epi32(
          reinterpret_cast<const int*>(codes), pv, 4);
      // An escape lane reconstructs to its prediction (q = 0 there) and
      // then takes its outlier.
      const __m128i zero = _mm_cmpeq_epi32(ci, _mm_setzero_si128());
      const __m256d qd =
          _mm256_cvtepi32_pd(_mm_andnot_si128(zero, _mm_sub_epi32(ci, radius)));
      alignas(32) double rc[4];
      _mm256_store_pd(rc, _mm256_add_pd(pred, _mm256_mul_pd(two_eb, qd)));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pos + k),
                          _mm256_add_epi64(pv, one));
      for (unsigned j = 0; j < 4; ++j) dp[l.o[j]] = static_cast<T>(rc[j]);
      auto esc = static_cast<unsigned>(_mm_movemask_ps(_mm_castsi128_ps(zero)));
      for (; esc != 0; esc &= esc - 1) {
        const unsigned j = static_cast<unsigned>(__builtin_ctz(esc));
        dp[l.o[j]] = outliers.at(pos[k + j] - 1);
      }
      continue;
    }
    // A group with a masked lane: each valid lane finishes alone.
    alignas(32) double pd[4];
    _mm256_store_pd(pd, pred);
    for (unsigned j = 0; j < 4; ++j) {
      if (((m.valid >> j) & 1u) == 0) continue;
      const std::size_t o = l.o[j];
      const std::size_t p = pos[k + j]++;
      if (codes[p] == 0) {
        dp[o] = outliers.at(p);
        continue;
      }
      const T pj =
          ((m.full >> j) & 1u) != 0
              ? static_cast<T>(pd[j])
              : masked_fit4<T>(row, rf, k + j, kUsed);
      dp[o] = q.dequantize(codes[p], pj);
    }
  }
  decode_lanes_scalar(dp, row, rf, k, row.lanes, q, pos, codes, outliers);
}

// One instantiation per read-reference set a row can have: -h always, +h
// whenever +3h, and -3h independently of both.
#define CLIZ_ROW_USED_SWITCH(FN, ...)                  \
  switch (rf.used) {                                   \
    case 0x2: return FN<T, 0x2>(__VA_ARGS__);          \
    case 0x3: return FN<T, 0x3>(__VA_ARGS__);          \
    case 0x6: return FN<T, 0x6>(__VA_ARGS__);          \
    case 0x7: return FN<T, 0x7>(__VA_ARGS__);          \
    case 0xE: return FN<T, 0xE>(__VA_ARGS__);          \
    default: return FN<T, 0xF>(__VA_ARGS__);           \
  }

template <typename T>
__attribute__((target("avx2"))) void encode_row_avx2(
    T* dp, const InterpRow& row, const LinearQuantizer<T>& q, std::size_t* pos,
    std::uint32_t* codes, std::vector<RowEscape<T>>& escapes) {
  const RowFit rf = row_fit(row);
  CLIZ_ROW_USED_SWITCH(encode_row_avx2_used, dp, row, rf, q, pos, codes,
                       escapes)
}

template <typename T>
__attribute__((target("avx2"))) void decode_row_avx2(
    T* dp, const InterpRow& row, const LinearQuantizer<T>& q, std::size_t* pos,
    const std::uint32_t* codes, const PassOutliers<T>& outliers) {
  const RowFit rf = row_fit(row);
  CLIZ_ROW_USED_SWITCH(decode_row_avx2_used, dp, row, rf, q, pos, codes,
                       outliers)
}

#undef CLIZ_ROW_USED_SWITCH

__attribute__((target("avx2"))) CodeScan scan_codes_avx2(
    const std::uint32_t* codes, std::size_t n,
    std::vector<std::size_t>& escapes) {
  CodeScan r;
  const __m256i zero = _mm256_setzero_si256();
  __m256i vmax = zero;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256i v;
    std::memcpy(&v, codes + i, sizeof(v));
    auto zmask = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(v, zero))));
    for (; zmask != 0; zmask &= zmask - 1) {
      escapes.push_back(i + static_cast<std::size_t>(__builtin_ctz(zmask)));
      ++r.zeros;
    }
    vmax = _mm256_max_epu32(vmax, v);
  }
  alignas(32) std::uint32_t mx[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(mx), vmax);
  for (unsigned k = 0; k < 8; ++k) r.max_code = std::max(r.max_code, mx[k]);
  for (; i < n; ++i) {
    if (codes[i] == 0) {
      ++r.zeros;
      escapes.push_back(i);
    }
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
      &encode_row_scalar<double>, &decode_row_scalar<double>,
      &scan_codes_scalar};
#ifdef CLIZ_KERNELS_X86
  static constexpr InterpKernelTable<double> kAvx2 = {
      &encode_row_avx2<double>, &decode_row_avx2<double>, &scan_codes_avx2};
  if (tier >= SimdTier::kAvx2) return kAvx2;
#endif
  return kScalar;
}

template <>
const InterpKernelTable<float>& interp_kernels_for<float>(
    [[maybe_unused]] SimdTier tier) {
  static constexpr InterpKernelTable<float> kScalar = {
      &encode_row_scalar<float>, &decode_row_scalar<float>,
      &scan_codes_scalar};
#ifdef CLIZ_KERNELS_X86
  static constexpr InterpKernelTable<float> kAvx2 = {
      &encode_row_avx2<float>, &decode_row_avx2<float>, &scan_codes_avx2};
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
