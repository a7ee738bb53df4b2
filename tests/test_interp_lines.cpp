// InterpLines suite: the line-parallel engine (interp_encode_lines /
// interp_decode_lines) runs each pass as rows — one target coordinate
// across a block of lines — with full lanes on the vector path and masked
// lanes whose references are not all valid on the scalar Theorem-1 fit.
// Whatever the lane split, block split or thread count, the result must
// equal the per-point engine (interp_encode / interp_decode) exactly: the
// same offsets, codes and outliers in the same order, and bit-identical
// reconstructions on both sides. Masks are exhaustive on short 1-D lines
// (single valid points, valid runs of every length, runs touching either
// line end), random on 2-D/3-D shapes with extents 1..40 and on the
// 8x32x32-style tile shapes, at every available SIMD tier, for both fits
// and both sample widths; spiked fields put escapes in every pass, a
// 40x40x40 field runs its large passes as parallel row blocks at 1 and 4
// threads, lines 1 KiB apart run through staged windows, and dynamic
// fitting is checked tier against scalar tier.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "src/common/cpu_features.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/predictor/interp_engine.hpp"

namespace cliz {
namespace {

/// Restores the active tier on scope exit, so a failing assertion cannot
/// leak a forced tier into later tests.
struct TierGuard {
  SimdTier saved = active_simd_tier();
  TierGuard() = default;
  ~TierGuard() { set_active_simd_tier(saved); }
  TierGuard(const TierGuard&) = delete;
  TierGuard& operator=(const TierGuard&) = delete;
};

std::vector<SimdTier> available_tiers() {
  std::vector<SimdTier> tiers;
  for (std::size_t t = 0; t <= static_cast<std::size_t>(detected_simd_tier());
       ++t) {
    tiers.push_back(static_cast<SimdTier>(t));
  }
  return tiers;
}

/// One field: values, an optional validity map, and the quantizer bound.
template <typename T>
struct Field {
  Shape shape{DimVec{1}};
  std::vector<T> data;
  std::vector<std::uint8_t> valid;  ///< empty = no mask
  double eb = 1e-3;

  [[nodiscard]] const std::uint8_t* validity() const {
    return valid.empty() ? nullptr : valid.data();
  }
};

/// Everything an engine run produces.
template <typename T>
struct Outcome {
  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> codes;
  std::vector<T> outliers;
  std::vector<std::uint8_t> pass_fits;
  std::vector<T> encoded;  ///< encoder's in-place reconstruction
  std::vector<T> decoded;
  /// Lines engine: code count after each decode fetch (one per pass).
  std::vector<std::size_t> marks;
};

/// Restores the worker-thread count on scope exit.
struct ThreadGuard {
  int saved = hardware_threads();
  ThreadGuard() = default;
  ~ThreadGuard() { set_thread_count(saved); }
  ThreadGuard(const ThreadGuard&) = delete;
  ThreadGuard& operator=(const ThreadGuard&) = delete;
};

std::vector<std::size_t> identity_order(std::size_t n) {
  std::vector<std::size_t> o(n);
  std::iota(o.begin(), o.end(), std::size_t{0});
  return o;
}

/// Smooth waves plus noise; masked points hold fill garbage (alternately a
/// CESM-like fill value and NaN) that must never reach a prediction.
template <typename T>
std::vector<T> make_values(const Shape& shape,
                           const std::vector<std::uint8_t>& valid, Rng& rng,
                           double noise) {
  std::vector<T> data(shape.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 0.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      v += std::sin(0.37 * static_cast<double>(c[d]) +
                    0.9 * static_cast<double>(d));
    }
    data[i] = static_cast<T>(v + noise * rng.normal());
    if (!valid.empty() && valid[i] == 0) {
      data[i] = i % 2 == 0 ? static_cast<T>(9.96921e36)
                           : std::numeric_limits<T>::quiet_NaN();
    }
  }
  return data;
}

/// The per-point reference: interp_encode / interp_decode.
template <typename T>
Outcome<T> run_points(const Field<T>& f, FittingKind fit) {
  const auto axes = fused_axes(f.shape, FusionSpec::none(f.shape.ndims()));
  const auto order = identity_order(f.shape.ndims());
  const LinearQuantizer<T> q(f.eb);
  Outcome<T> r;
  r.encoded = f.data;
  interp_encode(r.encoded.data(), axes, order, fit, q, r.outliers,
                f.validity(), [&](std::size_t off, std::uint32_t code) {
                  r.offsets.push_back(off);
                  r.codes.push_back(code);
                });
  r.decoded = f.data;
  std::size_t cursor = 0;
  std::size_t next = 0;
  interp_decode(r.decoded.data(), axes, order, fit, q,
                std::span<const T>(r.outliers), cursor, f.validity(),
                [&](std::size_t) { return r.codes[next++]; });
  EXPECT_EQ(next, r.codes.size());
  EXPECT_EQ(cursor, r.outliers.size());
  return r;
}

/// The line-parallel engine at the active tier. The decode side checks that
/// every fetch hands over the encoder's target offsets when `classified`.
template <typename T>
Outcome<T> run_lines(const Field<T>& f, FittingKind fit, bool dynamic,
                     bool classified) {
  const auto axes = fused_axes(f.shape, FusionSpec::none(f.shape.ndims()));
  const auto order = identity_order(f.shape.ndims());
  const LinearQuantizer<T> q(f.eb);
  InterpLineScratch scratch;
  Outcome<T> r;
  r.encoded = f.data;
  interp_encode_lines(r.encoded.data(), axes, order, dynamic, fit, q,
                      f.validity(), &r.offsets, r.codes, r.outliers,
                      r.pass_fits, scratch);
  r.decoded = f.data;
  std::size_t cursor = 0;
  std::size_t next = 0;
  interp_decode_lines(
      r.decoded.data(), axes, order, dynamic, fit,
      std::span<const std::uint8_t>(r.pass_fits), q,
      std::span<const T>(r.outliers), cursor, f.validity(), classified,
      scratch,
      [&](const std::uint64_t* offs, std::uint32_t* dst, std::size_t n) {
        ASSERT_LE(next + n, r.codes.size());
        for (std::size_t i = 0; i < n; ++i) {
          if (offs != nullptr) {
            ASSERT_EQ(offs[i], r.offsets[next + i]);
          }
          dst[i] = r.codes[next + i];
        }
        next += n;
        r.marks.push_back(next);
      });
  EXPECT_EQ(next, r.codes.size());
  EXPECT_EQ(cursor, r.outliers.size());
  return r;
}

template <typename T>
bool same_bits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

/// Asserts two outcomes are identical (the caller's SCOPED_TRACE names the
/// case).
template <typename T>
void expect_same(const Outcome<T>& want, const Outcome<T>& got) {
  EXPECT_EQ(got.offsets, want.offsets);
  EXPECT_EQ(got.codes, want.codes);
  EXPECT_TRUE(same_bits(got.outliers, want.outliers)) << "outliers";
  EXPECT_EQ(got.pass_fits, want.pass_fits);
  EXPECT_TRUE(same_bits(got.encoded, want.encoded))
      << "encoder reconstruction";
  EXPECT_TRUE(same_bits(got.decoded, want.decoded))
      << "decoder reconstruction";
}

/// Shape and mask of a field for failure messages; masks of up to 64
/// points are spelled out.
::testing::Message describe(const Shape& shape,
                            const std::vector<std::uint8_t>& valid) {
  ::testing::Message m;
  m << "dims";
  for (std::size_t d = 0; d < shape.ndims(); ++d) m << ' ' << shape.dim(d);
  m << " mask ";
  if (valid.empty()) {
    m << "none";
  } else if (valid.size() > 64) {
    m << std::count(valid.begin(), valid.end(), 1) << " valid";
  } else {
    for (const std::uint8_t v : valid) m << (v != 0 ? '1' : '0');
  }
  return m;
}

/// Static-fit parity against the per-point engine at every tier, both
/// widths, both fits, classified and plain fetches.
template <typename T>
void check_static(const Field<T>& f) {
  for (const FittingKind fit : {FittingKind::kLinear, FittingKind::kCubic}) {
    const Outcome<T> want = run_points(f, fit);
    for (const SimdTier tier : available_tiers()) {
      TierGuard guard;
      set_active_simd_tier(tier);
      for (const bool classified : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << describe(f.shape, f.valid) << " f" << 8 * sizeof(T)
                     << (fit == FittingKind::kCubic ? " cubic" : " linear")
                     << " tier " << simd_tier_name(tier)
                     << (classified ? " classified" : ""));
        expect_same(want, run_lines(f, fit, false, classified));
      }
    }
  }
}

/// Builds the f32 or f64 field of a geometry, mask and seed.
template <typename T>
Field<T> make_field(const Shape& shape, const std::vector<std::uint8_t>& valid,
                    std::uint64_t seed, double noise, double eb) {
  Field<T> f;
  f.shape = shape;
  f.valid = valid;
  f.eb = eb;
  Rng rng(seed);
  f.data = make_values<T>(shape, valid, rng, noise);
  return f;
}

/// Runs `check_static` on the same geometry and mask for f32 and f64.
void check_both_widths(const Shape& shape,
                       const std::vector<std::uint8_t>& valid,
                       std::uint64_t seed, double noise, double eb) {
  check_static(make_field<float>(shape, valid, seed, noise, eb));
  check_static(make_field<double>(shape, valid, seed, noise, eb));
}

// Every mask of every 1-D line up to 11 points: isolated valid points,
// valid runs of each length 1..11 at every position (touching the start,
// the end, both, or neither) and every gap pattern between them. At
// extent >= 7 the finest level has targets with all four cubic references,
// so runs, edges and their interleaving are all exercised.
TEST(InterpLines, ExhaustiveShortLineMasksMatchPerPointEngine) {
  for (std::size_t n = 1; n <= 11; ++n) {
    const Shape shape(DimVec{n});
    for (std::uint32_t m = 0; m < (1u << n); ++m) {
      std::vector<std::uint8_t> valid;
      for (std::size_t i = 0; i < n; ++i) valid.push_back((m >> i) & 1u);
      check_both_widths(shape, valid, 11 + m, 0.3, 0.05);
      if (HasFailure()) return;
    }
  }
}

// Lines of every extent 1..40 with valid runs of 1..8 targets separated by
// gaps of 1..3, starting at either line end, plus the unmasked and the
// all-valid line.
TEST(InterpLines, RunsOfOneToEightTargetsMatchPerPointEngine) {
  for (std::size_t n = 1; n <= 40; ++n) {
    const Shape shape(DimVec{n});
    check_both_widths(shape, {}, n, 0.2, 1e-3);
    check_both_widths(shape, std::vector<std::uint8_t>(n, 1), n, 0.2, 1e-3);
    for (std::size_t run = 1; run <= 8; ++run) {
      for (std::size_t gap = 1; gap <= 3; ++gap) {
        for (const bool from_end : {false, true}) {
          std::vector<std::uint8_t> valid(n);
          for (std::size_t i = 0; i < n; ++i) {
            const std::size_t p = from_end ? n - 1 - i : i;
            valid[p] = (i % (run + gap)) < run ? 1 : 0;
          }
          check_both_widths(shape, valid, 100 * n + run, 0.2, 1e-3);
        }
      }
      if (HasFailure()) return;
    }
  }
}

/// Random shape with 1..3 dims and extents 1..40 (total kept small).
Shape random_shape(Rng& rng) {
  const std::size_t nd = 1 + rng.uniform_index(3);
  DimVec dims(nd);
  for (auto& d : dims) d = 1 + rng.uniform_index(40);
  while (Shape(dims).size() > 12000) {
    auto& big = *std::max_element(dims.begin(), dims.end());
    big = 1 + big / 2;
  }
  return Shape(dims);
}

/// Random mask of one of four kinds: scattered invalid points at a random
/// density, isolated valid points, rows of valid runs along the last axis,
/// or a rectangular hole.
std::vector<std::uint8_t> random_mask(const Shape& shape, Rng& rng) {
  std::vector<std::uint8_t> valid(shape.size(), 1);
  const std::size_t last = shape.dim(shape.ndims() - 1);
  switch (rng.uniform_index(4)) {
    case 0: {
      const double p = rng.uniform(0.02, 0.7);
      for (auto& v : valid) v = rng.uniform() < p ? 0 : 1;
      break;
    }
    case 1:
      for (auto& v : valid) v = rng.uniform() < 0.1 ? 1 : 0;
      break;
    case 2: {
      const std::size_t run = 1 + rng.uniform_index(8);
      const std::size_t gap = 1 + rng.uniform_index(4);
      const std::size_t phase = rng.uniform_index(run + gap);
      for (std::size_t i = 0; i < valid.size(); ++i) {
        valid[i] = ((i % last) + phase) % (run + gap) < run ? 1 : 0;
      }
      break;
    }
    default:
      for (std::size_t i = 0; i < valid.size(); ++i) {
        const auto c = shape.coords(i);
        bool inside = true;
        for (std::size_t d = 0; d < c.size(); ++d) {
          const std::size_t e = shape.dim(d);
          inside = inside && c[d] >= e / 4 && c[d] < e / 4 + (e + 1) / 2;
        }
        valid[i] = inside ? 0 : 1;
      }
      break;
  }
  return valid;
}

TEST(InterpLines, RandomMasksAndShapesMatchPerPointEngine) {
  Rng rng(20240611);
  for (int trial = 0; trial < 60; ++trial) {
    const Shape shape = random_shape(rng);
    const auto valid = random_mask(shape, rng);
    const double eb = std::pow(10.0, rng.uniform(-4.0, -1.0));
    check_both_widths(shape, valid, 7 + trial, rng.uniform(0.0, 0.4), eb);
    if (HasFailure()) return;
  }
}

/// Adds spikes of +-1e5 to about one valid point in six: far past the
/// quantizer's reach (2 * eb * 32766 <= 6.6e3 at eb <= 0.1), so each spike
/// and the targets predicted from it escape.
template <typename T>
void add_spikes(Field<T>& f, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < f.data.size(); ++i) {
    if ((f.valid.empty() || f.valid[i] != 0) && rng.uniform() < 0.17) {
      f.data[i] += static_cast<T>(i % 2 == 0 ? 1e5 : -1e5);
    }
  }
}

/// Static-fit parity against the per-point engine at 1 and 4 worker
/// threads and every tier, both fits, classified fetch. Returns the
/// single-thread outcome of the cubic fit for further checks.
template <typename T>
Outcome<T> check_threads(const Field<T>& f) {
  Outcome<T> cubic;
  for (const FittingKind fit : {FittingKind::kLinear, FittingKind::kCubic}) {
    const Outcome<T> want = run_points(f, fit);
    for (const int threads : {1, 4}) {
      ThreadGuard threads_guard;
      set_thread_count(threads);
      for (const SimdTier tier : available_tiers()) {
        TierGuard guard;
        set_active_simd_tier(tier);
        SCOPED_TRACE(::testing::Message()
                     << describe(f.shape, f.valid) << " f" << 8 * sizeof(T)
                     << (fit == FittingKind::kCubic ? " cubic" : " linear")
                     << " threads " << threads << " tier "
                     << simd_tier_name(tier));
        Outcome<T> got = run_lines(f, fit, false, true);
        expect_same(want, got);
        if (fit == FittingKind::kCubic && threads == 1) cubic = std::move(got);
      }
    }
  }
  return cubic;
}

/// Asserts that every pass with at least `min_codes` codes emitted an
/// escape (code 0).
template <typename T>
void expect_escapes_in_every_pass(const Outcome<T>& r, std::size_t min_codes) {
  std::size_t begin = 0;
  for (const std::size_t end : r.marks) {
    if (end - begin >= min_codes) {
      EXPECT_NE(std::find(r.codes.begin() + static_cast<std::ptrdiff_t>(begin),
                          r.codes.begin() + static_cast<std::ptrdiff_t>(end),
                          0u),
                r.codes.begin() + static_cast<std::ptrdiff_t>(end))
          << "no escape in the pass coding [" << begin << ", " << end << ")";
    }
    begin = end;
  }
}

// Spiked fields: every pass of more than a few targets escapes somewhere,
// so rows interleave escapes from many lines and the encoder's per-block
// escape merge and the decoder's rank lookup both carry real load.
TEST(InterpLines, SpikedFieldsEscapeInEveryPassAndMatchPerPointEngine) {
  Rng rng(515);
  const Shape shapes[] = {Shape(DimVec{8, 32, 32}), Shape(DimVec{40, 40, 40}),
                          Shape(DimVec{37, 29}), Shape(DimVec{300})};
  for (std::size_t k = 0; k < std::size(shapes); ++k) {
    const Shape& shape = shapes[k];
    const auto valid = k % 2 == 0 ? random_mask(shape, rng)
                                   : std::vector<std::uint8_t>{};
    auto f32 = make_field<float>(shape, valid, 90 + k, 0.2, 1e-3);
    add_spikes(f32, 190 + k);
    expect_escapes_in_every_pass(check_threads(f32), 8);
    auto f64 = make_field<double>(shape, valid, 90 + k, 0.2, 1e-3);
    add_spikes(f64, 190 + k);
    expect_escapes_in_every_pass(check_threads(f64), 8);
    if (HasFailure()) return;
  }
}

// A 40x40x40 field: its finest passes have 8,000 to 32,000 targets, past
// kLineParallelGrain, so they split into parallel row-block ranges.
TEST(InterpLines, ParallelPassesMatchPerPointEngine) {
  const Shape shape(DimVec{40, 40, 40});
  ASSERT_GT(shape.size() / 8, kLineParallelGrain);
  Rng rng(616);
  check_threads(make_field<float>(shape, {}, 61, 0.3, 1e-3));
  check_threads(make_field<double>(shape, random_mask(shape, rng), 62, 0.3,
                                   1e-4));
}

// Lines a multiple of 1 KiB apart (rows_alias) run their passes along the
// last axis through staged windows: interleaved copies of kStageRows rows,
// and on the encode side staged codes whose escapes move to line-major
// positions when a window closes. Spikes put escapes in every pass; 37
// lines leave a partial block, line ends and coarse levels leave partial
// windows, masks leave lanes that skip targets, and 130 lines of 128 or
// 192 targets run as parallel parts at 4 threads.
TEST(InterpLines, StagedWindowsMatchPerPointEngine) {
  ASSERT_TRUE(detail::rows_alias<float>(std::vector<std::size_t>{0, 256}));
  ASSERT_TRUE(detail::rows_alias<double>(std::vector<std::size_t>{0, 128}));
  ASSERT_FALSE(detail::rows_alias<float>(std::vector<std::size_t>{0, 32}));
  Rng rng(818);
  for (const std::size_t lines : {37, 130}) {
    for (const bool masked : {false, true}) {
      const Shape s32(DimVec{lines, 256});
      const Shape s64(DimVec{lines, 128});
      auto f32 = make_field<float>(
          s32, masked ? random_mask(s32, rng) : std::vector<std::uint8_t>{},
          80 + lines, 0.2, 1e-3);
      add_spikes(f32, 180 + lines);
      expect_escapes_in_every_pass(check_threads(f32), 8);
      auto f64 = make_field<double>(
          s64, masked ? random_mask(s64, rng) : std::vector<std::uint8_t>{},
          90 + lines, 0.2, 1e-3);
      add_spikes(f64, 190 + lines);
      expect_escapes_in_every_pass(check_threads(f64), 8);
      if (HasFailure()) return;
    }
  }
  const Shape s3(DimVec{6, 5, 768});
  check_threads(make_field<float>(s3, random_mask(s3, rng), 70, 0.3, 1e-4));
  check_threads(make_field<double>(Shape(DimVec{6, 5, 384}), {}, 71, 0.3,
                                   1e-4));
}

// The tiled-read tile shapes with random masks: short lines, where most
// targets sit at line ends or next to masked points.
TEST(InterpLines, TileShapesWithRandomMasksMatchPerPointEngine) {
  Rng rng(717);
  const Shape shapes[] = {Shape(DimVec{8, 32, 32}), Shape(DimVec{4, 32, 32}),
                          Shape(DimVec{8, 22, 16})};
  for (int trial = 0; trial < 4; ++trial) {
    for (const Shape& shape : shapes) {
      const auto valid = random_mask(shape, rng);
      const double eb = std::pow(10.0, rng.uniform(-4.0, -2.0));
      const double noise = rng.uniform(0.0, 0.4);
      check_threads(make_field<float>(shape, valid, 300 + trial, noise, eb));
      check_threads(make_field<double>(shape, valid, 400 + trial, noise, eb));
      if (HasFailure()) return;
    }
  }
}

// Dynamic fitting has no per-point counterpart: each tier must reproduce
// the scalar tier exactly — pass fits, codes, outliers and both
// reconstructions — on random masked and unmasked fields.
TEST(InterpLines, DynamicFittingMatchesScalarTier) {
  Rng rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    Field<double> f64;
    f64.shape = random_shape(rng);
    if (trial % 4 != 0) f64.valid = random_mask(f64.shape, rng);
    f64.eb = std::pow(10.0, rng.uniform(-4.0, -1.0));
    f64.data = make_values<double>(f64.shape, f64.valid, rng,
                                   rng.uniform(0.0, 0.5));
    Field<float> f32;
    f32.shape = f64.shape;
    f32.valid = f64.valid;
    f32.eb = f64.eb;
    f32.data.assign(f64.data.begin(), f64.data.end());
    for (const FittingKind fallback :
         {FittingKind::kLinear, FittingKind::kCubic}) {
      Outcome<float> want32;
      Outcome<double> want64;
      {
        TierGuard guard;
        set_active_simd_tier(SimdTier::kScalar);
        want32 = run_lines(f32, fallback, true, false);
        want64 = run_lines(f64, fallback, true, false);
      }
      for (const SimdTier tier : available_tiers()) {
        TierGuard guard;
        set_active_simd_tier(tier);
        SCOPED_TRACE(::testing::Message()
                     << describe(f64.shape, f64.valid) << " trial " << trial
                     << " tier " << simd_tier_name(tier));
        expect_same(want32, run_lines(f32, fallback, true, true));
        expect_same(want64, run_lines(f64, fallback, true, true));
      }
    }
    if (HasFailure()) return;
  }
}

}  // namespace
}  // namespace cliz
