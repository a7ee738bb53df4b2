// SimdKernels equivalence suite: the flat predict/quantize kernels must be
// bit-identical at every ISA tier. For randomized (shape, mask, fitting,
// bound, texture) cases the whole codec is run with the tier pinned via
// set_active_simd_tier — streams AND reconstructions must match the scalar
// tier byte for byte, for f32 and f64, masked and unmasked, dynamic and
// static fitting. Adversarial half-integer cases pin the llround emulation
// (round-half-away-from-zero on top of round-to-nearest-even); scan_codes
// is checked against a reference scan; the Lorenzo raster scan must honour
// cooperative cancellation at its poll points.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <optional>
#include <vector>

#include "src/common/cpu_features.hpp"
#include "src/common/governor.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/ndarray/layout.hpp"
#include "src/predictor/lorenzo_nd.hpp"
#include "src/predictor/predict_kernels.hpp"

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

template <typename T>
struct KernelCase {
  Shape shape{DimVec{1}};
  NdArray<T> data{Shape{DimVec{1}}};
  std::optional<MaskMap> mask;
  PipelineConfig config = PipelineConfig::defaults(1);
  ClizOptions options;
  double eb = 1e-3;
};

/// Random case generator biased toward the interp hot path: varied shapes
/// (including length-1 and prime extents so boundary/tail lanes are hit),
/// optional blob/row masks, both fitting kinds, dynamic and static.
template <typename T>
KernelCase<T> draw_case(std::uint64_t seed) {
  Rng rng(seed);
  KernelCase<T> c;

  const std::size_t nd = 1 + rng.uniform_index(4);
  DimVec dims(nd);
  for (auto& d : dims) d = 1 + rng.uniform_index(nd >= 3 ? 17 : 61);
  c.shape = Shape(dims);
  c.data = NdArray<T>(c.shape);

  const double scale = std::pow(10.0, rng.uniform(-2.0, 3.0));
  const double noise = rng.uniform(0.0, 0.3);
  for (std::size_t i = 0; i < c.data.size(); ++i) {
    const auto coords = c.shape.coords(i);
    double v = 0.0;
    for (std::size_t d = 0; d < nd; ++d) {
      v += std::sin(0.13 * static_cast<double>(coords[d]) +
                    static_cast<double>(d));
    }
    c.data[i] = static_cast<T>(scale * (v + noise * rng.normal()));
  }

  const auto mask_kind = rng.uniform_index(3);
  if (mask_kind > 0) {
    c.mask = MaskMap::all_valid(c.shape);
    const double invalid_frac = rng.uniform(0.05, 0.6);
    for (std::size_t i = 0; i < c.data.size(); ++i) {
      const bool invalid =
          mask_kind == 1
              ? rng.uniform() < invalid_frac
              : (i / std::max<std::size_t>(1, c.shape.dims().back())) % 3 == 0;
      if (invalid) {
        c.mask->mutable_data()[i] = 0;
        c.data[i] = static_cast<T>(9.96921e36);
      }
    }
  }

  c.config = PipelineConfig::defaults(nd);
  const auto perms = all_permutations(nd);
  const auto fusions = all_fusions(nd);
  c.config.permutation = perms[rng.uniform_index(perms.size())];
  c.config.fusion = fusions[rng.uniform_index(fusions.size())];
  c.config.fitting =
      rng.uniform() < 0.5 ? FittingKind::kLinear : FittingKind::kCubic;
  c.config.dynamic_fitting = rng.uniform() < 0.7;
  c.config.classify_bins = rng.uniform() < 0.3;
  c.eb = scale * std::pow(10.0, rng.uniform(-5.0, -1.0));
  return c;
}

/// Compresses and decompresses `c` with the tier pinned; returns the stream
/// and reconstruction bits.
template <typename T>
void run_at_tier(const KernelCase<T>& c, SimdTier tier,
                 std::vector<std::uint8_t>& stream, NdArray<T>& recon) {
  TierGuard guard;
  set_active_simd_tier(tier);
  const MaskMap* mask = c.mask.has_value() ? &*c.mask : nullptr;
  const ClizCompressor codec(c.config, c.options);
  stream = codec.compress(c.data, c.eb, mask);
  recon = ClizCompressor::decompress<T>(stream);
}

template <typename T>
void expect_tier_equivalence(std::uint64_t seed) {
  const KernelCase<T> c = draw_case<T>(seed);
  std::vector<std::uint8_t> ref_stream;
  NdArray<T> ref_recon{Shape{DimVec{1}}};
  run_at_tier(c, SimdTier::kScalar, ref_stream, ref_recon);
  for (const SimdTier tier : available_tiers()) {
    if (tier == SimdTier::kScalar) continue;
    std::vector<std::uint8_t> stream;
    NdArray<T> recon{Shape{DimVec{1}}};
    run_at_tier(c, tier, stream, recon);
    ASSERT_EQ(stream, ref_stream)
        << "seed " << seed << " tier " << simd_tier_name(tier) << " config "
        << c.config.label();
    ASSERT_EQ(recon.size(), ref_recon.size()) << "seed " << seed;
    ASSERT_EQ(std::memcmp(recon.data(), ref_recon.data(),
                          recon.size() * sizeof(T)),
              0)
        << "seed " << seed << " tier " << simd_tier_name(tier);
  }
}

class SimdKernelsEquivalence : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SimdKernelsEquivalence, StreamsAndReconsMatchScalarF32) {
  for (std::uint64_t i = 0; i < 12; ++i) {
    expect_tier_equivalence<float>(GetParam() * 1000 + i);
  }
}

TEST_P(SimdKernelsEquivalence, StreamsAndReconsMatchScalarF64) {
  for (std::uint64_t i = 0; i < 8; ++i) {
    expect_tier_equivalence<double>(40000 + GetParam() * 1000 + i);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimdKernelsEquivalence,
                         ::testing::Values(1, 2, 3, 4));

// Half-integer adversarial cases: with eb an exact power of two and data on
// the eb grid, (value - pred) / (2 * eb) lands on exact half-integers, the
// one input class where round-to-nearest-even and llround's
// half-away-from-zero disagree. The SIMD fixup must reproduce llround for
// positive AND negative halves (the naive |fix| variant breaks at +3.5).
TEST(SimdKernelsHalfInteger, RoundingMatchesScalarOnHalfIntegerGrid) {
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    Rng rng(9100 + seed);
    KernelCase<float> c;
    c.shape = Shape(DimVec{37, 41});
    c.data = NdArray<float>(c.shape);
    c.eb = std::ldexp(1.0, -static_cast<int>(rng.uniform_index(6)) - 2);
    for (std::size_t i = 0; i < c.data.size(); ++i) {
      // Values at integer AND half-integer multiples of 2*eb, both signs.
      const int n = static_cast<int>(rng.uniform_index(31)) - 15;
      c.data[i] = static_cast<float>(static_cast<double>(n) * c.eb);
    }
    c.config = PipelineConfig::defaults(2);
    c.config.dynamic_fitting = false;
    c.config.fitting = seed % 2 == 0 ? FittingKind::kCubic
                                     : FittingKind::kLinear;

    std::vector<std::uint8_t> ref_stream;
    NdArray<float> ref_recon{Shape{DimVec{1}}};
    run_at_tier(c, SimdTier::kScalar, ref_stream, ref_recon);
    for (const SimdTier tier : available_tiers()) {
      std::vector<std::uint8_t> stream;
      NdArray<float> recon{Shape{DimVec{1}}};
      run_at_tier(c, tier, stream, recon);
      ASSERT_EQ(stream, ref_stream)
          << "seed " << seed << " tier " << simd_tier_name(tier);
      ASSERT_EQ(std::memcmp(recon.data(), ref_recon.data(),
                            recon.size() * sizeof(float)),
                0)
          << "seed " << seed << " tier " << simd_tier_name(tier);
    }
  }
}

// The kernel tables' scan_codes must agree with a reference scan at every
// tier, for every alignment/tail length.
TEST(SimdKernelsScanCodes, MatchesReferenceAtEveryTier) {
  Rng rng(4242);
  for (std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                        std::size_t{7}, std::size_t{8}, std::size_t{13},
                        std::size_t{64}, std::size_t{1000}}) {
    std::vector<std::uint32_t> codes(n);
    for (auto& v : codes) {
      const auto kind = rng.uniform_index(4);
      v = kind == 0 ? 0u
                    : static_cast<std::uint32_t>(
                          rng.uniform_index(kind == 1 ? 7u : 0xFFFFFFu));
    }
    CodeScan ref;
    std::vector<std::size_t> ref_escapes;
    for (std::size_t i = 0; i < n; ++i) {
      if (codes[i] == 0) {
        ++ref.zeros;
        ref_escapes.push_back(i);
      }
      if (codes[i] > ref.max_code) ref.max_code = codes[i];
    }
    for (const SimdTier tier : available_tiers()) {
      TierGuard guard;
      set_active_simd_tier(tier);
      std::vector<std::size_t> esc32;
      std::vector<std::size_t> esc64;
      const CodeScan got32 =
          interp_kernels<float>().scan_codes(codes.data(), codes.size(), esc32);
      const CodeScan got64 = interp_kernels<double>().scan_codes(
          codes.data(), codes.size(), esc64);
      for (const CodeScan& got : {got32, got64}) {
        EXPECT_EQ(got.zeros, ref.zeros)
            << "n=" << n << " tier " << simd_tier_name(tier);
        EXPECT_EQ(got.max_code, ref.max_code)
            << "n=" << n << " tier " << simd_tier_name(tier);
      }
      EXPECT_EQ(esc32, ref_escapes)
          << "n=" << n << " tier " << simd_tier_name(tier);
      EXPECT_EQ(esc64, ref_escapes)
          << "n=" << n << " tier " << simd_tier_name(tier);
    }
  }
}

// The Lorenzo raster scan polls the cancellation token at row granularity;
// an already-cancelled token must abort the scan with kCancelled instead of
// running the whole chunk.
TEST(SimdKernelsLorenzo, EncodeAndDecodeHonourCancellation) {
  const Shape shape(DimVec{64, 512});
  NdArray<float> data(shape);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(i % 97);
  }
  const LinearQuantizer<float> q(1e-3, 1u << 15);
  CancelToken cancel;
  cancel.cancel();

  std::vector<std::uint64_t> offsets;
  std::vector<std::uint32_t> codes;
  std::vector<float> outliers;
  std::vector<LorenzoTerm> stencil;
  try {
    lorenzo_encode(data.data(), shape, q, nullptr, offsets, codes, outliers,
                   stencil, &cancel);
    FAIL() << "cancelled lorenzo_encode did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }

  std::vector<std::uint64_t> off_scratch;
  std::vector<std::uint32_t> code_scratch;
  std::size_t cursor = 0;
  const auto fetch = [](const std::uint64_t*, std::uint32_t* out,
                        std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 1u << 15;
  };
  try {
    lorenzo_decode(data.data(), shape, q, std::span<const float>{}, cursor,
                   nullptr, off_scratch, code_scratch, stencil, fetch,
                   &cancel);
    FAIL() << "cancelled lorenzo_decode did not throw";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCancelled);
  }
}

// set_active_simd_tier must clamp to the detected tier so forcing e.g.
// avx2 on a non-AVX2 host can never select illegal instructions.
TEST(SimdKernelsDispatch, ActiveTierClampsToDetected) {
  TierGuard guard;
  set_active_simd_tier(SimdTier::kAvx2);
  EXPECT_LE(static_cast<int>(active_simd_tier()),
            static_cast<int>(detected_simd_tier()));
  set_active_simd_tier(SimdTier::kScalar);
  EXPECT_EQ(active_simd_tier(), SimdTier::kScalar);
}

}  // namespace
}  // namespace cliz
