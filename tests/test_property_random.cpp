// Randomized property tests: for a few hundred randomly drawn
// (shape, mask, pipeline, bound, data texture) combinations, the full
// CliZ codec must round-trip within the bound, reproduce fill values at
// masked points, and stay deterministic. Seeds are fixed, so failures are
// reproducible; the sweep goes far beyond the hand-picked cases in
// test_cliz.cpp.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "src/common/rng.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/metrics/metrics.hpp"
#include "src/ndarray/layout.hpp"

namespace cliz {
namespace {

struct RandomCase {
  Shape shape{DimVec{1}};
  NdArray<float> data{Shape{DimVec{1}}};
  std::optional<MaskMap> mask;
  PipelineConfig config = PipelineConfig::defaults(1);
  ClizOptions options;
  double eb = 1e-3;
};

RandomCase draw_case(std::uint64_t seed) {
  Rng rng(seed);
  RandomCase c;

  // Shape: 1-4 dims, total size <= ~40k.
  const std::size_t nd = 1 + rng.uniform_index(4);
  DimVec dims(nd);
  for (auto& d : dims) d = 1 + rng.uniform_index(nd >= 3 ? 16 : 64);
  c.shape = Shape(dims);
  c.data = NdArray<float>(c.shape);

  // Data: mix of smooth waves, trends, periodic cycles and noise with a
  // random magnitude scale.
  const double scale = std::pow(10.0, rng.uniform(-2.0, 4.0));
  const double noise = rng.uniform(0.0, 0.2);
  const std::size_t period = 4 + rng.uniform_index(8);
  for (std::size_t i = 0; i < c.data.size(); ++i) {
    const auto coords = c.shape.coords(i);
    double v = 0.0;
    for (std::size_t d = 0; d < nd; ++d) {
      v += std::sin(rng.uniform(0.02, 0.1) * 0 +
                    0.1 * static_cast<double>(coords[d]) +
                    static_cast<double>(d));
    }
    v += std::cos(2.0 * std::numbers::pi *
                  static_cast<double>(coords[0] % period) /
                  static_cast<double>(period));
    c.data[i] = static_cast<float>(scale * (v + noise * rng.normal()));
  }

  // Mask: none / random blobs / rows, with fill values planted.
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
        c.data[i] = 9.96921e36f;
      }
    }
  }

  // Pipeline: random permutation, fusion, fitting, periodicity, classify.
  const auto perms = all_permutations(nd);
  const auto fusions = all_fusions(nd);
  c.config.permutation = perms[rng.uniform_index(perms.size())];
  c.config.fusion = fusions[rng.uniform_index(fusions.size())];
  c.config.fitting =
      rng.uniform() < 0.5 ? FittingKind::kLinear : FittingKind::kCubic;
  c.config.dynamic_fitting = rng.uniform() < 0.7;
  c.config.classify_bins = rng.uniform() < 0.5;
  c.config.time_dim = 0;
  c.config.period = rng.uniform() < 0.4 ? period : 0;

  c.options.classify = ClassifyParams{
      static_cast<unsigned>(rng.uniform_index(3)),
      static_cast<unsigned>(rng.uniform_index(3))};
  c.eb = scale * std::pow(10.0, rng.uniform(-5.0, -1.0));
  return c;
}

class RandomPipelineFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPipelineFuzz, RoundTripHoldsBoundAndFills) {
  for (std::uint64_t i = 0; i < 40; ++i) {
    const std::uint64_t seed = GetParam() * 1000 + i;
    const RandomCase c = draw_case(seed);
    const MaskMap* mask = c.mask.has_value() ? &*c.mask : nullptr;

    const ClizCompressor codec(c.config, c.options);
    const auto stream = codec.compress(c.data, c.eb, mask);
    const auto recon = ClizCompressor::decompress(stream);

    ASSERT_EQ(recon.shape(), c.data.shape()) << "seed " << seed;
    const auto stats = error_stats(c.data.flat(), recon.flat(), mask);
    ASSERT_LE(stats.max_abs_error, c.eb)
        << "seed " << seed << " config " << c.config.label();
    if (mask != nullptr) {
      for (std::size_t p = 0; p < recon.size(); ++p) {
        if (!mask->valid(p)) {
          ASSERT_EQ(recon[p], c.options.fill_value) << "seed " << seed;
        }
      }
    }

    // Determinism.
    ASSERT_EQ(codec.compress(c.data, c.eb, mask), stream)
        << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipelineFuzz,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

// --- framed/serial differential harness ----------------------------------
// For randomized cases and EVERY registered (predictor, entropy, lossless)
// triple, the per-pass framed container must reconstruct bit-identically to
// the serial one: framing repartitions the entropy payload, it never
// changes a single decoded value.

class FramedDifferentialFuzz
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FramedDifferentialFuzz, FramedDecodeMatchesSerialBitExactly) {
  constexpr PredictorBackend kPredictors[] = {
      PredictorBackend::kInterp,
      PredictorBackend::kLorenzo1,
      PredictorBackend::kRegression,
  };
  constexpr EntropyBackend kEntropies[] = {EntropyBackend::kHuffman,
                                           EntropyBackend::kTans};
  constexpr LosslessBackend kLossless[] = {LosslessBackend::kLz,
                                           LosslessBackend::kStore};
  for (std::uint64_t i = 0; i < 6; ++i) {
    const std::uint64_t seed = 77000 + GetParam() * 100 + i;
    const RandomCase c = draw_case(seed);
    const MaskMap* mask = c.mask.has_value() ? &*c.mask : nullptr;
    for (const PredictorBackend predictor : kPredictors) {
      for (const EntropyBackend entropy : kEntropies) {
        for (const LosslessBackend lossless : kLossless) {
          ClizOptions serial = c.options;
          serial.predictor = predictor;
          serial.entropy = entropy;
          serial.lossless = lossless;
          ClizOptions framed = serial;
          framed.frame_passes = true;
          SCOPED_TRACE(std::string("seed ") + std::to_string(seed) +
                       " predictor=" + predictor_backend_name(predictor) +
                       " entropy=" + entropy_backend_name(entropy) +
                       " lossless=" + lossless_backend_name(lossless));

          const auto serial_stream =
              ClizCompressor(c.config, serial).compress(c.data, c.eb, mask);
          CodecContext cctx;
          const auto framed_stream = ClizCompressor(c.config, framed)
                                         .compress(c.data, c.eb, mask, cctx);
          ASSERT_TRUE(cctx.stats.frame_passes);

          const auto serial_out =
              ClizCompressor::decompress(serial_stream);
          CodecContext dctx;
          const auto framed_out =
              ClizCompressor::decompress(framed_stream, dctx);
          ASSERT_TRUE(dctx.stats.frame_passes);
          ASSERT_EQ(framed_out.shape(), serial_out.shape());
          for (std::size_t p = 0; p < framed_out.size(); ++p) {
            // Bit-exact, NaN-safe comparison.
            ASSERT_EQ(std::bit_cast<std::uint32_t>(framed_out[p]),
                      std::bit_cast<std::uint32_t>(serial_out[p]))
                << "value " << p;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FramedDifferentialFuzz,
                         ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace cliz
