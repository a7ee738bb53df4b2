#include "src/core/cliz.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/chunked.hpp"
#include "src/core/codec_context.hpp"
#include "src/metrics/metrics.hpp"
#include "src/ndarray/layout.hpp"

namespace cliz {
namespace {

/// Masked, periodic synthetic field in the SSH mould: [time][lat][lon].
struct TestField {
  NdArray<float> data;
  MaskMap mask;
};

TestField make_field(std::size_t n_time, std::size_t n_lat, std::size_t n_lon,
                     std::uint64_t seed) {
  const Shape shape({n_time, n_lat, n_lon});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(seed);

  // Spatial mask: a "continent" block plus scattered islands.
  std::vector<std::uint8_t> land(n_lat * n_lon, 0);
  for (std::size_t la = n_lat / 4; la < n_lat / 2; ++la) {
    for (std::size_t lo = n_lon / 3; lo < (2 * n_lon) / 3; ++lo) {
      land[la * n_lon + lo] = 1;
    }
  }
  for (int i = 0; i < 10; ++i) {
    land[rng.uniform_index(land.size())] = 1;
  }

  for (std::size_t t = 0; t < n_time; ++t) {
    const double season = 2.0 * std::numbers::pi * static_cast<double>(t) / 12.0;
    for (std::size_t la = 0; la < n_lat; ++la) {
      for (std::size_t lo = 0; lo < n_lon; ++lo) {
        const std::size_t off = (t * n_lat + la) * n_lon + lo;
        if (land[la * n_lon + lo] != 0) {
          mask.mutable_data()[off] = 0;
          data[off] = 9.96921e36f;
          continue;
        }
        const double space =
            std::sin(0.2 * static_cast<double>(la)) +
            std::cos(0.15 * static_cast<double>(lo));
        const double cyc =
            0.5 * std::cos(season + 0.1 * static_cast<double>(la));
        data[off] = static_cast<float>(space + cyc + 0.01 * rng.normal());
      }
    }
  }
  return {std::move(data), std::move(mask)};
}

PipelineConfig config3(std::vector<std::size_t> perm, FusionSpec fusion,
                       FittingKind fit, std::size_t period, bool classify) {
  PipelineConfig c;
  c.permutation = std::move(perm);
  c.fusion = std::move(fusion);
  c.fitting = fit;
  c.period = period;
  c.time_dim = 0;
  c.classify_bins = classify;
  return c;
}

void expect_bounded(const NdArray<float>& orig, const NdArray<float>& recon,
                    const MaskMap* mask, double eb) {
  ASSERT_EQ(recon.shape(), orig.shape());
  const auto stats = error_stats(orig.flat(), recon.flat(), mask);
  EXPECT_LE(stats.max_abs_error, eb);
}

// ---------------------------------------------------------------------------
// Exhaustive pipeline sweep: every (perm x fusion x fitting x period x
// classify) combination must round-trip within the bound.
// ---------------------------------------------------------------------------

struct SweepCase {
  std::vector<std::size_t> perm;
  std::size_t fusion_index;
  FittingKind fit;
  std::size_t period;
  bool classify;
};

class PipelineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(PipelineSweep, RoundTripWithinBound) {
  const auto& p = GetParam();
  const auto field = make_field(24, 12, 14, 99);
  const auto fusion = all_fusions(3)[p.fusion_index];
  const auto config = config3(p.perm, fusion, p.fit, p.period, p.classify);
  const ClizCompressor codec(config);
  const double eb = 1e-3;
  const auto stream = codec.compress(field.data, eb, &field.mask);
  const auto recon = ClizCompressor::decompress(stream);
  expect_bounded(field.data, recon, &field.mask, eb);
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (const auto& perm : all_permutations(3)) {
    for (std::size_t f = 0; f < 4; ++f) {
      for (const FittingKind fit :
           {FittingKind::kLinear, FittingKind::kCubic}) {
        for (const std::size_t period : {std::size_t{0}, std::size_t{12}}) {
          for (const bool classify : {false, true}) {
            cases.push_back({perm, f, fit, period, classify});
          }
        }
      }
    }
  }
  return cases;  // 6 * 4 * 2 * 2 * 2 = 192, the paper's pipeline count
}

INSTANTIATE_TEST_SUITE_P(AllPipelines, PipelineSweep,
                         ::testing::ValuesIn(sweep_cases()));

// ---------------------------------------------------------------------------
// Targeted behaviours
// ---------------------------------------------------------------------------

TEST(Cliz, MaskedPositionsDecompressToFillValue) {
  const auto field = make_field(12, 10, 10, 5);
  const auto config = config3({0, 1, 2}, FusionSpec::none(3),
                              FittingKind::kCubic, 0, false);
  const auto stream =
      ClizCompressor(config).compress(field.data, 1e-3, &field.mask);
  const auto recon = ClizCompressor::decompress(stream);
  for (std::size_t i = 0; i < recon.size(); ++i) {
    if (!field.mask.valid(i)) {
      EXPECT_EQ(recon[i], 9.96921e36f);
    }
  }
}

TEST(Cliz, CustomFillValueRespected) {
  const auto field = make_field(12, 8, 8, 6);
  ClizOptions opts;
  opts.fill_value = -1234.5f;
  const auto config = config3({0, 1, 2}, FusionSpec::none(3),
                              FittingKind::kLinear, 0, false);
  const auto stream =
      ClizCompressor(config, opts).compress(field.data, 1e-3, &field.mask);
  const auto recon = ClizCompressor::decompress(stream);
  for (std::size_t i = 0; i < recon.size(); ++i) {
    if (!field.mask.valid(i)) {
      EXPECT_EQ(recon[i], -1234.5f);
    }
  }
}

TEST(Cliz, MaskImprovesRatioOnMaskedData) {
  const auto field = make_field(24, 16, 16, 7);
  const auto config = config3({0, 1, 2}, FusionSpec::none(3),
                              FittingKind::kCubic, 0, false);
  const ClizCompressor codec(config);
  const auto with_mask = codec.compress(field.data, 1e-3, &field.mask);
  const auto without_mask = codec.compress(field.data, 1e-3, nullptr);
  EXPECT_LT(with_mask.size(), without_mask.size());
}

TEST(Cliz, PeriodicExtractionHelpsOnStronglySeasonalData) {
  // Amplify the seasonal cycle so the periodic pipeline clearly wins.
  const Shape shape({48, 12, 12});
  NdArray<float> data(shape);
  Rng rng(8);
  for (std::size_t t = 0; t < 48; ++t) {
    for (std::size_t la = 0; la < 12; ++la) {
      for (std::size_t lo = 0; lo < 12; ++lo) {
        const double cyc =
            5.0 * std::cos(2.0 * std::numbers::pi *
                               static_cast<double>(t) / 12.0 +
                           0.3 * static_cast<double>(la + lo));
        data[(t * 12 + la) * 12 + lo] =
            static_cast<float>(cyc + 0.002 * rng.normal());
      }
    }
  }
  const auto base = config3({0, 1, 2}, FusionSpec::none(3),
                            FittingKind::kLinear, 0, false);
  auto periodic = base;
  periodic.period = 12;
  const auto s_plain = ClizCompressor(base).compress(data, 1e-3);
  const auto s_periodic = ClizCompressor(periodic).compress(data, 1e-3);
  EXPECT_LT(s_periodic.size(), s_plain.size());

  const auto recon = ClizCompressor::decompress(s_periodic);
  expect_bounded(data, recon, nullptr, 1e-3);
}

TEST(Cliz, ClassificationHelpsOnColumnShiftedBins) {
  // Per-column biased fine structure: half the columns drift up, half
  // down, by about one quantization bin per step -> persistent +1/-1 bins
  // that classification shifts to 0.
  const Shape shape({64, 12, 12});
  NdArray<float> data(shape);
  const double eb = 1e-3;
  for (std::size_t t = 0; t < 64; ++t) {
    for (std::size_t la = 0; la < 12; ++la) {
      for (std::size_t lo = 0; lo < 12; ++lo) {
        const double direction = (la + lo) % 2 == 0 ? 1.0 : -1.0;
        data[(t * 12 + la) * 12 + lo] = static_cast<float>(
            direction * 2.0 * eb * static_cast<double>(t));
      }
    }
  }
  const auto plain = config3({0, 1, 2}, FusionSpec::none(3),
                             FittingKind::kLinear, 0, false);
  auto classified = plain;
  classified.classify_bins = true;
  const auto s_plain = ClizCompressor(plain).compress(data, eb);
  const auto s_classified = ClizCompressor(classified).compress(data, eb);
  EXPECT_LE(s_classified.size(), s_plain.size());
  const auto recon = ClizCompressor::decompress(s_classified);
  expect_bounded(data, recon, nullptr, eb);
}

TEST(Cliz, GeneralizedClassificationParamsRoundTrip) {
  // j = 2, k = 2: three trees and shifts up to +/-2 must round-trip.
  const Shape shape({48, 10, 10});
  NdArray<float> data(shape);
  const double eb = 1e-3;
  for (std::size_t t = 0; t < 48; ++t) {
    for (std::size_t p = 0; p < 100; ++p) {
      const double drift = static_cast<double>((p % 5)) - 2.0;  // -2..+2 bins
      data[t * 100 + p] =
          static_cast<float>(drift * 2.0 * eb * static_cast<double>(t) +
                             0.1 * std::sin(static_cast<double>(p)));
    }
  }
  ClizOptions opts;
  opts.classify = ClassifyParams{2, 2};
  auto config = config3({0, 1, 2}, FusionSpec::none(3),
                        FittingKind::kLinear, 0, true);
  const auto stream = ClizCompressor(config, opts).compress(data, eb);
  const auto recon = ClizCompressor::decompress(stream);
  expect_bounded(data, recon, nullptr, eb);
}

TEST(Cliz, JkZeroIsPlainSingleTree) {
  // j = 0, k = 0 degenerates to one tree and no shifting; must round-trip
  // and cost no more than a few bytes over classification off.
  const auto field = make_field(12, 10, 10, 55);
  ClizOptions opts;
  opts.classify = ClassifyParams{0, 0};
  auto on = config3({0, 1, 2}, FusionSpec::none(3), FittingKind::kCubic, 0,
                    true);
  auto off = on;
  off.classify_bins = false;
  const auto s_on =
      ClizCompressor(on, opts).compress(field.data, 1e-3, &field.mask);
  const auto s_off =
      ClizCompressor(off, opts).compress(field.data, 1e-3, &field.mask);
  const auto recon = ClizCompressor::decompress(s_on);
  expect_bounded(field.data, recon, &field.mask, 1e-3);
  EXPECT_LT(s_on.size(), s_off.size() + s_off.size() / 10 + 256);
}

TEST(Cliz, TwoDimensionalDataSkipsClassification) {
  NdArray<float> data(Shape({32, 32}));
  Rng rng(9);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(rng.uniform(0.0, 1.0));
  }
  PipelineConfig config = PipelineConfig::defaults(2);
  config.classify_bins = true;  // must silently disable for 2-D
  const auto stream = ClizCompressor(config).compress(data, 1e-2);
  const auto recon = ClizCompressor::decompress(stream);
  expect_bounded(data, recon, nullptr, 1e-2);
}

TEST(Cliz, FourDimensionalRoundTrip) {
  const Shape shape({12, 5, 8, 9});
  NdArray<float> data(shape);
  Rng rng(10);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto c = shape.coords(i);
    data[i] = static_cast<float>(
        std::sin(0.3 * static_cast<double>(c[0])) +
        0.1 * static_cast<double>(c[1]) +
        std::cos(0.2 * static_cast<double>(c[2] + c[3])) +
        0.01 * rng.normal());
  }
  PipelineConfig config = PipelineConfig::defaults(4);
  config.classify_bins = true;
  config.period = 4;
  const auto stream = ClizCompressor(config).compress(data, 1e-3);
  const auto recon = ClizCompressor::decompress(stream);
  expect_bounded(data, recon, nullptr, 1e-3);
}

TEST(Cliz, FullyMaskedDatasetProducesTinyStream) {
  const Shape shape({8, 8, 8});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 9.96921e36f;
    mask.mutable_data()[i] = 0;
  }
  const auto config = config3({0, 1, 2}, FusionSpec::none(3),
                              FittingKind::kCubic, 0, false);
  const auto stream = ClizCompressor(config).compress(data, 1e-3, &mask);
  EXPECT_LT(stream.size(), 256u);
  const auto recon = ClizCompressor::decompress(stream);
  for (std::size_t i = 0; i < recon.size(); ++i) {
    EXPECT_EQ(recon[i], 9.96921e36f);
  }
}

TEST(Cliz, PipelineConfigSerializationRoundTrip) {
  auto config = config3({2, 0, 1}, FusionSpec({{0, 0}, {1, 2}}),
                        FittingKind::kLinear, 12, true);
  ByteWriter w;
  config.serialize(w);
  ByteReader r(w.bytes());
  const auto back = PipelineConfig::deserialize(r);
  EXPECT_EQ(back, config);
  EXPECT_EQ(back.label(), "perm=201 fusion=1&2 fit=linear period=12 classify=yes");
}

TEST(Cliz, MismatchedMaskShapeThrows) {
  NdArray<float> data(Shape({4, 4}));
  const auto mask = MaskMap::all_valid(Shape({4, 5}));
  const auto config = PipelineConfig::defaults(2);
  EXPECT_THROW((void)ClizCompressor(config).compress(data, 1e-3, &mask),
               Error);
}

TEST(Cliz, MismatchedConfigArityThrows) {
  NdArray<float> data(Shape({4, 4, 4}));
  const auto config = PipelineConfig::defaults(2);
  EXPECT_THROW((void)ClizCompressor(config).compress(data, 1e-3), Error);
}

TEST(Cliz, NonPositiveOrNonFiniteBoundRefused) {
  // Only a positive finite bound is usable, for either sample type; an
  // infinite one used to be accepted and stored the data at ratio 1.
  const ClizCompressor codec(PipelineConfig::defaults(3));
  const auto check = [&](const auto& data) {
    for (const double eb : {0.0, -1e-3, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
      SCOPED_TRACE(eb);
      try {
        (void)codec.compress(data, eb);
        ADD_FAILURE() << "bound accepted";
      } catch (const Error& e) {
        EXPECT_EQ(e.code(), ErrorCode::kBadArgument) << e.what();
      }
    }
  };
  check(NdArray<float>(Shape({4, 6, 8})));
  check(NdArray<double>(Shape({4, 6, 8})));
}

TEST(Cliz, CorruptAndTruncatedStreamsThrow) {
  const auto field = make_field(12, 8, 8, 11);
  const auto config = config3({0, 1, 2}, FusionSpec::none(3),
                              FittingKind::kCubic, 12, true);
  auto stream = ClizCompressor(config).compress(field.data, 1e-3, &field.mask);
  auto truncated = stream;
  truncated.resize(truncated.size() * 2 / 3);
  EXPECT_THROW((void)ClizCompressor::decompress(truncated), Error);
  EXPECT_THROW((void)ClizCompressor::decompress({}), Error);
}

TEST(Cliz, DeterministicOutput) {
  const auto field = make_field(12, 10, 10, 12);
  const auto config = config3({1, 2, 0}, FusionSpec({{0, 1}, {2, 2}}),
                              FittingKind::kCubic, 12, true);
  const ClizCompressor codec(config);
  EXPECT_EQ(codec.compress(field.data, 1e-3, &field.mask),
            codec.compress(field.data, 1e-3, &field.mask));
}

TEST(Cliz, VerifiedEncodeMatchesPlainAndReportsInStats) {
  const auto field = make_field(24, 10, 10, 31);
  const auto config = config3({0, 1, 2}, FusionSpec::none(3),
                              FittingKind::kCubic, 12, true);
  const double eb = 1e-3;
  const auto plain = ClizCompressor(config).compress(field.data, eb,
                                                     &field.mask);

  ClizOptions opts;
  opts.verify_encode = true;
  const ClizCompressor checked(config, opts);
  // A healthy pipeline passes verification on the first attempt, so the
  // stream is byte-identical to the unverified one.
  EXPECT_EQ(checked.compress(field.data, eb, &field.mask), plain);

  // The context-reusing variant reports the verification in ctx.stats.
  CodecContext ctx;
  const auto again = checked.compress(field.data, eb, &field.mask, ctx);
  EXPECT_EQ(again, plain);
  EXPECT_TRUE(ctx.stats.verified);
  EXPECT_EQ(ctx.stats.verify_downgrades, 0u);
  EXPECT_GT(ctx.stats.verify_seconds, 0.0);
}

TEST(Cliz, VerifiedEncodeF64RoundTrips) {
  const Shape shape({16, 8, 8});
  NdArray<double> data(shape);
  Rng rng(77);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 0.01 * static_cast<double>(i % 97) + 0.001 * rng.normal();
  }
  ClizOptions opts;
  opts.verify_encode = true;
  const auto config = config3({0, 1, 2}, FusionSpec::none(3),
                              FittingKind::kCubic, 0, false);
  const auto stream =
      ClizCompressor(config, opts).compress(data, 1e-4);
  const auto recon = ClizCompressor::decompress<double>(stream);
  ASSERT_EQ(recon.shape(), shape);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_LE(std::abs(recon[i] - data[i]), 1e-4);
  }
}

/// Smooth 3-D field holding one NaN, one +Inf and one -Inf.
template <typename T>
NdArray<T> non_finite_field() {
  NdArray<T> data(Shape({12, 20, 24}));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<T>(std::sin(0.03 * static_cast<double>(i)));
  }
  data[37] = std::numeric_limits<T>::quiet_NaN();
  data[2000] = std::numeric_limits<T>::infinity();
  data[data.size() - 5] = -std::numeric_limits<T>::infinity();
  return data;
}

/// Non-finite points must decode bit for bit; finite ones within eb.
template <typename T>
void expect_non_finite_round_trip(const NdArray<T>& data,
                                  const NdArray<T>& recon, double eb) {
  using Bits =
      std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  ASSERT_EQ(recon.shape(), data.shape());
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (std::isfinite(data[i])) {
      ASSERT_LE(std::abs(static_cast<double>(recon[i]) -
                         static_cast<double>(data[i])),
                eb)
          << "point " << i;
    } else {
      ASSERT_EQ(std::bit_cast<Bits>(recon[i]), std::bit_cast<Bits>(data[i]))
          << "point " << i;
    }
  }
}

template <typename T>
void check_verified_non_finite() {
  const auto data = non_finite_field<T>();
  const double eb = 1e-3;
  for (const PredictorBackend predictor :
       {PredictorBackend::kInterp, PredictorBackend::kLorenzo1,
        PredictorBackend::kRegression}) {
    SCOPED_TRACE(predictor_backend_name(predictor));
    ClizOptions opts;
    opts.predictor = predictor;
    opts.verify_encode = true;

    // Whole stream: verification passes first time, so nothing downgrades.
    CodecContext ctx;
    std::vector<std::uint8_t> stream;
    ASSERT_NO_THROW(stream = ClizCompressor(PipelineConfig::defaults(3), opts)
                                 .compress(data, eb, nullptr, ctx));
    EXPECT_TRUE(ctx.stats.verified);
    EXPECT_EQ(ctx.stats.verify_downgrades, 0u);
    expect_non_finite_round_trip(data, ClizCompressor::decompress<T>(stream),
                                 eb);

    // Chunked: every slab is verified on its own.
    ChunkedOptions copts;
    copts.chunks = 3;
    copts.codec = opts;
    std::vector<std::uint8_t> frame;
    ASSERT_NO_THROW(frame = chunked_compress(data, eb,
                                             PipelineConfig::defaults(3),
                                             nullptr, copts));
    expect_non_finite_round_trip(data, chunked_decompress<T>(frame), eb);
  }
}

TEST(Cliz, VerifiedEncodeAcceptsNonFiniteInputF32) {
  check_verified_non_finite<float>();
}

TEST(Cliz, VerifiedEncodeAcceptsNonFiniteInputF64) {
  check_verified_non_finite<double>();
}

}  // namespace
}  // namespace cliz
