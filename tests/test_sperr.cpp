#include "src/baselines/sperr/sperr_like.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/metrics/metrics.hpp"
#include "src/baselines/sperr/wavelet.hpp"

namespace cliz {
namespace {

NdArray<float> smooth_array(const DimVec& dims, std::uint64_t seed,
                            double noise = 0.005) {
  const Shape shape(dims);
  NdArray<float> a(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 0.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      v += std::sin(0.07 * static_cast<double>(c[d]) +
                    0.3 * static_cast<double>(d));
    }
    a[i] = static_cast<float>(v + noise * rng.normal());
  }
  return a;
}

class WaveletInvertibility : public ::testing::TestWithParam<DimVec> {};

TEST_P(WaveletInvertibility, ForwardInverseIsIdentity) {
  const Shape shape(GetParam());
  const WaveletTransform w(shape, 4);
  Rng rng(51);
  std::vector<double> data(shape.size());
  for (auto& v : data) v = rng.uniform(-10.0, 10.0);
  const auto original = data;
  w.forward(data);
  w.inverse(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_NEAR(data[i], original[i], 1e-9) << "offset " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, WaveletInvertibility,
                         ::testing::Values(DimVec{16}, DimVec{17}, DimVec{64},
                                           DimVec{9, 13}, DimVec{16, 16},
                                           DimVec{32, 17}, DimVec{8, 9, 10},
                                           DimVec{5, 6, 7},
                                           DimVec{4, 4, 4, 4}));

TEST(Wavelet, LevelsClampToShape) {
  EXPECT_EQ(WaveletTransform(Shape({4, 4}), 10).levels(), 1);
  EXPECT_EQ(WaveletTransform(Shape({64}), 3).levels(), 3);
  EXPECT_EQ(WaveletTransform(Shape({3, 64}), 4).levels(), 0);
}

TEST(Wavelet, ZeroLevelTransformIsIdentity) {
  const Shape shape({3, 3});
  const WaveletTransform w(shape, 4);
  ASSERT_EQ(w.levels(), 0);
  std::vector<double> data{1, 2, 3, 4, 5, 6, 7, 8, 9};
  const auto orig = data;
  w.forward(data);
  EXPECT_EQ(data, orig);
}

TEST(Wavelet, EnergyRoughlyPreserved) {
  // The scaled CDF 9/7 is near-orthonormal; Parseval should hold within a
  // modest factor on random data.
  const Shape shape({64, 64});
  const WaveletTransform w(shape, 3);
  Rng rng(52);
  std::vector<double> data(shape.size());
  for (auto& v : data) v = rng.normal();
  double e_in = 0.0;
  for (const double v : data) e_in += v * v;
  w.forward(data);
  double e_out = 0.0;
  for (const double v : data) e_out += v * v;
  EXPECT_GT(e_out, 0.4 * e_in);
  EXPECT_LT(e_out, 2.5 * e_in);
}

TEST(Wavelet, CompactsSmoothSignalIntoLowPass) {
  const Shape shape({256});
  const WaveletTransform w(shape, 3);
  std::vector<double> data(256);
  for (std::size_t i = 0; i < 256; ++i) {
    data[i] = std::sin(0.05 * static_cast<double>(i));
  }
  w.forward(data);
  // Detail half must carry far less energy than the approximation part.
  double low = 0.0;
  double high = 0.0;
  for (std::size_t i = 0; i < 128; ++i) low += data[i] * data[i];
  for (std::size_t i = 128; i < 256; ++i) high += data[i] * data[i];
  EXPECT_LT(high, 0.01 * low);
}

struct SperrCase {
  DimVec dims;
  double eb;
};

class SperrRoundTrip : public ::testing::TestWithParam<SperrCase> {};

TEST_P(SperrRoundTrip, BoundHoldsEverywhere) {
  const auto& [dims, eb] = GetParam();
  const auto data = smooth_array(dims, 61);
  const auto stream = SperrLikeCompressor().compress(data, eb);
  const auto recon = SperrLikeCompressor::decompress(stream);
  ASSERT_EQ(recon.shape(), data.shape());
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, eb);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SperrRoundTrip,
    ::testing::Values(SperrCase{{128}, 1e-2}, SperrCase{{128}, 1e-5},
                      SperrCase{{33, 45}, 1e-3}, SperrCase{{64, 64}, 1e-1},
                      SperrCase{{16, 18, 20}, 1e-3},
                      SperrCase{{9, 11, 13}, 1e-2},
                      SperrCase{{3, 3}, 1e-3},  // below wavelet minimum
                      SperrCase{{6, 6, 6, 6}, 1e-2}));

TEST(SperrLike, OutlierCorrectionsEnforceBoundOnSpikyData) {
  const Shape shape({64, 64});
  NdArray<float> data(shape);
  Rng rng(62);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(0.1 * rng.normal());
  }
  // Spikes that wavelet coding smears; corrections must fix them.
  for (std::size_t i = 0; i < data.size(); i += 97) data[i] = 50.0f;
  const auto stream = SperrLikeCompressor().compress(data, 1e-2);
  const auto recon = SperrLikeCompressor::decompress(stream);
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-2);
}

TEST(SperrLike, MaskStyleFillValuesStayBounded) {
  // Climate fill values (~1e36) next to small data: the wavelet smears them
  // into neighbouring points with astronomical leakage; the correction pass
  // must restore the bound everywhere without cancellation loss.
  const Shape shape({48, 48});
  NdArray<float> data(shape);
  Rng rng(68);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto c = shape.coords(i);
    const bool land = (c[0] / 8 + c[1] / 8) % 2 == 0;
    data[i] = land ? 9.96921e36f
                   : static_cast<float>(
                         std::sin(0.2 * static_cast<double>(c[0])) +
                         0.01 * rng.normal());
  }
  const double eb = 1e-3;
  const auto stream = SperrLikeCompressor().compress(data, eb);
  const auto recon = SperrLikeCompressor::decompress(stream);
  // Bound must hold at every point, including next to fill values. The
  // fill values themselves round-trip through the exact-escape path.
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_LE(std::abs(static_cast<double>(recon[i]) -
                       static_cast<double>(data[i])),
              eb)
        << "offset " << i << " value " << data[i];
  }
}

TEST(SperrLike, SmoothDataCompressesWell) {
  const auto data = smooth_array({64, 64, 16}, 63, 0.0);
  const auto stream = SperrLikeCompressor().compress(data, 1e-3);
  EXPECT_GT(compression_ratio(data.size() * 4, stream.size()), 8.0);
}

TEST(SperrLike, LooserBoundGivesSmallerStream) {
  const auto data = smooth_array({48, 48}, 64);
  const auto loose = SperrLikeCompressor().compress(data, 1e-1);
  const auto tight = SperrLikeCompressor().compress(data, 1e-5);
  EXPECT_LT(loose.size(), tight.size());
}

TEST(SperrLike, CorruptStreamThrows) {
  const auto data = smooth_array({16, 16}, 65);
  auto stream = SperrLikeCompressor().compress(data, 1e-3);
  stream.resize(stream.size() / 2);
  EXPECT_THROW((void)SperrLikeCompressor::decompress(stream), Error);
}

TEST(SperrLike, DeterministicOutput) {
  const auto data = smooth_array({24, 24}, 66);
  EXPECT_EQ(SperrLikeCompressor().compress(data, 1e-3),
            SperrLikeCompressor().compress(data, 1e-3));
}

TEST(SperrLike, RejectsNonPositiveBound) {
  const auto data = smooth_array({8, 8}, 67);
  EXPECT_THROW((void)SperrLikeCompressor().compress(data, 0.0), Error);
}

}  // namespace
}  // namespace cliz
