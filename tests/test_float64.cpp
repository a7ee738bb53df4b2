// Double-precision support: CliZ compresses float64 data with bounds far
// below float32 resolution, records the sample type in the stream, and
// rejects mismatched decompress variants.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/cliz.hpp"

namespace cliz {
namespace {

NdArray<double> smooth_f64(const DimVec& dims, std::uint64_t seed,
                           double noise = 1e-9) {
  const Shape shape(dims);
  NdArray<double> a(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 1.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      v += 0.1 * std::sin(0.07 * static_cast<double>(c[d]));
    }
    a[i] = v + noise * rng.normal();
  }
  return a;
}

double max_err(const NdArray<double>& a, const NdArray<double>& b,
               const MaskMap* mask = nullptr) {
  double e = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (mask != nullptr && !mask->valid(i)) continue;
    e = std::max(e, std::abs(a[i] - b[i]));
  }
  return e;
}

class F64BoundSweep : public ::testing::TestWithParam<double> {};

TEST_P(F64BoundSweep, ClizHonoursSubFloatBounds) {
  const double eb = GetParam();
  const auto data = smooth_f64({16, 18, 20}, 7, eb * 0.3);
  PipelineConfig config = PipelineConfig::defaults(3);
  config.classify_bins = true;
  const auto stream = ClizCompressor(config).compress(data, eb);
  const auto recon = ClizCompressor::decompress<double>(stream);
  ASSERT_EQ(recon.shape(), data.shape());
  EXPECT_LE(max_err(data, recon), eb);
}

TEST_P(F64BoundSweep, Lorenzo1HonoursSubFloatBounds) {
  const double eb = GetParam();
  const auto data = smooth_f64({24, 26}, 8, eb * 0.3);
  ClizOptions options;
  options.predictor = PredictorBackend::kLorenzo1;
  const auto stream =
      ClizCompressor(PipelineConfig::defaults(2), options).compress(data, eb);
  const auto recon = ClizCompressor::decompress<double>(stream);
  ASSERT_EQ(recon.shape(), data.shape());
  EXPECT_LE(max_err(data, recon), eb);
}

// Bounds far below float32's ~1e-7 relative resolution at magnitude ~1.
INSTANTIATE_TEST_SUITE_P(Bounds, F64BoundSweep,
                         ::testing::Values(1e-3, 1e-6, 1e-9, 1e-12));

TEST(Float64, PrecisionActuallyExceedsFloat32) {
  // Round-tripping through a float32 pipeline could never satisfy a 1e-12
  // bound on O(1) data; the f64 path must.
  const auto data = smooth_f64({32, 32}, 9, 1e-13);
  const double eb = 1e-12;
  const auto stream = ClizCompressor(PipelineConfig::defaults(2))
                          .compress(data, eb);
  const auto recon = ClizCompressor::decompress<double>(stream);
  EXPECT_LE(max_err(data, recon), eb);
  // Sanity: casting to float32 would already violate the bound.
  double cast_err = 0.0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    cast_err = std::max(
        cast_err,
        std::abs(data[i] - static_cast<double>(static_cast<float>(data[i]))));
  }
  EXPECT_GT(cast_err, eb);
}

TEST(Float64, MaskedPeriodicClassifiedRoundTrip) {
  const Shape shape({24, 10, 12});
  NdArray<double> data(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(10);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 7 == 0) {
      mask.mutable_data()[i] = 0;
      data[i] = 9.96921e36;
    } else {
      data[i] = std::cos(2.0 * std::numbers::pi *
                         static_cast<double>(i / 120) / 12.0) +
                1e-10 * rng.normal();
    }
  }
  PipelineConfig config = PipelineConfig::defaults(3);
  config.period = 12;
  config.classify_bins = true;
  const double eb = 1e-9;
  const auto stream = ClizCompressor(config).compress(data, eb, &mask);
  const auto recon = ClizCompressor::decompress<double>(stream);
  EXPECT_LE(max_err(data, recon, &mask), eb);
  for (std::size_t i = 0; i < recon.size(); ++i) {
    if (!mask.valid(i)) {
      EXPECT_EQ(recon[i], static_cast<double>(9.96921e36f));
    }
  }
}

TEST(Float64, EveryBackendPairHonoursSubFloatBounds) {
  const auto data = smooth_f64({16, 18, 20}, 13, 3e-10);
  const double eb = 1e-9;
  for (const PredictorBackend predictor :
       {PredictorBackend::kInterp, PredictorBackend::kLorenzo1,
        PredictorBackend::kRegression}) {
    for (const EntropyBackend entropy :
         {EntropyBackend::kHuffman, EntropyBackend::kTans}) {
      SCOPED_TRACE(std::string(predictor_backend_name(predictor)) + "+" +
                   entropy_backend_name(entropy));
      ClizOptions options;
      options.predictor = predictor;
      options.entropy = entropy;
      const auto stream = ClizCompressor(PipelineConfig::defaults(3), options)
                              .compress(data, eb);
      EXPECT_LE(max_err(data, ClizCompressor::decompress<double>(stream)), eb);
    }
  }
}

TEST(Float64, DtypeMismatchRejected) {
  const auto d64 = smooth_f64({12, 12}, 11);
  NdArray<float> d32(Shape({12, 12}));
  for (std::size_t i = 0; i < d32.size(); ++i) {
    d32[i] = static_cast<float>(d64[i]);
  }
  const ClizCompressor codec(PipelineConfig::defaults(2));
  const auto s64 = codec.compress(d64, 1e-6);
  const auto s32 = codec.compress(d32, 1e-6);
  EXPECT_THROW((void)ClizCompressor::decompress(s64), Error);
  EXPECT_THROW((void)ClizCompressor::decompress<double>(s32), Error);
}

TEST(Float64, DoubleStreamsSmallerThanRawDouble) {
  // Quantization codes, not raw samples, carry a double field: a smooth
  // field at a 1e-6 bound compresses to under a quarter of its raw size.
  const auto data = smooth_f64({40, 40}, 12, 1e-8);
  const auto stream =
      ClizCompressor(PipelineConfig::defaults(2)).compress(data, 1e-6);
  EXPECT_LT(stream.size(), data.size() * sizeof(double) / 4);
}

}  // namespace
}  // namespace cliz
