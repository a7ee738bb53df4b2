#include "src/baselines/compressor.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "src/climate/datasets.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/autotune.hpp"
#include "src/core/cliz.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz {
namespace {

NdArray<float> smooth_array(const DimVec& dims, std::uint64_t seed) {
  const Shape shape(dims);
  NdArray<float> a(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 0.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      v += std::sin(0.1 * static_cast<double>(c[d]));
    }
    a[i] = static_cast<float>(v + 0.01 * rng.normal());
  }
  return a;
}

TEST(Registry, NamesAreStable) {
  const auto names = compressor_names();
  ASSERT_EQ(names.size(), 6u);
  EXPECT_EQ(names[0], "cliz");
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW((void)make_compressor("gzip"), Error);
  EXPECT_THROW((void)make_compressor(""), Error);
}

class RegistryRoundTrip : public ::testing::TestWithParam<std::string> {};

TEST_P(RegistryRoundTrip, CompressorHonoursBoundThroughInterface) {
  const auto comp = make_compressor(GetParam());
  EXPECT_EQ(comp->name(), GetParam());
  const auto data = smooth_array({20, 22, 24}, 7);
  const double eb = 1e-3;
  const auto stream = comp->compress(data, eb);
  const auto recon = comp->decompress(stream);
  ASSERT_EQ(recon.shape(), data.shape());
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, eb);
}

INSTANTIATE_TEST_SUITE_P(All, RegistryRoundTrip,
                         ::testing::Values("cliz", "sz3", "qoz", "zfp",
                                           "sperr", "sz2"));

TEST(Registry, ClizUsesMaskWhenProvided) {
  auto field = make_ssh(0.12, 600);
  auto comp = make_compressor("cliz");
  comp->set_time_dim(field.time_dim);

  const double eb = abs_bound_from_relative(field.data.flat(), 1e-3,
                                            field.mask_ptr());
  const auto blind = comp->compress(field.data, eb);
  comp->set_mask(field.mask_ptr());
  const auto masked = comp->compress(field.data, eb);
  EXPECT_LT(masked.size(), blind.size());

  const auto recon = comp->decompress(masked);
  const auto stats =
      error_stats(field.data.flat(), recon.flat(), field.mask_ptr());
  EXPECT_LE(stats.max_abs_error, eb);
}

TEST(Registry, ClizReusesTunedPipelineAcrossCalls) {
  // The first compress() per shape tunes; later calls with that shape reuse
  // the tuned pipeline. The second field tunes to a different pipeline on
  // its own, so its stream shows whose tuning was used.
  auto field = make_ssh(0.12, 601);
  const auto other = smooth_array(field.data.shape().dims(), 602);
  const double eb = 1e-3;
  AutotuneOptions opts;
  opts.time_dim = field.time_dim;
  const ClizCompressor tuned_first(
      autotune(field.data, eb, field.mask_ptr(), opts).best);
  const ClizCompressor tuned_other(
      autotune(other, eb, field.mask_ptr(), opts).best);
  const auto other_reused = tuned_first.compress(other, eb, field.mask_ptr());
  ASSERT_NE(other_reused, tuned_other.compress(other, eb, field.mask_ptr()))
      << "the two fields must tune to different pipelines";

  auto comp = make_compressor("cliz");
  comp->set_mask(field.mask_ptr());
  comp->set_time_dim(field.time_dim);
  EXPECT_EQ(comp->compress(field.data, eb),
            tuned_first.compress(field.data, eb, field.mask_ptr()));
  EXPECT_EQ(comp->compress(other, eb), other_reused);
}

TEST(Registry, BaselinesIgnoreMask) {
  // set_mask on the SZ-family baselines must be a harmless no-op.
  const auto data = smooth_array({16, 16}, 9);
  const auto mask = MaskMap::from_fill_values(data);
  for (const auto& name : {"sz3", "qoz", "zfp", "sperr"}) {
    auto comp = make_compressor(name);
    comp->set_mask(&mask);
    comp->set_time_dim(0);
    const auto stream = comp->compress(data, 1e-3);
    const auto recon = comp->decompress(stream);
    EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-3)
        << name;
  }
}

}  // namespace
}  // namespace cliz
