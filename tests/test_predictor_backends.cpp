// Predictor-stage registry tests: every predictor backend must round-trip
// the golden-corpus datasets within the bound (float32 and float64, plain
// and chunked frames), streams must stay thread-count invariant for the
// non-default backends (interp is locked byte-exactly by
// test_golden_streams.cpp), the default stream's predictor byte must keep
// the historical mask-byte values, and the autotune predictor grid must be
// deterministic with ties keeping the interp default.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/autotune.hpp"
#include "src/core/chunked.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/core/stage_backends.hpp"
#include "src/lossless/lossless.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz {
namespace {

constexpr double kEb = 1e-3;
constexpr float kFill = 9.96921e36f;

// --- the golden-corpus datasets (same generators as the golden locks) ----

NdArray<float> plain_field() {
  const Shape shape({40, 48});
  NdArray<float> a(shape);
  Rng rng(1001);
  for (std::size_t r = 0; r < 40; ++r) {
    for (std::size_t c = 0; c < 48; ++c) {
      const double v = 0.03 * static_cast<double>(r) -
                       0.015 * static_cast<double>(c) +
                       0.25 * static_cast<double>((r + c) % 9) +
                       0.05 * rng.uniform();
      a[r * 48 + c] = static_cast<float>(v);
    }
  }
  return a;
}

struct MaskedField {
  NdArray<float> data;
  MaskMap mask;
};

MaskedField masked_field() {
  const Shape shape({16, 12, 14});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(2002);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 13 == 0) {
      mask.mutable_data()[i] = 0;
      data[i] = kFill;
      continue;
    }
    const double v = 0.1 * static_cast<double>(i % 14) -
                     0.07 * static_cast<double>((i / 14) % 12) +
                     0.04 * rng.uniform();
    data[i] = static_cast<float>(v);
  }
  return {std::move(data), std::move(mask)};
}

NdArray<float> periodic_field() {
  const Shape shape({36, 10, 12});
  NdArray<float> a(shape);
  Rng rng(3003);
  for (std::size_t t = 0; t < 36; ++t) {
    const double season =
        0.1 * static_cast<double>((t % 6) * (11 - (t % 6)));
    for (std::size_t p = 0; p < 120; ++p) {
      const double v = season + 0.02 * static_cast<double>(p % 12) +
                       0.03 * rng.uniform();
      a[t * 120 + p] = static_cast<float>(v);
    }
  }
  return a;
}

NdArray<float> chunked_field() {
  const Shape shape({30, 12, 10});
  NdArray<float> a(shape);
  Rng rng(4004);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double v = 0.05 * static_cast<double>(i % 120) -
                     0.002 * static_cast<double>(i / 120) +
                     0.03 * rng.uniform();
    a[i] = static_cast<float>(v);
  }
  return a;
}

PipelineConfig masked_config() {
  PipelineConfig c = PipelineConfig::defaults(3);
  c.dynamic_fitting = true;
  c.classify_bins = true;
  return c;
}

PipelineConfig periodic_config() {
  PipelineConfig c = PipelineConfig::defaults(3);
  c.period = 6;
  c.time_dim = 0;
  return c;
}

const PredictorBackend kAllPredictors[] = {
    PredictorBackend::kInterp,
    PredictorBackend::kLorenzo1,
    PredictorBackend::kRegression,
};

ClizOptions options_for(PredictorBackend p) {
  ClizOptions o;
  o.predictor = p;
  return o;
}

// --- round trips ---------------------------------------------------------

TEST(PredictorBackends, AllBackendsRoundTripGoldenCorpus) {
  const auto plain = plain_field();
  const auto mf = masked_field();
  const auto periodic = periodic_field();
  for (const PredictorBackend predictor : kAllPredictors) {
    SCOPED_TRACE(std::string("predictor=") +
                 predictor_backend_name(predictor));
    const ClizOptions opts = options_for(predictor);

    CodecContext cctx;
    const auto plain_stream = ClizCompressor(PipelineConfig::defaults(2),
                                             opts)
                                  .compress(plain, kEb, nullptr, cctx);
    EXPECT_EQ(cctx.stats.predictor_backend,
              static_cast<std::uint8_t>(predictor));
    CodecContext dctx;
    const auto plain_out = ClizCompressor::decompress(plain_stream, dctx);
    EXPECT_LE(error_stats(plain.flat(), plain_out.flat()).max_abs_error,
              kEb);
    EXPECT_EQ(dctx.stats.predictor_backend,
              static_cast<std::uint8_t>(predictor));

    const auto masked_stream = ClizCompressor(masked_config(), opts)
                                   .compress(mf.data, kEb, &mf.mask);
    const auto masked_out = ClizCompressor::decompress(masked_stream);
    EXPECT_LE(error_stats(mf.data.flat(), masked_out.flat(), &mf.mask)
                  .max_abs_error,
              kEb);
    for (std::size_t i = 0; i < masked_out.size(); ++i) {
      if (!mf.mask.valid(i)) {
        ASSERT_EQ(masked_out[i], kFill);
      }
    }

    const auto periodic_stream = ClizCompressor(periodic_config(), opts)
                                     .compress(periodic, kEb);
    const auto periodic_out = ClizCompressor::decompress(periodic_stream);
    EXPECT_LE(error_stats(periodic.flat(), periodic_out.flat()).max_abs_error,
              kEb);
  }
}

TEST(PredictorBackends, AllBackendsRoundTripFloat64) {
  const auto plain = plain_field();
  NdArray<double> data(plain.shape());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    data[i] = static_cast<double>(plain[i]);
  }
  for (const PredictorBackend predictor : kAllPredictors) {
    SCOPED_TRACE(std::string("predictor=") +
                 predictor_backend_name(predictor));
    const auto stream =
        ClizCompressor(PipelineConfig::defaults(2), options_for(predictor))
            .compress(data, kEb);
    const auto out = ClizCompressor::decompress_f64(stream);
    ASSERT_EQ(out.shape(), data.shape());
    double max_err = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
      max_err = std::max(max_err, std::abs(data[i] - out[i]));
    }
    EXPECT_LE(max_err, kEb);
  }
}

TEST(PredictorBackends, AllBackendsRoundTripChunkedFrames) {
  const auto data = chunked_field();
  for (const PredictorBackend predictor : kAllPredictors) {
    SCOPED_TRACE(std::string("predictor=") +
                 predictor_backend_name(predictor));
    ChunkedOptions copts;
    copts.chunks = 4;
    copts.codec = options_for(predictor);
    const auto frame = chunked_compress(data, kEb,
                                        PipelineConfig::defaults(3), nullptr,
                                        copts);
    const auto out = chunked_decompress(frame);
    EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);
  }
}

TEST(PredictorBackends, RegressionHandlesFullyMaskedBlocks) {
  // A whole quadrant of masked rows: the regression side block serializes
  // nothing for empty blocks, and both sides must agree on occupancy from
  // the mask alone.
  const Shape shape({32, 24});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(5005);
  for (std::size_t r = 0; r < 32; ++r) {
    for (std::size_t c = 0; c < 24; ++c) {
      const std::size_t i = r * 24 + c;
      if (r < 16 && c < 16) {
        mask.mutable_data()[i] = 0;
        data[i] = kFill;
      } else {
        data[i] = static_cast<float>(0.02 * static_cast<double>(r) +
                                     0.05 * static_cast<double>(c) +
                                     0.01 * rng.uniform());
      }
    }
  }
  const auto stream =
      ClizCompressor(PipelineConfig::defaults(2),
                     options_for(PredictorBackend::kRegression))
          .compress(data, kEb, &mask);
  const auto out = ClizCompressor::decompress(stream);
  EXPECT_LE(error_stats(data.flat(), out.flat(), &mask).max_abs_error, kEb);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!mask.valid(i)) {
      ASSERT_EQ(out[i], kFill);
    }
  }
}

// --- default-stream wire compatibility -----------------------------------

TEST(PredictorBackends, DefaultOptionsReproduceInterpStreams) {
  // ClizOptions{} must mean interp: the golden byte-identity locks in
  // test_golden_streams.cpp depend on the default constructor.
  EXPECT_EQ(ClizOptions{}.predictor, PredictorBackend::kInterp);
  const auto data = plain_field();
  EXPECT_EQ(ClizCompressor(PipelineConfig::defaults(2)).compress(data, kEb),
            ClizCompressor(PipelineConfig::defaults(2),
                           options_for(PredictorBackend::kInterp))
                .compress(data, kEb));
}

TEST(PredictorBackends, PredictorByteKeepsHistoricalMaskByteValues) {
  // The predictor byte multiplexes (id << 1) | has_mask into the former
  // mask byte: default streams must still carry 0 (unmasked) and 1
  // (masked) there, which is what keeps them byte-identical to the
  // pre-registry format. Locate the byte as the first divergence between
  // interp and lorenzo1 compressions of the same input.
  const auto data = plain_field();
  const auto interp_raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(2)).compress(data, kEb));
  const auto lorenzo_raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(2),
                     options_for(PredictorBackend::kLorenzo1))
          .compress(data, kEb));
  std::size_t pos = 0;
  while (pos < interp_raw.size() && interp_raw[pos] == lorenzo_raw[pos]) {
    ++pos;
  }
  ASSERT_LT(pos, interp_raw.size());
  EXPECT_EQ(interp_raw[pos], 0u);   // (interp 0 << 1) | no mask
  EXPECT_EQ(lorenzo_raw[pos], 2u);  // (lorenzo1 1 << 1) | no mask

  const auto mf = masked_field();
  const auto masked_interp = lossless_decompress(
      ClizCompressor(masked_config()).compress(mf.data, kEb, &mf.mask));
  const auto masked_lorenzo = lossless_decompress(
      ClizCompressor(masked_config(),
                     options_for(PredictorBackend::kLorenzo1))
          .compress(mf.data, kEb, &mf.mask));
  std::size_t mpos = 0;
  while (mpos < masked_interp.size() &&
         masked_interp[mpos] == masked_lorenzo[mpos]) {
    ++mpos;
  }
  ASSERT_LT(mpos, masked_interp.size());
  EXPECT_EQ(masked_interp[mpos], 1u);   // (interp 0 << 1) | mask
  EXPECT_EQ(masked_lorenzo[mpos], 3u);  // (lorenzo1 1 << 1) | mask
}

// --- registry lookups ----------------------------------------------------

TEST(PredictorBackends, RegistryCoversExactlyTheWireIds) {
  for (const PredictorBackend predictor : kAllPredictors) {
    const PredictorBackendOps* ops =
        find_predictor_backend(static_cast<std::uint8_t>(predictor));
    ASSERT_NE(ops, nullptr);
    EXPECT_EQ(ops->id, predictor);
    EXPECT_STREQ(ops->name, predictor_backend_name(predictor));
  }
  EXPECT_EQ(find_predictor_backend(2), nullptr);  // retired 2nd-order Lorenzo
  EXPECT_EQ(find_predictor_backend(4), nullptr);
  EXPECT_EQ(find_predictor_backend(0x7F), nullptr);
  EXPECT_EQ(find_predictor_backend(0xFF), nullptr);
}

TEST(PredictorBackends, NamesParseBackToIds) {
  for (const PredictorBackend predictor : kAllPredictors) {
    const auto parsed =
        parse_predictor_backend(predictor_backend_name(predictor));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, predictor);
  }
  EXPECT_FALSE(parse_predictor_backend("huffman").has_value());
  EXPECT_FALSE(parse_predictor_backend("").has_value());
}

// --- thread-count invariance ---------------------------------------------
// Mirror of GoldenStreams.StreamsAreThreadCountInvariant for the
// non-default predictors: work partitioning never depends on the worker
// count, whatever the backend.

struct ThreadCountGuard {
  int saved = hardware_threads();
  ~ThreadCountGuard() { set_thread_count(saved); }
};

TEST(PredictorBackends, StreamsAreThreadCountInvariant) {
  const auto plain = plain_field();
  const auto mf = masked_field();
  const auto periodic = periodic_field();

  ThreadCountGuard guard;
  const int max_threads = std::max(4, guard.saved);
  for (const PredictorBackend predictor :
       {PredictorBackend::kLorenzo1, PredictorBackend::kRegression}) {
    SCOPED_TRACE(std::string("predictor=") +
                 predictor_backend_name(predictor));
    const ClizOptions opts = options_for(predictor);

    set_thread_count(1);
    const auto serial_plain =
        ClizCompressor(PipelineConfig::defaults(2), opts)
            .compress(plain, kEb);
    const auto serial_masked = ClizCompressor(masked_config(), opts)
                                   .compress(mf.data, kEb, &mf.mask);
    const auto serial_periodic =
        ClizCompressor(periodic_config(), opts).compress(periodic, kEb);

    for (const int threads : {2, max_threads}) {
      set_thread_count(threads);
      EXPECT_EQ(ClizCompressor(PipelineConfig::defaults(2), opts)
                    .compress(plain, kEb),
                serial_plain)
          << "plain stream differs at " << threads << " thread(s)";
      EXPECT_EQ(ClizCompressor(masked_config(), opts)
                    .compress(mf.data, kEb, &mf.mask),
                serial_masked)
          << "masked stream differs at " << threads << " thread(s)";
      EXPECT_EQ(ClizCompressor(periodic_config(), opts)
                    .compress(periodic, kEb),
                serial_periodic)
          << "periodic stream differs at " << threads << " thread(s)";
    }
  }
}

// --- autotune predictor grid ---------------------------------------------

TEST(PredictorBackends, AutotuneThreeAxisGridIsDeterministic) {
  const auto data = periodic_field();
  AutotuneOptions opts;
  opts.sampling_rate = 0.2;
  const auto first = autotune(data, kEb, nullptr, opts);
  const auto second = autotune(data, kEb, nullptr, opts);
  ASSERT_EQ(first.predictor_candidates.size(), std::size(kAllPredictors));
  ASSERT_EQ(first.backend_candidates.size(), 4u);
  EXPECT_EQ(first.best_predictor, second.best_predictor);
  EXPECT_EQ(first.best_entropy, second.best_entropy);
  EXPECT_EQ(first.best_lossless, second.best_lossless);
  for (std::size_t i = 0; i < std::size(kAllPredictors); ++i) {
    EXPECT_EQ(first.predictor_candidates[i].predictor,
              kAllPredictors[i]);  // trial order is wire-id order
    EXPECT_EQ(first.predictor_candidates[i].estimated_ratio,
              second.predictor_candidates[i].estimated_ratio)
        << "predictor trial " << i;
    EXPECT_GT(first.predictor_candidates[i].estimated_ratio, 0.0);
  }
  // The recorded choice reproduces: compressing with the tuned predictor
  // and backends round-trips within the bound.
  ClizOptions copts;
  copts.predictor = first.best_predictor;
  copts.entropy = first.best_entropy;
  copts.lossless = first.best_lossless;
  const auto stream = ClizCompressor(first.best, copts).compress(data, kEb);
  const auto out = ClizCompressor::decompress(stream);
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);

  // The JSON report carries all three axes.
  const std::string json = first.to_json();
  EXPECT_NE(json.find("\"best_predictor\""), std::string::npos);
  EXPECT_NE(json.find("\"predictor_candidates\""), std::string::npos);
  EXPECT_NE(json.find("\"backend_candidates\""), std::string::npos);
}

TEST(PredictorBackends, AutotunePredictorGridCanBeDisabled) {
  const auto data = plain_field();
  AutotuneOptions opts;
  opts.sampling_rate = 0.2;
  opts.consider_predictors = false;
  const auto result = autotune(data, kEb, nullptr, opts);
  EXPECT_TRUE(result.predictor_candidates.empty());
  EXPECT_EQ(result.best_predictor, PredictorBackend::kInterp);
}

}  // namespace
}  // namespace cliz
