// Per-pass entropy framing tests: the framed container (entropy byte bit 7)
// must round-trip every golden-corpus generator for both entropy backends,
// produce byte-identical streams at any thread count, decode to exactly the
// serial reconstruction, and reject truncated or corrupted offset tables as
// clean cliz::Error. The serial (default) layout stays locked byte-exactly
// by test_golden_streams.cpp; this file owns the framed wire.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault_injection.hpp"
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

// --- the golden-corpus generators (same as test_stage_backends.cpp) ------

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

struct ThreadCountGuard {
  int saved = hardware_threads();
  ~ThreadCountGuard() { set_thread_count(saved); }
};

constexpr EntropyBackend kBackends[] = {EntropyBackend::kHuffman,
                                        EntropyBackend::kTans};

ClizOptions framed_options(EntropyBackend entropy) {
  ClizOptions o;
  o.entropy = entropy;
  o.frame_passes = true;
  return o;
}

/// One (dataset, pipeline, mask) cell of the golden-generator matrix.
struct Case {
  std::string name;
  NdArray<float> data;
  PipelineConfig config;
  const MaskMap* mask = nullptr;
};

std::vector<Case> golden_cases(const MaskedField& mf) {
  std::vector<Case> cases;
  cases.push_back({"plain", plain_field(), PipelineConfig::defaults(2)});
  cases.push_back({"masked", mf.data, masked_config(), &mf.mask});
  cases.push_back({"periodic", periodic_field(), periodic_config()});
  cases.push_back({"chunked", chunked_field(), PipelineConfig::defaults(3)});
  return cases;
}

// --- round trips ---------------------------------------------------------

TEST(EntropyFraming, FramedRoundTripsGoldenGenerators) {
  const MaskedField mf = masked_field();
  for (const Case& c : golden_cases(mf)) {
    for (const EntropyBackend entropy : kBackends) {
      SCOPED_TRACE(c.name + " entropy=" + entropy_backend_name(entropy));
      ClizOptions serial;
      serial.entropy = entropy;
      const ClizOptions framed = framed_options(entropy);

      CodecContext cctx;
      const auto framed_stream = ClizCompressor(c.config, framed)
                                     .compress(c.data, kEb, c.mask, cctx);
      EXPECT_TRUE(cctx.stats.frame_passes);
      EXPECT_GT(cctx.stats.frame_segments, 0u);
      const auto serial_stream =
          ClizCompressor(c.config, serial).compress(c.data, kEb, c.mask);

      CodecContext dctx;
      const auto framed_out = ClizCompressor::decompress(framed_stream, dctx);
      EXPECT_TRUE(dctx.stats.frame_passes);
      EXPECT_EQ(dctx.stats.frame_segments, cctx.stats.frame_segments);
      EXPECT_LE(error_stats(c.data.flat(), framed_out.flat(), c.mask)
                    .max_abs_error,
                kEb);

      // Framing reorders nothing: the framed reconstruction is bit-identical
      // to the serial one, not merely within the bound.
      const auto serial_out = ClizCompressor::decompress(serial_stream);
      ASSERT_EQ(framed_out.size(), serial_out.size());
      for (std::size_t i = 0; i < framed_out.size(); ++i) {
        ASSERT_EQ(framed_out[i], serial_out[i]) << "value " << i;
      }
      if (c.mask != nullptr) {
        for (std::size_t i = 0; i < framed_out.size(); ++i) {
          if (!c.mask->valid(i)) {
            ASSERT_EQ(framed_out[i], kFill);
          }
        }
      }
    }
  }
}

TEST(EntropyFraming, FramedRoundTripsChunkedFrames) {
  const auto data = chunked_field();
  for (const EntropyBackend entropy : kBackends) {
    SCOPED_TRACE(std::string("entropy=") + entropy_backend_name(entropy));
    ChunkedOptions copts;
    copts.chunks = 4;
    copts.codec = framed_options(entropy);
    const auto frame = chunked_compress(data, kEb,
                                        PipelineConfig::defaults(3), nullptr,
                                        copts);
    const auto out = chunked_decompress(frame);
    EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);
  }
}

// --- thread-count invariance ---------------------------------------------

TEST(EntropyFraming, FramedStreamsAreThreadCountInvariant) {
  // The segment table is a pure function of the code stream (fetch marks
  // sub-split at a fixed symbol grain), so framed streams — like serial
  // ones — must not depend on the worker count, and every thread count must
  // decode them to the same bytes.
  const MaskedField mf = masked_field();
  const auto cases = golden_cases(mf);
  ThreadCountGuard guard;
  for (const EntropyBackend entropy : kBackends) {
    const ClizOptions opts = framed_options(entropy);
    for (const Case& c : cases) {
      SCOPED_TRACE(c.name + " entropy=" + entropy_backend_name(entropy));
      set_thread_count(1);
      const auto reference =
          ClizCompressor(c.config, opts).compress(c.data, kEb, c.mask);
      const auto reference_out = ClizCompressor::decompress(reference);
      for (const int threads : {2, 8}) {
        set_thread_count(threads);
        EXPECT_EQ(ClizCompressor(c.config, opts)
                      .compress(c.data, kEb, c.mask),
                  reference)
            << "framed stream differs at " << threads << " thread(s)";
        const auto out = ClizCompressor::decompress(reference);
        ASSERT_EQ(out.size(), reference_out.size());
        for (std::size_t i = 0; i < out.size(); ++i) {
          ASSERT_EQ(out[i], reference_out[i])
              << "decode differs at " << threads << " thread(s), value " << i;
        }
      }
    }
  }
}

// --- framed container faults ---------------------------------------------

/// First byte where the two raw (lossless-unwrapped) streams diverge: the
/// entropy byte, whose framed copy sets bit 7. The framed container's
/// layout byte follows immediately in unclassified streams.
std::size_t entropy_byte_offset(const std::vector<std::uint8_t>& serial,
                                const std::vector<std::uint8_t>& framed) {
  const std::size_t pos = fault::first_divergence(serial, framed);
  if (pos >= std::min(serial.size(), framed.size())) {
    ADD_FAILURE() << "streams do not diverge";
    return 0;
  }
  return pos;
}

TEST(EntropyFraming, CorruptOffsetTableIsCleanError) {
  const auto data = plain_field();
  const auto serial_raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(2)).compress(data, kEb));
  const auto framed_raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(2),
                     framed_options(EntropyBackend::kHuffman))
          .compress(data, kEb));
  const std::size_t pos = entropy_byte_offset(serial_raw, framed_raw);
  ASSERT_EQ(serial_raw[pos], 0u);     // (huffman id 0 << 1) | unclassified
  ASSERT_EQ(framed_raw[pos], 0x80u);  // same, framed bit set
  ASSERT_EQ(framed_raw[pos + 1], 1u);  // container layout id

  // Unknown layout ids reject before any table parsing.
  const std::uint8_t layouts[] = {0, 2, 3, 0x7F, 0xFF};
  for (const auto& fault :
       fault::byte_override_cases(framed_raw, pos + 1, layouts)) {
    const auto stream = lossless_compress(fault.bytes);
    EXPECT_THROW((void)ClizCompressor::decompress(stream), Error)
        << fault.label;
  }

  // The segment-count varint and the first (n_syms, n_bytes) pairs live in
  // the bytes after the layout id. Any corruption there must fail the
  // count/coverage/payload-sum validation (or a downstream bounds check) —
  // never crash, never read out of bounds. 0 segments cannot cover the
  // code stream; large counts walk the cursor into the coding tables.
  for (std::size_t off = 2; off <= 6; ++off) {
    const std::uint8_t values[] = {0x00, 0x01, 0x7F, 0x80, 0xFF};
    for (const auto& fault :
         fault::byte_override_cases(framed_raw, pos + off, values)) {
      if (fault.bytes == framed_raw) continue;  // wrote the original value
      const auto stream = lossless_compress(fault.bytes);
      try {
        const auto out = ClizCompressor::decompress(stream);
        // Only acceptable if the mutation still describes the exact same
        // payload split — then the decode must be untouched.
        const auto expected = ClizCompressor::decompress(
            lossless_compress(framed_raw));
        ASSERT_EQ(out.size(), expected.size()) << fault.label;
        for (std::size_t i = 0; i < out.size(); ++i) {
          ASSERT_EQ(out[i], expected[i]) << fault.label << " value " << i;
        }
      } catch (const Error&) {
        // detected corruption — the expected outcome
      }
    }
  }
}

TEST(EntropyFraming, TruncatedFramedStreamIsCleanError) {
  const auto data = periodic_field();
  for (const EntropyBackend entropy : kBackends) {
    SCOPED_TRACE(std::string("entropy=") + entropy_backend_name(entropy));
    const auto raw = lossless_decompress(
        ClizCompressor(periodic_config(), framed_options(entropy))
            .compress(data, kEb));
    // Truncating the raw stream anywhere — offset table, coding tables or
    // payload — must surface as Error once re-wrapped, never as a crash or
    // an out-of-bounds read.
    for (const auto& fault : fault::truncation_cases(raw, 32)) {
      const auto stream = lossless_compress(fault.bytes);
      EXPECT_THROW((void)ClizCompressor::decompress(stream), Error)
          << fault.label;
    }
  }
}

TEST(EntropyFraming, FramedStreamMutationsNeverCrash) {
  // Seeded bit flips across the whole framed stream (lossless container
  // included): decode must reject or reproduce, never crash.
  const auto data = chunked_field();
  for (const EntropyBackend entropy : kBackends) {
    const auto stream =
        ClizCompressor(PipelineConfig::defaults(3), framed_options(entropy))
            .compress(data, kEb);
    for (const auto& fault : fault::bit_flip_cases(stream, 60, 707)) {
      try {
        (void)ClizCompressor::decompress(fault.bytes);
      } catch (const Error&) {
        // detected corruption
      } catch (const std::bad_alloc&) {
        // bounded allocation bomb
      }
    }
  }
}

// --- stats & tuner surface -----------------------------------------------

TEST(EntropyFraming, StatsRecordFramingOnBothSides) {
  const auto data = plain_field();
  CodecContext cctx;
  const auto stream =
      ClizCompressor(PipelineConfig::defaults(2),
                     framed_options(EntropyBackend::kHuffman))
          .compress(data, kEb, nullptr, cctx);
  EXPECT_TRUE(cctx.stats.frame_passes);
  EXPECT_NE(cctx.stats.to_json().find("\"frame_passes\":true"),
            std::string::npos);
  CodecContext dctx;
  (void)ClizCompressor::decompress(stream, dctx);
  EXPECT_TRUE(dctx.stats.frame_passes);
  EXPECT_EQ(dctx.stats.frame_segments, cctx.stats.frame_segments);

  CodecContext sctx;
  (void)ClizCompressor(PipelineConfig::defaults(2))
      .compress(data, kEb, nullptr, sctx);
  EXPECT_FALSE(sctx.stats.frame_passes);
  EXPECT_EQ(sctx.stats.frame_segments, 0u);
}

TEST(EntropyFraming, DefaultStreamsStayUnframed) {
  // The default options must keep writing the serial container: bit 7 of
  // the entropy byte clear, stream byte-identical to a pre-framing encode
  // (the golden corpus locks the exact bytes; this guards the flag default).
  EXPECT_FALSE(ClizOptions{}.frame_passes);
  const auto data = plain_field();
  const auto raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(2)).compress(data, kEb));
  const auto framed_raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(2),
                     framed_options(EntropyBackend::kHuffman))
          .compress(data, kEb));
  const std::size_t pos = entropy_byte_offset(raw, framed_raw);
  EXPECT_EQ(raw[pos] & 0x80u, 0u);
}

TEST(EntropyFraming, AutotuneKeepsFramingOnlyWhenAsked) {
  AutotuneOptions opts;
  opts.sampling_rate = 0.2;
  const auto data = chunked_field();
  // The tuner never turns framing on by itself...
  EXPECT_FALSE(autotune(data, kEb, nullptr, opts).best_frame_passes);
  // ...keeps it when asked and the offset table is cheap on the sample...
  opts.codec.frame_passes = true;
  EXPECT_TRUE(autotune(data, kEb, nullptr, opts).best_frame_passes);
  // ...and drops it when the table outweighs the budget: a constant field
  // codes to almost nothing, so the table dominates its stream.
  NdArray<float> constant(data.shape());
  for (std::size_t i = 0; i < constant.size(); ++i) constant[i] = 0.5f;
  EXPECT_FALSE(autotune(constant, kEb, nullptr, opts).best_frame_passes);
}

}  // namespace
}  // namespace cliz
