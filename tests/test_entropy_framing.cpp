// Per-pass entropy framing tests. The encoder writes only the serial
// container; the framed one (entropy byte bit 7) is still read, so its
// decoder checks run on the committed framed fixtures
// (tests/framed_fixtures.hpp): truncated or corrupted offset tables, a
// segment that straddles a decode fetch and seeded bit flips must be clean
// cliz::Errors, the decode stats must record the framing, and a reused
// context must decode framed and serial streams alike. The serial
// layout stays locked byte-exactly by test_golden_streams.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "fault_injection.hpp"
#include "framed_fixtures.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/autotune.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/lossless/lossless.hpp"

namespace cliz {
namespace {

using framed_fixture::decode_bytes;
using framed_fixture::Fixture;
using framed_fixture::raw_framing;

constexpr double kEb = 1e-3;

/// Smooth 2-D field for the encode-side checks.
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

// --- framed container faults ---------------------------------------------

TEST(EntropyFraming, CorruptOffsetTableIsCleanError) {
  const Fixture fx = framed_fixture::regression();
  const auto raw = raw_framing(fx);
  const std::size_t pos = raw.entropy_at;
  ASSERT_LT(pos + 1, raw.framed.size());
  ASSERT_EQ(raw.serial[pos], 2u);     // (tans id 1 << 1) | unclassified
  ASSERT_EQ(raw.framed[pos], 0x82u);  // same, framed bit set
  ASSERT_EQ(raw.layout_at, pos + 1);
  ASSERT_EQ(raw.framed[pos + 1], 1u);  // container layout id

  // Unknown layout ids reject before any table parsing.
  const std::uint8_t layouts[] = {0, 2, 3, 0x7F, 0xFF};
  for (const auto& fault :
       fault::byte_override_cases(raw.framed, pos + 1, layouts)) {
    const auto stream = lossless_compress(fault.bytes);
    EXPECT_THROW((void)decode_bytes(stream, fx.sample_bytes), Error)
        << fault.label;
  }

  // The segment-count varint and the first (n_syms, n_bytes) pairs live in
  // the bytes after the layout id. Any corruption there must fail the
  // count/coverage/payload-sum validation (or a downstream bounds check) —
  // never crash, never read out of bounds. 0 segments cannot cover the
  // code stream; large counts walk the cursor into the coding tables.
  const auto expected = decode_bytes(fx.framed, fx.sample_bytes);
  for (std::size_t off = 2; off <= 6; ++off) {
    const std::uint8_t values[] = {0x00, 0x01, 0x7F, 0x80, 0xFF};
    for (const auto& fault :
         fault::byte_override_cases(raw.framed, pos + off, values)) {
      if (fault.bytes == raw.framed) continue;  // wrote the original value
      const auto stream = lossless_compress(fault.bytes);
      try {
        // Only acceptable if the mutation still describes the exact same
        // payload split — then the decode must be untouched.
        EXPECT_EQ(decode_bytes(stream, fx.sample_bytes), expected)
            << fault.label;
      } catch (const Error&) {
        // detected corruption — the expected outcome
      }
    }
  }
}

TEST(EntropyFraming, TruncatedFramedStreamIsCleanError) {
  for (const Fixture& fx : framed_fixture::all()) {
    SCOPED_TRACE(fx.file);
    const auto raw = lossless_decompress(fx.framed);
    // Truncating the raw stream anywhere — offset table, coding tables or
    // payload — must surface as Error once re-wrapped, never as a crash or
    // an out-of-bounds read.
    for (const auto& fault : fault::truncation_cases(raw, 32)) {
      const auto stream = lossless_compress(fault.bytes);
      EXPECT_THROW((void)decode_bytes(stream, fx.sample_bytes), Error)
          << fault.label;
    }
  }
}

TEST(EntropyFraming, SegmentAcrossFetchBoundaryIsCleanError) {
  // The interp fixture fetches once per pass. Moving one symbol from the
  // first segment of the last pass into the segment before it keeps every
  // total, so the table parses, but that segment now straddles the fetch
  // boundary between two passes.
  const Fixture fx = framed_fixture::interp();
  const auto raw = raw_framing(fx);
  ASSERT_EQ(raw.framed[raw.entropy_at], 0x81u);  // huffman, classified
  ASSERT_EQ(raw.framed[raw.layout_at], 1u);
  ASSERT_EQ(raw.segs.size(), fx.segments);
  auto moved = raw.segs;
  moved[16].first += 1;
  moved[17].first -= 1;
  try {
    (void)decode_bytes(raw.spliced(moved.size(), moved), fx.sample_bytes);
    ADD_FAILURE() << "a segment across a fetch boundary decoded";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kCorruptStream) << e.what();
    EXPECT_NE(std::string(e.what()).find("misaligned with fetch"),
              std::string::npos)
        << e.what();
  }
  // The genuine table, re-spliced, decodes.
  EXPECT_EQ(decode_bytes(raw.spliced(raw.segs.size(), raw.segs),
                         fx.sample_bytes),
            decode_bytes(fx.framed, fx.sample_bytes));
}

TEST(EntropyFraming, FramedStreamMutationsNeverCrash) {
  // Seeded bit flips across the whole framed stream (lossless container
  // included): decode must reject or reproduce, never crash.
  for (const Fixture& fx : framed_fixture::all()) {
    for (const auto& fault : fault::bit_flip_cases(fx.framed, 60, 707)) {
      try {
        (void)decode_bytes(fault.bytes, fx.sample_bytes);
      } catch (const Error&) {
        // detected corruption
      } catch (const std::bad_alloc&) {
        // bounded allocation bomb
      }
    }
  }
}

// --- context reuse, per fixture -------------------------------------------

class FramedFixtureDecode
    : public ::testing::TestWithParam<Fixture (*)()> {};

TEST_P(FramedFixtureDecode, ReusedContextAlternatesWithSerial) {
  // One context decodes the framed fixture, its serial twin and the framed
  // fixture again, by value and into a caller's array: framing state must
  // not leak from one decode into the next in either direction.
  const Fixture fx = GetParam()();
  const auto expected = decode_bytes(fx.serial, fx.sample_bytes);
  CodecContext ctx;
  for (const bool framed : {true, false, true}) {
    SCOPED_TRACE(framed ? "framed" : "serial");
    const auto& stream = framed ? fx.framed : fx.serial;
    EXPECT_EQ(decode_bytes(stream, fx.sample_bytes, ctx), expected);
    EXPECT_EQ(ctx.stats.frame_passes, framed);
    EXPECT_EQ(ctx.stats.frame_segments, framed ? fx.segments : 0u);

    std::vector<std::uint8_t> into;
    const auto decode_into = [&]<typename T>() {
      NdArray<T> out(ClizCompressor::decompress<T>(fx.serial).shape());
      ClizCompressor::decompress_into(stream, ctx, out);
      into.resize(out.size() * sizeof(T));
      std::memcpy(into.data(), out.data(), into.size());
    };
    if (fx.sample_bytes == 8) {
      decode_into.template operator()<double>();
    } else {
      decode_into.template operator()<float>();
    }
    EXPECT_EQ(into, expected);
    EXPECT_EQ(ctx.stats.frame_passes, framed);
  }
}

std::string fixture_name(
    const ::testing::TestParamInfo<Fixture (*)()>& info) {
  static const char* const kNames[] = {"Lorenzo", "Regression", "Interp"};
  return kNames[info.index];
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, FramedFixtureDecode,
    ::testing::Values(&framed_fixture::lorenzo, &framed_fixture::regression,
                      &framed_fixture::interp),
    fixture_name);

// --- stats & encoder surface ---------------------------------------------

TEST(EntropyFraming, StatsRecordFramingOnDecode) {
  for (const Fixture& fx : framed_fixture::all()) {
    SCOPED_TRACE(fx.file);
    CodecContext dctx;
    (void)decode_bytes(fx.framed, fx.sample_bytes, dctx);
    EXPECT_TRUE(dctx.stats.frame_passes);
    EXPECT_EQ(dctx.stats.frame_segments, fx.segments);
    EXPECT_NE(dctx.stats.to_json().find("\"frame_passes\":true"),
              std::string::npos);

    CodecContext sctx;
    (void)decode_bytes(fx.serial, fx.sample_bytes, sctx);
    EXPECT_FALSE(sctx.stats.frame_passes);
    EXPECT_EQ(sctx.stats.frame_segments, 0u);
  }
}

TEST(EntropyFraming, DefaultStreamsStayUnframed) {
  // ClizOptions::frame_passes is ignored: setting it writes the same serial
  // stream, and the tuner reports framing off either way.
  const auto data = plain_field();
  ClizOptions framed;
  framed.frame_passes = true;
  CodecContext cctx;
  EXPECT_EQ(ClizCompressor(PipelineConfig::defaults(2), framed)
                .compress(data, kEb, nullptr, cctx),
            ClizCompressor(PipelineConfig::defaults(2)).compress(data, kEb));
  EXPECT_FALSE(cctx.stats.frame_passes);
  EXPECT_EQ(cctx.stats.frame_segments, 0u);

  AutotuneOptions opts;
  opts.sampling_rate = 0.2;
  EXPECT_FALSE(autotune(data, kEb, nullptr, opts).best_frame_passes);
  opts.codec.frame_passes = true;
  EXPECT_FALSE(autotune(data, kEb, nullptr, opts).best_frame_passes);
}

}  // namespace
}  // namespace cliz
