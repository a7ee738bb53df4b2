// Entropy-stage backend tests: every entropy backend must round-trip the
// golden-corpus datasets within the bound, streams must stay thread-count
// invariant for the non-default backend (the default is locked
// byte-exactly by test_golden_streams.cpp), an unknown backend id in a
// stream must be a clean cliz::Error, an infeasible tANS alphabet must
// downgrade to Huffman on encode rather than fail, and retired RLE lossless
// frames must be refused as unsupported.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "fault_injection.hpp"
#include "src/common/bytestream.hpp"
#include "src/common/crc32c.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/autotune.hpp"
#include "src/core/chunked.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/core/stage_backends.hpp"
#include "src/entropy/tans.hpp"
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

const EntropyBackend kAllEntropies[] = {EntropyBackend::kHuffman,
                                        EntropyBackend::kTans};

ClizOptions options_for(EntropyBackend entropy) {
  ClizOptions o;
  o.entropy = entropy;
  return o;
}

// --- round trips ---------------------------------------------------------

TEST(StageBackends, AllPairsRoundTripGoldenCorpus) {
  const auto plain = plain_field();
  const auto mf = masked_field();
  const auto periodic = periodic_field();
  for (const EntropyBackend entropy : kAllEntropies) {
    SCOPED_TRACE(std::string("entropy=") + entropy_backend_name(entropy));
    const ClizOptions opts = options_for(entropy);

    CodecContext cctx;
    const auto plain_stream = ClizCompressor(PipelineConfig::defaults(2),
                                             opts)
                                  .compress(plain, kEb, nullptr, cctx);
    EXPECT_EQ(cctx.stats.entropy_backend,
              static_cast<std::uint8_t>(entropy));
    EXPECT_FALSE(cctx.stats.entropy_downgraded);
    CodecContext dctx;
    const auto plain_out = ClizCompressor::decompress(plain_stream, dctx);
    EXPECT_LE(error_stats(plain.flat(), plain_out.flat()).max_abs_error,
              kEb);
    EXPECT_EQ(dctx.stats.entropy_backend,
              static_cast<std::uint8_t>(entropy));

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

/// Masked 3-D field with a handful of spikes far past the quantizer's
/// reach, so classified streams carry escape symbols (code 0).
template <typename T>
NdArray<T> spiked_field(const MaskMap& mask) {
  NdArray<T> a(mask.shape());
  Rng rng(7007);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = mask.valid(i)
               ? static_cast<T>(0.1 * static_cast<double>(i % 14) -
                                0.07 * static_cast<double>((i / 14) % 12) +
                                0.04 * rng.uniform())
               : static_cast<T>(kFill);
  }
  for (const std::size_t i : {200u, 1201u, 1999u}) a[i] = static_cast<T>(1e4);
  return a;
}

template <typename T>
void expect_classified_tans_escapes_round_trip() {
  const Shape shape({16, 12, 14});
  auto mask = MaskMap::all_valid(shape);
  for (std::size_t i = 0; i < shape.size(); i += 13) {
    mask.mutable_data()[i] = 0;
  }
  const auto data = spiked_field<T>(mask);
  CodecContext cctx;
  const auto stream =
      ClizCompressor(masked_config(), options_for(EntropyBackend::kTans))
          .compress(data, kEb, &mask, cctx);
  EXPECT_EQ(cctx.stats.entropy_backend,
            static_cast<std::uint8_t>(EntropyBackend::kTans));
  EXPECT_GE(cctx.stats.outlier_count, 3u);
  // Through the sectioned writer: a tANS body is worth an LZ parse like
  // the header and mask before it, so the stream keeps one LZ frame.
  EXPECT_EQ(describe_lossless_frame(stream).mode, 3u);

  CodecContext dctx;
  const auto out = ClizCompressor::decompress<T>(stream, dctx);
  EXPECT_EQ(dctx.stats.entropy_backend,
            static_cast<std::uint8_t>(EntropyBackend::kTans));
  EXPECT_EQ(dctx.stats.outlier_count, cctx.stats.outlier_count);
  ASSERT_EQ(out.shape(), shape);
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!mask.valid(i)) {
      ASSERT_EQ(out[i], static_cast<T>(kFill)) << "masked point " << i;
      continue;
    }
    ASSERT_LE(std::abs(static_cast<double>(out[i]) -
                       static_cast<double>(data[i])),
              kEb)
        << "point " << i;
  }
}

TEST(StageBackends, ClassifiedTansEscapesRoundTripF32) {
  expect_classified_tans_escapes_round_trip<float>();
}

TEST(StageBackends, ClassifiedTansEscapesRoundTripF64) {
  expect_classified_tans_escapes_round_trip<double>();
}

TEST(StageBackends, AllPairsRoundTripChunkedFrames) {
  const auto data = chunked_field();
  for (const EntropyBackend entropy : kAllEntropies) {
    SCOPED_TRACE(std::string("entropy=") + entropy_backend_name(entropy));
    ChunkedOptions copts;
    copts.chunks = 4;
    copts.codec = options_for(entropy);
    const auto frame = chunked_compress(data, kEb,
                                        PipelineConfig::defaults(3), nullptr,
                                        copts);
    const auto out = chunked_decompress(frame);
    EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);
  }
}

TEST(StageBackends, DefaultOptionsReproduceDefaultBackends) {
  // ClizOptions{} must mean huffman: the golden byte-identity locks in
  // test_golden_streams.cpp depend on the default constructor.
  EXPECT_EQ(ClizOptions{}.entropy, EntropyBackend::kHuffman);
  const auto data = plain_field();
  EXPECT_EQ(ClizCompressor(PipelineConfig::defaults(2)).compress(data, kEb),
            ClizCompressor(PipelineConfig::defaults(2),
                           options_for(kAllEntropies[0]))
                .compress(data, kEb));
}

// --- thread-count invariance ---------------------------------------------
// Mirror of GoldenStreams.StreamsAreThreadCountInvariant for the
// non-default entropy coder: work partitioning never depends on the worker
// count, whatever the backends.

struct ThreadCountGuard {
  int saved = hardware_threads();
  ~ThreadCountGuard() { set_thread_count(saved); }
};

TEST(StageBackends, TansStreamsAreThreadCountInvariant) {
  const auto plain = plain_field();
  const auto mf = masked_field();
  const auto periodic = periodic_field();
  ClizOptions opts;
  opts.entropy = EntropyBackend::kTans;

  ThreadCountGuard guard;
  set_thread_count(1);
  const auto serial_plain =
      ClizCompressor(PipelineConfig::defaults(2), opts).compress(plain, kEb);
  const auto serial_masked = ClizCompressor(masked_config(), opts)
                                 .compress(mf.data, kEb, &mf.mask);
  const auto serial_periodic =
      ClizCompressor(periodic_config(), opts).compress(periodic, kEb);

  const int max_threads = std::max(4, guard.saved);
  for (const int threads : {2, max_threads}) {
    set_thread_count(threads);
    EXPECT_EQ(ClizCompressor(PipelineConfig::defaults(2), opts)
                  .compress(plain, kEb),
              serial_plain)
        << "plain tans stream differs at " << threads << " thread(s)";
    EXPECT_EQ(ClizCompressor(masked_config(), opts)
                  .compress(mf.data, kEb, &mf.mask),
              serial_masked)
        << "masked tans stream differs at " << threads << " thread(s)";
    EXPECT_EQ(ClizCompressor(periodic_config(), opts).compress(periodic, kEb),
              serial_periodic)
        << "periodic tans stream differs at " << threads
        << " thread(s)";
  }
}

// --- unknown backend id --------------------------------------------------

/// Offset of the entropy byte in the unwrapped stream: the only byte that
/// differs between a Huffman and a tANS compression of the same input
/// before the coding tables start.
std::size_t entropy_byte_offset(const std::vector<std::uint8_t>& huffman,
                                const std::vector<std::uint8_t>& tans) {
  const std::size_t n = std::min(huffman.size(), tans.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (huffman[i] != tans[i]) return i;
  }
  ADD_FAILURE() << "streams do not diverge";
  return 0;
}

TEST(StageBackends, UnknownEntropyIdIsCleanError) {
  const auto data = plain_field();
  ClizOptions tans_opts;
  tans_opts.entropy = EntropyBackend::kTans;
  const auto huffman_raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(2)).compress(data, kEb));
  const auto tans_raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(2), tans_opts)
          .compress(data, kEb));
  const std::size_t pos = entropy_byte_offset(huffman_raw, tans_raw);
  // Sanity: the diverging byte really is the entropy byte of both streams.
  ASSERT_EQ(huffman_raw[pos], 0u);  // (huffman id 0 << 1) | unclassified
  ASSERT_EQ(tans_raw[pos], 2u);     // (tans id 1 << 1) | unclassified

  // Every unknown id (2..63 in the id field) must be a clean Error; the
  // two known ids keep decoding. 0x80 flips the framed-container bit
  // (id stays huffman) over a serial payload, so it must also reject
  // cleanly — via the framing layout/bounds checks rather than the id
  // check (test_entropy_framing.cpp covers the framed wire in depth).
  const std::uint8_t overrides[] = {4, 5, 6, 0x80, 0xFE, 0xFF};
  for (const auto& fault :
       fault::byte_override_cases(huffman_raw, pos, overrides)) {
    const auto stream = lossless_compress(fault.bytes);
    EXPECT_THROW((void)ClizCompressor::decompress(stream), Error)
        << fault.label;
  }
}

TEST(StageBackends, TansStreamMutationsNeverCrash) {
  // Seeded bit flips over a tANS stream: the decoder must reject or decode,
  // never crash (the tANS state/refill path has its own bounds checks).
  const auto data = periodic_field();
  ClizOptions opts;
  opts.entropy = EntropyBackend::kTans;
  const auto stream =
      ClizCompressor(periodic_config(), opts).compress(data, kEb);
  for (const auto& fault : fault::bit_flip_cases(stream, 60, 808)) {
    try {
      (void)ClizCompressor::decompress(fault.bytes);
    } catch (const Error&) {
      // detected corruption
    } catch (const std::bad_alloc&) {
      // bounded allocation bomb
    }
  }
}

// --- encode-side downgrade -----------------------------------------------

TEST(StageBackends, InfeasibleTansAlphabetDowngradesToHuffman) {
  // Wide-range noise against a tiny bound: the residual census spreads over
  // more than 2^15 distinct codes, which no tANS table here can hold. The
  // encoder must fall back to Huffman, patch the stream's entropy byte, and
  // still round-trip.
  const Shape shape({64, 64, 32});
  NdArray<float> data(shape);
  Rng rng(6006);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(0.02 * rng.uniform());
  }
  const double eb = 1e-7;
  ClizOptions opts;
  opts.entropy = EntropyBackend::kTans;

  CodecContext cctx;
  const auto stream = ClizCompressor(PipelineConfig::defaults(3), opts)
                          .compress(data, eb, nullptr, cctx);
  EXPECT_TRUE(cctx.stats.entropy_downgraded);
  EXPECT_EQ(cctx.stats.entropy_backend,
            static_cast<std::uint8_t>(EntropyBackend::kHuffman));

  CodecContext dctx;
  const auto out = ClizCompressor::decompress(stream, dctx);
  EXPECT_EQ(dctx.stats.entropy_backend,
            static_cast<std::uint8_t>(EntropyBackend::kHuffman));
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, eb);
}

// --- retired RLE lossless frames ----------------------------------------
// Nothing has written mode 5 since the store backend that did was retired,
// and the mode is no longer read: an intact or damaged RLE frame is refused
// with kUnsupported before anything is sized from it.

/// Hand-assembles a mode-5 frame: declared size, CRC32C of the payload,
/// then (u8 value, varint run) pairs.
std::vector<std::uint8_t> rle_frame(
    std::uint64_t declared, std::uint32_t crc,
    const std::vector<std::pair<std::uint8_t, std::uint64_t>>& runs) {
  ByteWriter w;
  w.put_u8(5);
  w.put_varint(declared);
  w.put(crc);
  for (const auto& [value, run] : runs) {
    w.put_u8(value);
    w.put_varint(run);
  }
  return {w.bytes().begin(), w.bytes().end()};
}

const std::vector<std::pair<std::uint8_t, std::uint64_t>> kRuns = {
    {7, 1024}, {42, 1024}, {7, 2048}};

std::vector<std::uint8_t> expand(
    const std::vector<std::pair<std::uint8_t, std::uint64_t>>& runs) {
  std::vector<std::uint8_t> out;
  for (const auto& [value, run] : runs) {
    out.insert(out.end(), static_cast<std::size_t>(run), value);
  }
  return out;
}

void expect_rle_refused(const std::vector<std::uint8_t>& frame) {
  fault::expect_retired([&] { (void)lossless_decompress(frame); },
                        "lossless mode 5");
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  fault::expect_retired(
      [&] { lossless_decompress_into(frame, scratch, out); },
      "lossless mode 5");
}

TEST(StageBackends, RetiredRleFrameRefused) {
  const auto payload = expand(kRuns);
  expect_rle_refused(rle_frame(payload.size(), crc32c(payload), kRuns));
}

TEST(StageBackends, RetiredRleFrameFaultsRefused) {
  const auto payload = expand(kRuns);
  const std::uint32_t crc = crc32c(payload);
  {
    SCOPED_TRACE("zero-length run");
    auto runs = kRuns;
    runs.insert(runs.begin() + 1, {9, 0});
    expect_rle_refused(rle_frame(payload.size(), crc, runs));
  }
  {
    SCOPED_TRACE("run past the declared size");
    auto runs = kRuns;
    runs.back().second += 1;
    expect_rle_refused(rle_frame(payload.size(), crc, runs));
  }
  {
    SCOPED_TRACE("CRC mismatch");
    expect_rle_refused(rle_frame(payload.size(), crc ^ 1u, kRuns));
  }

  // Damage behind the mode byte never turns the frame into a corrupt one.
  const auto frame = rle_frame(payload.size(), crc, kRuns);
  auto cases = fault::bit_flip_cases(frame, 40, 515);
  auto truncs = fault::truncation_cases(frame, 24);
  cases.insert(cases.end(), truncs.begin(), truncs.end());
  for (const auto& fault : cases) {
    if (fault.bytes.empty() || fault.bytes[0] != 5) continue;
    SCOPED_TRACE(fault.label);
    expect_rle_refused(fault.bytes);
  }
}

// --- tANS unit behaviour -------------------------------------------------

TEST(StageBackends, TansCodecRoundTripsSkewedSymbols) {
  SymbolCensus census;
  census.reset(220);
  std::vector<std::uint32_t> symbols;
  Rng rng(99);
  for (std::size_t i = 0; i < 5000; ++i) {
    // Skewed draw over a sparse alphabet.
    const std::uint32_t sym =
        rng.uniform_index(10) == 0
            ? static_cast<std::uint32_t>(100 + rng.uniform_index(40) * 3)
            : static_cast<std::uint32_t>(rng.uniform_index(4));
    symbols.push_back(sym);
    census.add(sym);
  }
  TansCodec codec;
  const unsigned table_log = TansCodec::pick_table_log(census.size());
  ASSERT_TRUE(codec.rebuild_from_frequencies(census.counts(), table_log));

  std::uint32_t state = 1u << table_log;
  std::vector<std::uint32_t> stack;
  for (std::size_t i = symbols.size(); i-- > 0;) {
    codec.encode_symbol(symbols[i], state, stack);
  }
  BitWriter bits;
  bits.put_bits(state - (1u << table_log), static_cast<int>(table_log));
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    bits.put_bits(*it & 0xFFFFu, static_cast<int>(*it >> 16));
  }
  const auto payload = bits.finish_view();

  ByteWriter table;
  codec.serialize(table);
  TansCodec parsed;
  ByteReader table_reader(table.bytes());
  parsed.parse(table_reader, table_log);

  BitReader reader(payload);
  std::uint32_t dstate =
      (1u << table_log) +
      static_cast<std::uint32_t>(reader.get_bits(
          static_cast<int>(table_log)));
  for (const std::uint32_t expected : symbols) {
    ASSERT_EQ(parsed.decode_symbol(dstate, reader), expected);
  }
}

TEST(StageBackends, TansRejectsOversizedAlphabet) {
  SymbolCensus census;
  census.reset(40);
  for (std::uint32_t s = 0; s < 40; ++s) census.add(s);
  TansCodec codec;
  // 40 symbols need more than 2^5 states.
  EXPECT_FALSE(codec.rebuild_from_frequencies(census.counts(), 5));
  EXPECT_TRUE(codec.rebuild_from_frequencies(census.counts(), 6));
}

TEST(StageBackends, TansRefusesMalformedCensus) {
  const std::vector<std::vector<SymbolCount>> bad{
      {{3, 5}, {1, 2}},          // descending
      {{1, 5}, {1, 2}},          // duplicate symbol
      {{1, 5}, {2, 0}, {3, 1}},  // zero count
  };
  for (std::size_t i = 0; i < bad.size(); ++i) {
    TansCodec codec;
    EXPECT_THROW((void)codec.rebuild_from_frequencies(bad[i], 6), Error) << i;
  }
}

// --- autotune backend grid -----------------------------------------------

TEST(StageBackends, AutotuneRecordsDeterministicBackendChoice) {
  const auto data = periodic_field();
  AutotuneOptions opts;
  opts.sampling_rate = 0.2;
  const auto first = autotune(data, kEb, nullptr, opts);
  const auto second = autotune(data, kEb, nullptr, opts);
  ASSERT_EQ(first.backend_candidates.size(), 2u);
  EXPECT_EQ(first.best_entropy, second.best_entropy);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(first.backend_candidates[i].estimated_ratio,
              second.backend_candidates[i].estimated_ratio)
        << "grid trial " << i;
    EXPECT_GT(first.backend_candidates[i].estimated_ratio, 0.0);
  }
  // The winner is at least as good as the default coder, and the choice is
  // reproduced by compressing with the recorded backend.
  EXPECT_GE(std::max_element(first.backend_candidates.begin(),
                             first.backend_candidates.end(),
                             [](const BackendCandidate& a,
                                const BackendCandidate& b) {
                               return a.estimated_ratio < b.estimated_ratio;
                             })
                ->estimated_ratio,
            first.backend_candidates[0].estimated_ratio);
  ClizOptions copts;
  copts.entropy = first.best_entropy;
  const auto stream = ClizCompressor(first.best, copts).compress(data, kEb);
  const auto out = ClizCompressor::decompress(stream);
  EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, kEb);
}

TEST(StageBackends, AutotuneBackendGridCanBeDisabled) {
  const auto data = plain_field();
  AutotuneOptions opts;
  opts.sampling_rate = 0.2;
  opts.consider_backends = false;
  const auto result = autotune(data, kEb, nullptr, opts);
  EXPECT_TRUE(result.backend_candidates.empty());
  EXPECT_EQ(result.best_entropy, EntropyBackend::kHuffman);
}

}  // namespace
}  // namespace cliz
