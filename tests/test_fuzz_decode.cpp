// Failure-injection / fuzz-style robustness tests: every decoder in the
// library must either produce output or throw cliz::Error (or bad_alloc)
// on arbitrary garbage, truncations, and bit flips of valid streams —
// never crash, hang, or read out of bounds. Deterministic seeds keep the
// suite reproducible.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "src/common/bytestream.hpp"
#include "src/common/crc32c.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/chunked.hpp"
#include "src/core/chunked_reader.hpp"
#include "src/core/cliz.hpp"
#include "src/baselines/compressor.hpp"
#include "src/huffman/huffman.hpp"
#include "src/io/archive.hpp"
#include "src/lossless/lossless.hpp"
#include "src/metrics/metrics.hpp"
#include "tests/fault_injection.hpp"
#include "tests/framed_fixtures.hpp"

namespace cliz {
namespace {

/// Runs a decoder on hostile input; anything but an exception-or-success
/// outcome (i.e. a crash) fails the whole test binary, which is the point.
template <typename Fn>
void expect_no_crash(Fn&& fn) {
  try {
    fn();
  } catch (const Error&) {
    // fine: detected corruption
  } catch (const std::bad_alloc&) {
    // fine: corrupt header demanded an absurd (but bounded) allocation
  }
}

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.next_u64());
  return out;
}

NdArray<float> sample_data() {
  const Shape shape({16, 12, 10});
  NdArray<float> a(shape);
  Rng rng(77);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(std::sin(0.1 * static_cast<double>(i)) +
                              0.01 * rng.normal());
  }
  return a;
}

class FuzzCodec : public ::testing::TestWithParam<std::string> {};

TEST_P(FuzzCodec, RandomGarbageNeverCrashes) {
  auto comp = make_compressor(GetParam());
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const auto garbage = random_bytes(8 + seed * 37, 1000 + seed);
    expect_no_crash([&] { (void)comp->decompress(garbage); });
  }
}

TEST_P(FuzzCodec, TruncationsNeverCrash) {
  auto comp = make_compressor(GetParam());
  const auto data = sample_data();
  const auto stream = comp->compress(data, 1e-3);
  for (std::size_t cut = 0; cut < stream.size();
       cut += std::max<std::size_t>(1, stream.size() / 50)) {
    std::vector<std::uint8_t> truncated(stream.begin(),
                                        stream.begin() +
                                            static_cast<std::ptrdiff_t>(cut));
    expect_no_crash([&] { (void)comp->decompress(truncated); });
  }
}

TEST_P(FuzzCodec, BitFlipsNeverCrash) {
  auto comp = make_compressor(GetParam());
  const auto data = sample_data();
  const auto stream = comp->compress(data, 1e-3);
  Rng rng(4242);
  for (int trial = 0; trial < 60; ++trial) {
    auto mutated = stream;
    const int flips = 1 + static_cast<int>(rng.uniform_index(4));
    for (int f = 0; f < flips; ++f) {
      const std::size_t byte = rng.uniform_index(mutated.size());
      mutated[byte] ^= static_cast<std::uint8_t>(
          1u << rng.uniform_index(8));
    }
    expect_no_crash([&] { (void)comp->decompress(mutated); });
  }
}

INSTANTIATE_TEST_SUITE_P(All, FuzzCodec,
                         ::testing::Values("cliz", "sz3", "qoz", "zfp",
                                           "sperr", "sz2"));

TEST(FuzzClizFeatureful, MutationsOfMaskedPeriodicClassifiedStream) {
  // The richest stream layout: mask + template + classification + dynamic
  // fitting. Bit flips must never crash the decoder.
  const Shape shape({24, 10, 12});
  NdArray<float> data(shape);
  auto mask = MaskMap::all_valid(shape);
  Rng rng(5);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (i % 11 == 0) {
      mask.mutable_data()[i] = 0;
      data[i] = 9.96921e36f;
    } else {
      data[i] = static_cast<float>(
          std::cos(2.0 * std::numbers::pi *
                   static_cast<double>(i / 120) / 12.0) +
          0.01 * rng.normal());
    }
  }
  PipelineConfig config = PipelineConfig::defaults(3);
  config.period = 12;
  config.classify_bins = true;
  const auto stream = ClizCompressor(config).compress(data, 1e-3, &mask);

  Rng mutator(6);
  for (int trial = 0; trial < 120; ++trial) {
    auto mutated = stream;
    const std::size_t byte = mutator.uniform_index(mutated.size());
    mutated[byte] ^= static_cast<std::uint8_t>(
        1u << mutator.uniform_index(8));
    expect_no_crash([&] { (void)ClizCompressor::decompress(mutated); });
  }
}

TEST(FuzzClizHeader, RejectsOutOfRangeQuantizerRadius) {
  // Regression: the radius used to flow unvalidated from the header varint
  // into the escape-symbol arithmetic (2*radius + 2j + 2), where a hostile
  // value overflows uint32. The decoder must reject it at parse time.
  for (const std::uint64_t radius :
       {std::uint64_t{0}, std::uint64_t{1}, (std::uint64_t{1} << 30) + 1,
        std::uint64_t{1} << 40, std::uint64_t{0xFFFFFFFF}}) {
    ByteWriter w;
    w.put(std::uint32_t{0x434C495Au});  // magic
    w.put_u8(4);                        // float32
    w.put_varint(3);                    // ndims
    w.put_varint(4);
    w.put_varint(4);
    w.put_varint(4);
    w.put(1e-3);          // error bound
    w.put_varint(radius); // the hostile field — parsing must stop here
    const auto stream = lossless_compress(w.bytes());
    EXPECT_THROW((void)ClizCompressor::decompress(stream), Error)
        << "radius " << radius;
  }
}

TEST(FuzzClizHeader, RejectsUnknownEntropyBackendId) {
  // The entropy byte carries (backend_id << 1) | classified, with bit 7
  // selecting the framed container. Locate it as the first byte where
  // Huffman and tANS compressions of the same input diverge, then sweep
  // hostile ids through it, plain, with the classified bit and with the
  // framed bit: each must be refused as corruption by the id check itself,
  // before the classification block or any framing is parsed.
  const auto data = sample_data();
  ClizOptions tans_opts;
  tans_opts.entropy = EntropyBackend::kTans;
  const auto huffman_raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(3)).compress(data, 1e-3));
  const auto tans_raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(3), tans_opts)
          .compress(data, 1e-3));
  const std::size_t pos = fault::first_divergence(huffman_raw, tans_raw);
  ASSERT_LT(pos, huffman_raw.size());
  ASSERT_EQ(huffman_raw[pos], 0u);  // (huffman id << 1) | unclassified

  std::vector<std::uint8_t> hostile;
  for (const std::uint8_t id : {2, 3, 7, 63}) {
    for (const unsigned flags : {0x00u, 0x01u, 0x80u, 0x81u}) {
      hostile.push_back(static_cast<std::uint8_t>((id << 1) | flags));
    }
  }
  for (const auto& fault :
       fault::byte_override_cases(huffman_raw, pos, hostile)) {
    const auto stream = lossless_compress(fault.bytes);
    try {
      (void)ClizCompressor::decompress(stream);
      ADD_FAILURE() << fault.label << " decoded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptStream)
          << fault.label << ": " << e.what();
      EXPECT_NE(std::string(e.what()).find("unknown entropy backend id"),
                std::string::npos)
          << fault.label << ": " << e.what();
    }
  }
}

TEST(FuzzClizHeader, RejectsUnknownPredictorBackendId) {
  // The predictor byte carries (backend_id << 1) | has_mask. Locate it as
  // the first byte where interp and lorenzo1 compressions of the same input
  // diverge, then drive every reserved id through byte_override_cases: each
  // must be rejected with a clean Error before any prediction state is
  // touched.
  const auto data = sample_data();
  ClizOptions lorenzo_opts;
  lorenzo_opts.predictor = PredictorBackend::kLorenzo1;
  const auto interp_raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(3)).compress(data, 1e-3));
  const auto lorenzo_raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(3), lorenzo_opts)
          .compress(data, 1e-3));
  const std::size_t pos = fault::first_divergence(interp_raw, lorenzo_raw);
  ASSERT_LT(pos, interp_raw.size());
  ASSERT_EQ(interp_raw[pos], 0u);   // (interp id << 1) | no mask
  ASSERT_EQ(lorenzo_raw[pos], 2u);  // (lorenzo1 id << 1) | no mask

  // The retired id 2 and hostile ids 4.. shifted into wire position, with
  // and without the mask bit set (the mask bit must not rescue an unknown
  // id).
  std::vector<std::uint8_t> hostile;
  for (const std::uint8_t id : {2, 4, 5, 7, 63, 127}) {
    hostile.push_back(static_cast<std::uint8_t>(id << 1));
    hostile.push_back(static_cast<std::uint8_t>((id << 1) | 1));
  }
  // The retired id is valid-but-unsupported; every other id is corruption.
  for (const auto& fault : fault::byte_override_cases(interp_raw, pos,
                                                      hostile)) {
    const auto stream = lossless_compress(fault.bytes);
    const bool retired = (fault.bytes[pos] >> 1) == kRetiredLorenzo2Id;
    try {
      (void)ClizCompressor::decompress(stream);
      ADD_FAILURE() << fault.label << " decoded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), retired ? ErrorCode::kUnsupported
                                  : ErrorCode::kCorruptStream)
          << fault.label << ": " << e.what();
      EXPECT_EQ(std::string(e.what()).find("retired") != std::string::npos,
                retired)
          << fault.label << ": " << e.what();
    }
  }
}

TEST(FuzzClizHeader, RejectsUnknownFramingLayoutId) {
  // Bit 7 of the entropy byte selects the per-pass framed container, whose
  // first byte is a layout id (currently only 1 is assigned). The encoder
  // no longer writes it, so the committed regression fixture carries it;
  // its entropy byte is where it diverges from a serial encode of the same
  // field. Every reserved layout value must reject with a clean
  // kCorruptStream before any offset is trusted — never an OOB read, never
  // garbage output.
  const auto fx = framed_fixture::regression();
  const auto raw = framed_fixture::raw_framing(fx);
  const std::size_t pos = raw.entropy_at;
  ASSERT_LT(pos + 1, raw.framed.size());
  ASSERT_EQ(raw.serial[pos], 2u);      // (tans id << 1) | unclassified
  ASSERT_EQ(raw.framed[pos], 0x82u);   // framed bit set
  ASSERT_EQ(raw.framed[pos + 1], 1u);  // framing layout id

  const std::uint8_t layouts[] = {0, 2, 3, 16, 0x7F, 0x80, 0xFF};
  for (const auto& fault :
       fault::byte_override_cases(raw.framed, pos + 1, layouts)) {
    const auto stream = lossless_compress(fault.bytes);
    try {
      (void)framed_fixture::decode_bytes(stream, fx.sample_bytes);
      ADD_FAILURE() << fault.label << " decoded";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCorruptStream)
          << fault.label << ": " << e.what();
    }
  }
}

TEST(FuzzClizHeader, RejectsHostileFramingOffsetTable) {
  // Re-splice the regression fixture's offset table with hostile (n_syms,
  // n_bytes) entries: counts that under/over-cover the code stream, byte
  // lengths past the payload, and compensating shifts that make segments
  // overlap while the totals still add up. Structural violations must be
  // clean Errors; the in-bounds overlap may decode to garbage but must
  // never crash or read out of bounds.
  const auto fx = framed_fixture::regression();
  const auto raw = framed_fixture::raw_framing(fx);
  ASSERT_LT(raw.layout_at, raw.framed.size());
  ASSERT_EQ(raw.framed[raw.layout_at], 1u);  // layout id
  const auto& segs = raw.segs;
  ASSERT_EQ(segs.size(), fx.segments);
  const auto decode = [&](std::uint64_t count,
                          const framed_fixture::SegmentEntries& entries) {
    (void)framed_fixture::decode_bytes(raw.spliced(count, entries),
                                       fx.sample_bytes);
  };

  // Sanity: re-splicing the genuine table reproduces the decode.
  EXPECT_EQ(framed_fixture::decode_bytes(raw.spliced(segs.size(), segs),
                                         fx.sample_bytes),
            framed_fixture::decode_bytes(fx.framed, fx.sample_bytes));

  // Zero segments cannot cover the code stream.
  EXPECT_THROW(decode(0, {}), Error);
  // Count past the code stream is rejected before the entries are read.
  EXPECT_THROW(decode(~std::uint64_t{0}, segs), Error);

  auto mutated = segs;
  // Under-cover: first segment one symbol short.
  mutated[0].first -= 1;
  EXPECT_THROW(decode(segs.size(), mutated), Error);
  // Over-cover: one symbol past the code stream.
  mutated = segs;
  mutated[0].first += 1;
  EXPECT_THROW(decode(segs.size(), mutated), Error);
  // Zero-symbol segment: every segment must carry at least one code.
  mutated = segs;
  mutated[0].first = 0;
  EXPECT_THROW(decode(segs.size(), mutated), Error);
  // Byte length past the remaining payload.
  mutated = segs;
  mutated[0].second = raw.framed.size() + 100;
  EXPECT_THROW(decode(segs.size(), mutated), Error);
  // Byte sum short of the payload block.
  mutated = segs;
  mutated.back().second -= 1;
  EXPECT_THROW(decode(segs.size(), mutated), Error);
  // Compensating shift: totals match, so the table parses, but segment 0
  // now claims bytes belonging to segment 1 — memory-safe garbage or a
  // clean Error, never a crash.
  ASSERT_GE(segs[1].second, 1u);
  mutated = segs;
  mutated[0].second += 1;
  mutated[1].second -= 1;
  expect_no_crash([&] { decode(segs.size(), mutated); });
}

TEST(FuzzLossless, GarbageAndMutations) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    expect_no_crash([&] {
      (void)lossless_decompress(random_bytes(3 + seed * 13, seed));
    });
  }
  const auto payload = random_bytes(5000, 99);
  // A whole-buffer frame, and a sectioned one (mode 6) whose first
  // section repeats itself and is LZ-coded while the random rest is stored.
  auto sectioned_payload = std::vector<std::uint8_t>(600, 0x5A);
  sectioned_payload.insert(sectioned_payload.end(), payload.begin(),
                           payload.end());
  const std::size_t cuts[] = {600};
  LosslessScratch scratch;
  std::vector<std::uint8_t> sectioned;
  lossless_compress_sections_into(sectioned_payload, cuts, scratch,
                                  sectioned);
  ASSERT_EQ(sectioned[0], 6u);
  Rng rng(7);
  for (const auto& stream : {lossless_compress(payload), sectioned}) {
    for (int trial = 0; trial < 60; ++trial) {
      auto mutated = stream;
      mutated[rng.uniform_index(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_index(8));
      expect_no_crash([&] { (void)lossless_decompress(mutated); });
    }
  }
}

TEST(FuzzHuffman, GarbageTablesAndStreams) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    expect_no_crash([&] {
      auto bytes = random_bytes(2 + seed * 7, 200 + seed);
      ByteReader r(bytes);
      const auto codec = HuffmanCodec::deserialize(r);
      auto payload = random_bytes(64, 300 + seed);
      BitReader bits(payload);
      for (int i = 0; i < 100; ++i) (void)codec.decode_one(bits);
    });
  }
}

TEST(FuzzMask, GarbageRle) {
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    expect_no_crash([&] {
      auto bytes = random_bytes(4 + seed * 11, 400 + seed);
      ByteReader r(bytes);
      (void)MaskMap::deserialize(r);
    });
  }
}

TEST(FuzzChunked, GarbageTruncationsAndBitFlips) {
  const auto data = sample_data();
  ChunkedOptions opts;
  opts.chunks = 4;
  const auto stream = chunked_compress(data, 1e-3,
                                       PipelineConfig::defaults(3), nullptr,
                                       opts);

  // One scratch shared across every hostile decode: corruption handling
  // must not poison the pooled contexts for the next (valid or invalid)
  // frame.
  ChunkedScratch scratch;
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    const auto garbage = random_bytes(8 + seed * 31, 2000 + seed);
    expect_no_crash([&] { (void)chunked_decompress(garbage, &scratch); });
  }
  for (std::size_t cut = 0; cut < stream.size();
       cut += std::max<std::size_t>(1, stream.size() / 50)) {
    std::vector<std::uint8_t> truncated(stream.begin(),
                                        stream.begin() +
                                            static_cast<std::ptrdiff_t>(cut));
    expect_no_crash([&] { (void)chunked_decompress(truncated, &scratch); });
  }
  Rng rng(9001);
  for (int trial = 0; trial < 80; ++trial) {
    auto mutated = stream;
    const int flips = 1 + static_cast<int>(rng.uniform_index(4));
    for (int f = 0; f < flips; ++f) {
      mutated[rng.uniform_index(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.uniform_index(8));
    }
    expect_no_crash([&] { (void)chunked_decompress(mutated, &scratch); });
  }

  // The hammered scratch still decodes the pristine frame correctly.
  const auto recon = chunked_decompress(stream, &scratch);
  ASSERT_EQ(recon.shape(), data.shape());
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-3);
}

TEST(FuzzChunked, HostileHeaders) {
  constexpr std::uint32_t kChunkedMagic = 0x434C4B32u;  // "CLK2"
  const auto data = sample_data();  // shape {16, 12, 10}
  const auto valid_chunk = ClizCompressor(PipelineConfig::defaults(3))
                               .compress(data, 1e-3);
  const std::uint32_t valid_crc = crc32c(valid_chunk);
  ChunkedScratch scratch;

  // Each case builds one hostile CLK2 frame: `header` writes the fields the
  // header CRC covers (sealed with a valid CRC, so the structural checks
  // are what must catch the damage) and `blocks` the block chain after
  // it. Every frame must be rejected (or at worst decode to garbage)
  // without crashing through the pooled path.
  const auto hostile = [&](auto&& header, auto&& blocks) {
    ByteWriter h;
    header(h);
    ByteWriter w;
    w.put(kChunkedMagic);
    w.put_bytes(h.bytes());
    w.put(crc32c(h.bytes()));
    blocks(w);
    const auto frame = w.bytes();
    expect_no_crash([&] {
      (void)chunked_decompress(
          std::vector<std::uint8_t>(frame.begin(), frame.end()), &scratch);
    });
  };
  const auto no_blocks = [](ByteWriter&) {};
  const auto shape_16_12_10 = [](ByteWriter& w) {
    w.put_varint(3);
    for (const std::size_t d : {16, 12, 10}) w.put_varint(d);
  };

  // Zero / oversized dimensionality.
  hostile([&](ByteWriter& w) { w.put_varint(0); }, no_blocks);
  hostile([&](ByteWriter& w) { w.put_varint(9); }, no_blocks);
  // Huge dims (allocation bombs must be caught or bounded).
  hostile(
      [&](ByteWriter& w) {
        w.put_varint(3);
        w.put_varint(std::uint64_t{1} << 40);
        w.put_varint(std::uint64_t{1} << 40);
        w.put_varint(std::uint64_t{1} << 40);
        w.put_varint(1);
      },
      no_blocks);
  // Chunk count of zero, and more chunks than dim-0 rows.
  hostile(
      [&](ByteWriter& w) {
        shape_16_12_10(w);
        w.put_varint(0);
      },
      no_blocks);
  hostile(
      [&](ByteWriter& w) {
        shape_16_12_10(w);
        w.put_varint(17);
      },
      no_blocks);
  const auto one_block = [&](ByteWriter& w) { w.put_block(valid_chunk); };
  // Ranges that gap, overlap, invert, or overshoot dim 0.
  for (const auto& [lo, hi] : std::vector<std::pair<std::uint64_t,
                                                    std::uint64_t>>{
           {1, 16},    // gap at the front
           {0, 0},     // empty
           {4, 2},     // inverted
           {0, 99}}) {  // overshoot
    hostile(
        [&](ByteWriter& w) {
          shape_16_12_10(w);
          w.put_varint(1);
          w.put_varint(lo);
          w.put_varint(hi);
          w.put(valid_crc);
        },
        one_block);
  }
  const auto whole_dim0 = [&](std::uint32_t crc) {
    return [&, crc](ByteWriter& w) {
      shape_16_12_10(w);
      w.put_varint(1);
      w.put_varint(0);
      w.put_varint(16);
      w.put(crc);
    };
  };
  // Block length overrunning the frame.
  hostile(whole_dim0(valid_crc), [](ByteWriter& w) {
    w.put_varint(1 << 20);  // promised block length; no payload follows
  });
  // Well-formed header whose chunk payload is garbage (with a matching
  // payload CRC, so the CliZ decoder itself must refuse it).
  const auto garbage = random_bytes(200, 31337);
  hostile(whole_dim0(crc32c(garbage)),
          [&](ByteWriter& w) { w.put_block(garbage); });
  // Well-formed header whose (valid CliZ) chunk decodes to the wrong
  // slab geometry: frame claims rows 0..8, payload carries all 16.
  hostile(
      [&](ByteWriter& w) {
        shape_16_12_10(w);
        w.put_varint(2);
        w.put_varint(0);
        w.put_varint(8);
        w.put(valid_crc);
        w.put_varint(8);
        w.put_varint(16);
        w.put(valid_crc);
      },
      [&](ByteWriter& w) {
        w.put_block(valid_chunk);
        w.put_block(valid_chunk);
      });
}

TEST(FuzzChunked, WrongDecoderAndSampleWidth) {
  const auto data = sample_data();
  ChunkedOptions opts;
  opts.chunks = 3;
  const auto f32_frame = chunked_compress(data, 1e-3,
                                          PipelineConfig::defaults(3),
                                          nullptr, opts);
  NdArray<double> f64_data(data.shape());
  for (std::size_t i = 0; i < data.size(); ++i) {
    f64_data[i] = static_cast<double>(data[i]);
  }
  const auto f64_frame = chunked_compress(f64_data, 1e-3,
                                          PipelineConfig::defaults(3),
                                          nullptr, opts);
  EXPECT_EQ(ChunkedReader(f32_frame).sample_bytes(), 4u);
  EXPECT_EQ(ChunkedReader(f64_frame).sample_bytes(), 8u);

  // Sample-width mismatches are clean errors through the pooled decode.
  ChunkedScratch scratch;
  EXPECT_THROW((void)chunked_decompress(f64_frame, &scratch), Error);
  EXPECT_THROW((void)chunked_decompress<double>(f32_frame, &scratch), Error);

  // Chunked frames into plain decoders and vice versa: clean rejects.
  EXPECT_FALSE(is_chunked_stream(
      ClizCompressor(PipelineConfig::defaults(3)).compress(data, 1e-3)));
  EXPECT_THROW((void)ClizCompressor::decompress(f32_frame), Error);
  const auto plain = ClizCompressor(PipelineConfig::defaults(3))
                         .compress(data, 1e-3);
  EXPECT_THROW((void)chunked_decompress(plain, &scratch), Error);
}

// --- CLZA archive reader ------------------------------------------------

/// Dumps `bytes` to a temp path, opens it in both modes, and asserts the
/// robustness contract: strict open/read may only fail with cliz::Error;
/// tolerant open never throws on byte damage and its report stays sane
/// (recovered and quarantined names bounded by what was written).
class FuzzArchive : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-unique path: ctest -j runs each test as its own process of this
    // binary, and parallel fixtures must not clobber each other's file.
    path_ = (std::filesystem::temp_directory_path() /
             ("cliz_fuzz_archive_" + std::to_string(::getpid()) + ".clza"))
                .string();
    ArchiveWriter w(path_);
    for (int v = 0; v < 3; ++v) {
      NdArray<float> data(Shape({10, 8}));
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<float>(i % 7) * 0.25f;
      }
      w.add_variable("VAR" + std::to_string(v), data, 1e-3,
                     PipelineConfig::defaults(data.shape().ndims()));
    }
    w.finish();
    std::ifstream in(path_, std::ios::binary);
    pristine_.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    ASSERT_GT(pristine_.size(), kTrailer);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  void probe(const std::vector<std::uint8_t>& bytes) {
    {
      std::ofstream out(path_, std::ios::binary | std::ios::trunc);
      ASSERT_TRUE(out.is_open());
      out.write(reinterpret_cast<const char*>(bytes.data()),
                static_cast<std::streamsize>(bytes.size()));
    }
    expect_no_crash([&] {
      ArchiveReader strict(path_);
      for (const auto& v : strict.variables()) (void)strict.read(v.name);
    });
    expect_no_crash([&] {
      ArchiveReader tol(path_, ArchiveOpenMode::kTolerant);
      EXPECT_LE(tol.salvage().recovered.size(), 3u);
      for (const auto& name : tol.salvage().recovered) {
        (void)tol.read(name);
      }
    });
  }

  /// Pristine bytes with the trailer's index offset replaced.
  std::vector<std::uint8_t> with_index_offset(std::uint64_t offset) const {
    auto bytes = pristine_;
    ByteWriter w;
    w.put(offset);
    std::copy(w.bytes().begin(), w.bytes().end(),
              bytes.end() - static_cast<std::ptrdiff_t>(kTrailer));
    return bytes;
  }

  static constexpr std::size_t kTrailer = 12;
  std::string path_;
  std::vector<std::uint8_t> pristine_;
};

TEST_F(FuzzArchive, HostileTrailerOffsets) {
  // Offsets pointing before the first record, past EOF, at the trailer
  // itself, mid-payload, and mid-index.
  for (const std::uint64_t offset :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{7},
        std::uint64_t{pristine_.size()}, std::uint64_t{pristine_.size() - 1},
        std::uint64_t{pristine_.size() - kTrailer},
        std::uint64_t{pristine_.size() / 2}, std::uint64_t{1} << 60,
        ~std::uint64_t{0}}) {
    SCOPED_TRACE("index offset " + std::to_string(offset));
    probe(with_index_offset(offset));
  }
}

TEST_F(FuzzArchive, TruncatedIndexAndTrailer) {
  // Cut the file short at every boundary near the end: chops through the
  // trailer, then the index CRC, then the index body.
  for (std::size_t cut = 1; cut <= kTrailer + 40 && cut < pristine_.size();
       ++cut) {
    SCOPED_TRACE("truncated by " + std::to_string(cut));
    probe({pristine_.begin(),
           pristine_.end() - static_cast<std::ptrdiff_t>(cut)});
  }
}

TEST_F(FuzzArchive, OverlappingAndDuplicatedRecords) {
  // Splice the front half of the file over the back half (duplicate
  // record magics at bogus offsets), and duplicate the whole body before
  // the trailer (every record appears twice; offsets point at the first
  // copy only).
  auto overlap = pristine_;
  const std::size_t half = overlap.size() / 2;
  std::copy(overlap.begin(), overlap.begin() + static_cast<std::ptrdiff_t>(
                                                   overlap.size() - half),
            overlap.begin() + static_cast<std::ptrdiff_t>(half));
  probe(overlap);

  const std::size_t body = pristine_.size() - kTrailer;
  std::vector<std::uint8_t> doubled(pristine_.begin(),
                                    pristine_.begin() +
                                        static_cast<std::ptrdiff_t>(body));
  doubled.insert(doubled.end(), pristine_.begin(),
                 pristine_.begin() + static_cast<std::ptrdiff_t>(body));
  doubled.insert(doubled.end(),
                 pristine_.end() - static_cast<std::ptrdiff_t>(kTrailer),
                 pristine_.end());
  probe(doubled);
}

TEST_F(FuzzArchive, GarbageWithValidTrailerMagic) {
  for (std::uint64_t seed = 0; seed < 24; ++seed) {
    auto bytes = random_bytes(64 + seed * 53, 5000 + seed);
    // Grafting the real trailer magic on makes the scanner actually walk
    // the garbage instead of bailing at the magic check.
    ByteWriter w;
    w.put(std::uint64_t{8});
    w.put(std::uint32_t{0x434C5A41u});  // "CLZA"
    bytes.insert(bytes.end(), w.bytes().begin(), w.bytes().end());
    SCOPED_TRACE("garbage seed " + std::to_string(seed));
    probe(bytes);
  }
}

TEST(FuzzCrossCodec, StreamsFedToWrongDecoder) {
  // Every codec's stream handed to every other codec's decoder must be
  // rejected cleanly (magic mismatch), while its own decoder accepts it.
  const auto data = sample_data();
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> streams;
  for (const auto& name : compressor_names()) {
    streams.emplace_back(name,
                         make_compressor(name)->compress(data, 1e-2));
  }
  for (const auto& [name, stream] : streams) {
    EXPECT_NO_THROW((void)make_compressor(name)->decompress(stream)) << name;
    for (const auto& other : compressor_names()) {
      if (other == name) continue;
      auto comp = make_compressor(other);
      EXPECT_THROW((void)comp->decompress(stream), Error)
          << name << " stream into " << other;
    }
  }
}

}  // namespace
}  // namespace cliz
