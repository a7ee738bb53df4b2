// Fault-injection matrix over the committed golden corpus and a freshly
// written CLZA archive: every seeded bit flip, truncation, and splice must
// yield either a clean cliz::Error or output bit-identical to the pristine
// decode. Nothing else is acceptable — no crashes, no unbounded
// allocations, and above all no silently wrong data. ("Bit-identical" is a
// real outcome, not a loophole: a flip in unused trailing Huffman bits or
// in a section the decoder never reads changes nothing, and the CRC layer
// is entitled to wave such streams through.)
//
// Faults are deterministic functions of (stream, seed), so any failure
// reproduces from the printed case label.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <unistd.h>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/chunked.hpp"
#include "src/core/chunked_reader.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/io/archive.hpp"
#include "src/lossless/lossless.hpp"
#include "tests/fault_injection.hpp"
#include "tests/framed_fixtures.hpp"

// The limits matrix asserts that a header declaring a bomb is rejected
// BEFORE payload-proportional bytes are requested from the allocator, not
// merely that the decode throws.
#include "tests/alloc_guard.hpp"

namespace cliz {
namespace {

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing " << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

std::string golden_path(const char* file) {
  return std::string(CLIZ_GOLDEN_DIR) + "/" + file;
}

/// Bitwise equality of two decoded fields (shape and payload bytes).
bool bit_identical(const NdArray<float>& a, const NdArray<float>& b) {
  if (!(a.shape() == b.shape())) return false;
  return std::memcmp(a.flat().data(), b.flat().data(),
                     a.size() * sizeof(float)) == 0;
}

enum class Outcome { kCleanError, kIdentical, kSilentCorruption };

/// Decode a faulted frame with `decode` and classify the result against the
/// pristine decode. Any exception other than cliz::Error or std::bad_alloc
/// (length_error from a hostile resize, say) propagates and fails the test
/// loudly with the case label attached by the caller.
template <typename DecodeFn>
Outcome classify(const DecodeFn& decode,
                 const std::vector<std::uint8_t>& faulted,
                 const NdArray<float>& pristine) {
  try {
    const NdArray<float> out = decode(faulted);
    return bit_identical(out, pristine) ? Outcome::kIdentical
                                        : Outcome::kSilentCorruption;
  } catch (const Error&) {
    return Outcome::kCleanError;
  } catch (const std::bad_alloc&) {
    // An allocator refusal is a clean failure too, but the integrity layer
    // exists to cap untrusted sizes before they hit the allocator; treat a
    // bad_alloc as a budget violation so it shows up here.
    ADD_FAILURE() << "fault drove an unbounded allocation";
    return Outcome::kCleanError;
  }
}

struct MatrixTally {
  std::size_t clean = 0;
  std::size_t identical = 0;
};

/// Run every generated fault for one stream through `decode`.
template <typename DecodeFn>
MatrixTally run_matrix(const char* stream_name,
                       const std::vector<std::uint8_t>& stream,
                       const std::vector<std::uint8_t>& donor,
                       const DecodeFn& decode) {
  const NdArray<float> pristine = decode(stream);

  std::vector<fault::Fault> cases = fault::bit_flip_cases(stream, 160, 0xF1);
  auto truncs = fault::truncation_cases(stream, 40);
  cases.insert(cases.end(), std::make_move_iterator(truncs.begin()),
               std::make_move_iterator(truncs.end()));
  auto splices = fault::splice_cases(stream, donor, 24, 0xF2);
  cases.insert(cases.end(), std::make_move_iterator(splices.begin()),
               std::make_move_iterator(splices.end()));

  MatrixTally tally;
  for (const auto& f : cases) {
    SCOPED_TRACE(std::string(stream_name) + " " + f.label);
    switch (classify(decode, f.bytes, pristine)) {
      case Outcome::kCleanError:
        ++tally.clean;
        break;
      case Outcome::kIdentical:
        ++tally.identical;
        break;
      case Outcome::kSilentCorruption:
        ADD_FAILURE() << "decoded without error but produced wrong data";
        break;
    }
  }
  EXPECT_EQ(tally.clean + tally.identical, cases.size());
  // The corpus streams are dense enough that most faults land in live
  // sections; if almost everything sailed through "identical", the CRC
  // layer is not actually being exercised.
  EXPECT_GT(tally.clean, cases.size() / 2)
      << stream_name << ": too few faults detected";
  return tally;
}

const auto kClizDecode = [](const std::vector<std::uint8_t>& bytes) {
  return ClizCompressor::decompress(bytes);
};
const auto kChunkedDecode = [](const std::vector<std::uint8_t>& bytes) {
  return chunked_decompress(bytes);
};

TEST(FaultMatrix, PlainGoldenStream) {
  const auto stream = read_file(golden_path("golden_plain.cliz"));
  const auto donor = read_file(golden_path("golden_periodic.cliz"));
  ASSERT_FALSE(stream.empty());
  run_matrix("golden_plain", stream, donor, kClizDecode);
}

TEST(FaultMatrix, MaskedGoldenStream) {
  const auto stream = read_file(golden_path("golden_masked.cliz"));
  const auto donor = read_file(golden_path("golden_plain.cliz"));
  ASSERT_FALSE(stream.empty());
  run_matrix("golden_masked", stream, donor, kClizDecode);
}

TEST(FaultMatrix, PeriodicGoldenStream) {
  const auto stream = read_file(golden_path("golden_periodic.cliz"));
  const auto donor = read_file(golden_path("golden_masked.cliz"));
  ASSERT_FALSE(stream.empty());
  run_matrix("golden_periodic", stream, donor, kClizDecode);
}

TEST(FaultMatrix, ChunkedGoldenFrame) {
  const auto stream = read_file(golden_path("golden_chunked.clks"));
  const auto donor = read_file(golden_path("golden_plain.cliz"));
  ASSERT_FALSE(stream.empty());
  run_matrix("golden_chunked", stream, donor, kChunkedDecode);
}

// The checksum-less v1 formats are retired. A v1 fixture is refused with
// kUnsupported before anything is sized from it, and so is every damaged
// copy that keeps the retired marker (the lossless mode byte, or the CLKS
// magic): damage behind the marker is never mistaken for a corrupt stream.
TEST(FaultMatrix, V1StreamsRefusedUnderFaults) {
  struct Fixture {
    const char* file;
    std::size_t marker_bytes;
    const char* format;
  };
  for (const Fixture& fx : {Fixture{"v1_plain.cliz", 1, "lossless mode 0"},
                            Fixture{"v1_masked.cliz", 1, "lossless mode 1"},
                            Fixture{"v1_periodic.cliz", 1, "lossless mode 0"},
                            Fixture{"v1_chunked.clks", 4, "CLKS"}}) {
    const auto stream = read_file(golden_path(fx.file));
    ASSERT_GT(stream.size(), fx.marker_bytes) << fx.file;
    const auto decode = is_chunked_stream(stream) ? +kChunkedDecode
                                                  : +kClizDecode;
    auto cases = fault::truncation_cases(stream, 40);
    auto flips = fault::bit_flip_cases(stream, 80, 0xF3);
    cases.insert(cases.end(), std::make_move_iterator(flips.begin()),
                 std::make_move_iterator(flips.end()));
    cases.push_back({"pristine", stream});
    std::size_t checked = 0;
    for (const auto& f : cases) {
      if (f.bytes.size() < fx.marker_bytes ||
          !std::equal(stream.begin(),
                      stream.begin() +
                          static_cast<std::ptrdiff_t>(fx.marker_bytes),
                      f.bytes.begin())) {
        continue;  // the fault removed the retired marker itself
      }
      SCOPED_TRACE(std::string(fx.file) + " " + f.label);
      fault::expect_retired([&] { (void)decode(f.bytes); }, fx.format);
      ++checked;
    }
    EXPECT_GT(checked, cases.size() / 2) << fx.file;
  }
}

// --- archive salvage under the same fault matrix -------------------------

class FaultArchive : public ::testing::Test {
 protected:
  void SetUp() override {
    // Pid-unique path: ctest -j runs each test as its own process of this
    // binary, and parallel fixtures must not clobber each other's file.
    path_ = (std::filesystem::temp_directory_path() /
             ("cliz_fault_archive_" + std::to_string(::getpid()) + ".clza"))
                .string();
    ArchiveWriter writer(path_);
    for (int v = 0; v < 3; ++v) {
      names_.push_back("VAR" + std::to_string(v));
      NdArray<float> data(Shape({12, 10}));
      Rng rng(7100 + static_cast<std::uint64_t>(v));
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<float>(0.01 * static_cast<double>(i) +
                                     0.05 * rng.uniform());
      }
      writer.add_variable(names_.back(), data, 1e-3,
                          PipelineConfig::defaults(2));
    }
    writer.finish();
    bytes_ = read_file(path_);
    ASSERT_FALSE(bytes_.empty());
    // The reference for bit-exactness is the pristine *decode* (the codec
    // is lossy, so the input array is not the right baseline).
    ArchiveReader reference(path_);
    for (const auto& name : names_) {
      pristine_.push_back(reference.read(name));
    }
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  void write_faulted(const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.is_open());
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  std::string path_;
  std::vector<std::string> names_;
  std::vector<NdArray<float>> pristine_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(FaultArchive, EveryFaultYieldsErrorOrExactData) {
  std::vector<fault::Fault> cases = fault::bit_flip_cases(bytes_, 96, 0xA1);
  auto truncs = fault::truncation_cases(bytes_, 32);
  cases.insert(cases.end(), std::make_move_iterator(truncs.begin()),
               std::make_move_iterator(truncs.end()));
  const auto donor = read_file(golden_path("golden_plain.cliz"));
  auto splices = fault::splice_cases(bytes_, donor, 16, 0xA2);
  cases.insert(cases.end(), std::make_move_iterator(splices.begin()),
               std::make_move_iterator(splices.end()));

  for (const auto& f : cases) {
    SCOPED_TRACE("archive " + f.label);
    write_faulted(f.bytes);

    // Strict mode: open+read either throws Error or returns exact data.
    try {
      ArchiveReader reader(path_);
      for (std::size_t v = 0; v < names_.size(); ++v) {
        const auto got = reader.read(names_[v]);
        EXPECT_TRUE(bit_identical(got, pristine_[v]))
            << "strict read of " << names_[v] << " returned wrong data";
      }
    } catch (const Error&) {
    } catch (const std::bad_alloc&) {
      ADD_FAILURE() << "strict open drove an unbounded allocation";
    }

    // Tolerant mode: must never throw on byte-level damage, and every
    // variable it claims to have recovered must decode bit-exactly.
    ArchiveReader tolerant(path_, ArchiveOpenMode::kTolerant);
    for (const auto& recovered : tolerant.salvage().recovered) {
      for (std::size_t v = 0; v < names_.size(); ++v) {
        if (names_[v] != recovered) continue;
        const auto got = tolerant.read(recovered);
        EXPECT_TRUE(bit_identical(got, pristine_[v]))
            << "salvaged " << recovered << " is not bit-exact";
      }
    }
  }
}

TEST_F(FaultArchive, TolerantOpenOfPristineBytesRecoversEverything) {
  ArchiveReader tolerant(path_, ArchiveOpenMode::kTolerant);
  EXPECT_TRUE(tolerant.salvage().index_intact);
  EXPECT_EQ(tolerant.salvage().recovered.size(), names_.size());
  EXPECT_TRUE(tolerant.salvage().quarantined.empty());
}

// --- resource-limit matrix: bombs are refused before they allocate --------

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::size_t varint_end(std::span<const std::uint8_t> bytes, std::size_t pos) {
  while (pos < bytes.size() && (bytes[pos] & 0x80u) != 0) ++pos;
  return pos + 1;
}

/// Rebuilds a raw (lossless-unwrapped) CliZ header with `dims` in place of
/// the stream's own dimension list; everything after the dims is kept.
std::vector<std::uint8_t> with_spliced_dims(
    std::span<const std::uint8_t> raw,
    const std::vector<std::uint64_t>& dims) {
  // [magic u32][width u8][ndims varint][dim varints...]
  std::size_t cursor = varint_end(raw, 5);  // past ndims
  const std::size_t ndims = raw[5];         // corpus streams: 1-byte varint
  for (std::size_t d = 0; d < ndims; ++d) cursor = varint_end(raw, cursor);
  std::vector<std::uint8_t> out(raw.begin(), raw.begin() + 5);
  put_varint(out, dims.size());
  for (const std::uint64_t d : dims) put_varint(out, d);
  out.insert(out.end(), raw.begin() + static_cast<std::ptrdiff_t>(cursor),
             raw.end());
  return out;
}

TEST(FaultLimits, InflatedDimsRejectedBeforeAllocation) {
  for (const char* name :
       {"golden_plain.cliz", "golden_masked.cliz", "golden_periodic.cliz"}) {
    SCOPED_TRACE(name);
    const auto stream = read_file(golden_path(name));
    ASSERT_FALSE(stream.empty());
    const auto raw = lossless_decompress(stream);
    // 2^90 declared elements: over max_extents (2^33) by a huge margin and
    // far past anything the allocator could survive.
    const auto bomb = lossless_compress(
        with_spliced_dims(raw, {1ull << 30, 1ull << 30, 1ull << 30}));
    expect_limit_refusal(
        [&] { (void)ClizCompressor::decompress(bomb); }, bomb.size(),
        std::uint64_t{1} << 35);
    // The pristine stream still decodes under default limits.
    EXPECT_NO_THROW((void)ClizCompressor::decompress(stream));
  }
}

TEST(FaultLimits, TightenedOutputBudgetRejectsPristineStream) {
  // A served request can cap the output below the stream's true size; the
  // refusal must carry kLimitExceeded and happen before the output exists.
  const auto stream = read_file(golden_path("golden_plain.cliz"));
  ASSERT_FALSE(stream.empty());
  CodecContext ctx;
  ctx.limits.max_output_bytes = 16;
  expect_limit_refusal(
      [&] { (void)ClizCompressor::decompress(stream, ctx); }, stream.size(),
      std::uint64_t{1} << 35);
}

TEST(FaultLimits, LosslessSizeBombsRefusedBeforeAllocation) {
  // The lossless frame declares its decoded size up front, and the LZ and
  // block modes size their output from it before the CliZ header is even
  // visible. Under a 1 MiB output budget a 2^39-byte declaration must
  // be a limit refusal in the codec and in the width probe alike.
  constexpr std::uint64_t kDeclared = std::uint64_t{1} << 39;
  std::vector<std::vector<std::uint8_t>> bombs;
  {  // mode 3 (LZ + CRC): a genuine frame with its size varint inflated.
    std::vector<std::uint8_t> payload(4096);
    for (std::size_t i = 0; i < payload.size(); ++i) {
      payload[i] = static_cast<std::uint8_t>(i % 7);
    }
    const auto frame = lossless_compress(payload);
    ASSERT_EQ(frame[0], 3u);
    std::vector<std::uint8_t> bomb{3};
    put_varint(bomb, kDeclared);
    bomb.insert(bomb.end(),
                frame.begin() + static_cast<std::ptrdiff_t>(varint_end(frame, 1)),
                frame.end());
    bombs.push_back(std::move(bomb));
  }
  {  // mode 4 (blocks + CRC): the 256 KiB block count the size implies.
    std::vector<std::uint8_t> bomb{4};
    put_varint(bomb, kDeclared);
    bomb.insert(bomb.end(), 4, 0);
    put_varint(bomb, kDeclared >> 18);
    bombs.push_back(std::move(bomb));
  }
  ResourceLimits limits;
  limits.max_output_bytes = std::uint64_t{1} << 20;
  for (const auto& bomb : bombs) {
    SCOPED_TRACE("lossless mode " + std::to_string(bomb[0]));
    CodecContext ctx;
    ctx.limits = limits;
    expect_limit_refusal([&] { (void)ClizCompressor::decompress(bomb, ctx); },
                         bomb.size(), kDeclared);
    expect_limit_refusal([&] { (void)detect_sample_bytes(bomb, limits); },
                         bomb.size(), kDeclared);
  }
}

TEST(FaultLimits, ChunkedInflatedDimsAndChunkCount) {
  const auto stream = read_file(golden_path("golden_chunked.clks"));
  ASSERT_FALSE(stream.empty());
  // CLK2 header is unwrapped: [magic u32][ndims varint][dims...][n_chunks].
  std::size_t cursor = varint_end(stream, 4);  // past ndims
  const std::size_t ndims = stream[4];
  const std::size_t dims_at = cursor;
  for (std::size_t d = 0; d < ndims; ++d) cursor = varint_end(stream, cursor);
  const std::size_t chunks_at = cursor;

  {  // dims bomb: product far over max_extents
    std::vector<std::uint8_t> bomb(stream.begin(),
                                   stream.begin() + static_cast<std::ptrdiff_t>(dims_at));
    for (std::size_t d = 0; d < ndims; ++d) put_varint(bomb, 1ull << 40);
    bomb.insert(bomb.end(), stream.begin() + static_cast<std::ptrdiff_t>(cursor),
                stream.end());
    expect_limit_refusal([&] { (void)chunked_decompress(bomb); }, bomb.size(),
                         std::uint64_t{1} << 35);
  }
  {  // chunk-count bomb: 2^30 refs declared (> max_chunks 2^20), caught
     // before the ref table resizes — upstream of the header CRC check.
    std::vector<std::uint8_t> bomb(
        stream.begin(), stream.begin() + static_cast<std::ptrdiff_t>(chunks_at));
    put_varint(bomb, 1ull << 30);
    bomb.insert(bomb.end(),
                stream.begin() +
                    static_cast<std::ptrdiff_t>(varint_end(stream, chunks_at)),
                stream.end());
    expect_limit_refusal([&] { (void)chunked_decompress(bomb); }, bomb.size(),
                         (std::uint64_t{1} << 30) * sizeof(void*));
  }
  EXPECT_NO_THROW((void)chunked_decompress(stream));
}

TEST(FaultLimits, ChunkedAggregateOutputBudget) {
  // A frame sliced into chunks each below the cap must not bypass the
  // aggregate budget: the frame-level shape is checked against
  // max_output_bytes before the output array is sized.
  const auto stream = read_file(golden_path("golden_chunked.clks"));
  ASSERT_FALSE(stream.empty());
  ResourceLimits limits;
  limits.max_output_bytes = 16;  // the frame decodes to far more
  {
    ChunkedScratch scratch;
    scratch.pool.set_governor(limits, nullptr);
    expect_limit_refusal([&] { (void)chunked_decompress(stream, &scratch); },
                         stream.size(), std::uint64_t{1} << 35);
  }
  // The width probe parses the same header and honours the same budgets.
  ResourceLimits probe;
  probe.max_chunks = 0;
  expect_limit_refusal(
      [&] { (void)ChunkedReader(stream, probe).sample_bytes(); },
      stream.size(), std::uint64_t{1} << 20);
  EXPECT_NO_THROW((void)chunked_decompress(stream));
}

TEST(FaultLimits, FramedSegmentCountSplice) {
  // Inflate the declared segment count of the committed lorenzo1 framed
  // fixture: the governor must refuse before the segment table reserves.
  const auto fx = framed_fixture::lorenzo();
  const auto raw = framed_fixture::raw_framing(fx);
  ASSERT_LT(raw.layout_at, raw.framed.size());
  ASSERT_EQ(raw.framed[raw.entropy_at] & 0x80u, 0x80u);  // framed bit
  ASSERT_EQ(raw.framed[raw.layout_at], 1u);              // layout id
  ASSERT_EQ(raw.segs.size(), fx.segments);

  // > max_frame_segments (2^22)
  const auto wrapped = raw.spliced(1ull << 40, raw.segs);
  expect_limit_refusal([&] { (void)ClizCompressor::decompress(wrapped); },
                       wrapped.size(), (std::uint64_t{1} << 40));

  // Tightened per-request budget refuses even the honest stream.
  const auto& honest = fx.framed;
  CodecContext ctx;
  ctx.limits.max_frame_segments = 0;
  expect_limit_refusal([&] { (void)ClizCompressor::decompress(honest, ctx); },
                       honest.size(), std::uint64_t{1} << 22);
  EXPECT_NO_THROW((void)ClizCompressor::decompress(honest));
}

TEST(FaultLimits, RegressionSideBlockBudget) {
  // The regression predictor's coefficient block is sized by header fields;
  // a tightened side-block budget must refuse it before any tuple parses.
  NdArray<float> data(Shape({32, 32}));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(i % 31) * 0.125f;
  }
  ClizOptions reg_opts;
  reg_opts.predictor = PredictorBackend::kRegression;
  const auto stream = ClizCompressor(PipelineConfig::defaults(2), reg_opts)
                          .compress(data, 1e-3);
  CodecContext ctx;
  ctx.limits.max_side_block_bytes = 8;
  expect_limit_refusal([&] { (void)ClizCompressor::decompress(stream, ctx); },
                       stream.size(), std::uint64_t{1} << 31);
  EXPECT_NO_THROW((void)ClizCompressor::decompress(stream));
}

TEST_F(FaultArchive, ReaderLimitsRefuseBeforeAllocation) {
  // The CLZA index CRC covers the declared sizes, so hostile declarations
  // are exercised by tightening the reader's budgets over a clean archive —
  // the same code path a spliced index would hit, without fighting the CRC.
  {
    ResourceLimits limits;
    limits.max_archive_variables = 1;  // archive holds 3
    expect_limit_refusal(
        [&] { ArchiveReader r(path_, ArchiveOpenMode::kStrict, limits); },
        bytes_.size(), std::uint64_t{1} << 20);
  }
  {
    ResourceLimits limits;
    limits.max_record_bytes = 4;
    expect_limit_refusal(
        [&] { ArchiveReader r(path_, ArchiveOpenMode::kStrict, limits); },
        bytes_.size(), std::uint64_t{1} << 20);
  }
  {
    // Tolerant scan over a damaged trailer: the salvage cap bounds how many
    // records a hostile file can make the scanner accumulate, but keeps the
    // verified prefix instead of aborting the whole open.
    auto damaged = bytes_;
    ASSERT_GT(damaged.size(), 8u);
    damaged.erase(damaged.end() - 8, damaged.end());  // kill the trailer
    write_faulted(damaged);
    ResourceLimits limits;
    limits.max_salvage_records = 1;  // archive holds 3
    ArchiveReader r(path_, ArchiveOpenMode::kTolerant, limits);
    EXPECT_FALSE(r.salvage().index_intact);
    ASSERT_EQ(r.salvage().recovered.size(), 1u);
    EXPECT_TRUE(r.salvage().truncated);
    EXPECT_NE(r.salvage().to_text().find("truncated"), std::string::npos);
    EXPECT_TRUE(bit_identical(r.read(r.salvage().recovered.front()),
                              pristine_.front()));
  }
}

TEST_F(FaultArchive, DefaultLimitsReadEverything) {
  ArchiveReader reader(path_, ArchiveOpenMode::kStrict, ResourceLimits{});
  for (std::size_t v = 0; v < names_.size(); ++v) {
    EXPECT_TRUE(bit_identical(reader.read(names_[v]), pristine_[v]));
  }
}

}  // namespace
}  // namespace cliz
