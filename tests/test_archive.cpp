#include "src/io/archive.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <utility>

#include "src/climate/datasets.hpp"
#include "src/common/bytestream.hpp"
#include "src/common/crc32c.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/baselines/compressor.hpp"
#include "src/core/chunked.hpp"
#include "src/core/cliz.hpp"
#include "src/metrics/metrics.hpp"
#include "tests/alloc_guard.hpp"
#include "tests/fault_injection.hpp"
#include "tests/foreign_archive.hpp"

namespace cliz {
namespace {

/// Temp file path helper with automatic cleanup.
class TempFile {
 public:
  explicit TempFile(const std::string& stem) {
    path_ = (std::filesystem::temp_directory_path() /
             ("cliz_test_" + stem + ".clza"))
                .string();
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
};

template <typename T = float>
NdArray<T> smooth_array(const DimVec& dims, std::uint64_t seed) {
  const Shape shape(dims);
  NdArray<T> a(shape);
  Rng rng(seed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto c = shape.coords(i);
    double v = 0.0;
    for (std::size_t d = 0; d < c.size(); ++d) {
      v += std::sin(0.1 * static_cast<double>(c[d]));
    }
    a[i] = static_cast<T>(v + 0.01 * rng.normal());
  }
  return a;
}

TEST(Archive, SingleVariableRoundTrip) {
  TempFile file("single");
  const auto data = smooth_array({12, 10, 14}, 1);
  {
    ArchiveWriter w(file.path());
    w.add_variable("TEMP", data, 1e-3, PipelineConfig::defaults(3), nullptr,
                   {{"units", "K"}, {"model", "atm"}});
    w.finish();
  }
  ArchiveReader r(file.path());
  ASSERT_EQ(r.variables().size(), 1u);
  const auto& info = r.info("TEMP");
  EXPECT_EQ(info.codec, "cliz");
  EXPECT_EQ(info.dims, (DimVec{12, 10, 14}));
  EXPECT_EQ(info.error_bound, 1e-3);
  EXPECT_EQ(info.attributes.at("units"), "K");

  const auto recon = r.read("TEMP");
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-3);
}

/// The ErrorCode a call refuses with; fails the test if it succeeds.
template <typename Fn>
ErrorCode refusal_code(const Fn& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "call was accepted";
  return ErrorCode::kCorruptStream;
}

TEST(Archive, MultipleVariablesMixedCodecs) {
  // Archives from releases that stored baseline codecs stay listable and
  // their CliZ variables readable; each foreign record is refused as
  // unsupported by every decoding read, while its raw bytes still copy out.
  TempFile file("mixed");
  const auto a = smooth_array({20, 20}, 2);
  const auto b = smooth_array({8, 10, 12}, 3);
  const auto c = smooth_array({64}, 4);
  const auto rho = make_compressor("zfp")->compress(b, 1e-3);
  test::write_archive(
      file.path(),
      {{"SALT", "cliz", a.shape().dims(),
        ClizCompressor(PipelineConfig::defaults(2)).compress(a, 1e-2), 1e-2},
       {"RHO", "zfp", b.shape().dims(), rho},
       {"SHF", "sperr", c.shape().dims(),
        make_compressor("sperr")->compress(c, 1e-4), 1e-4}});
  ArchiveReader r(file.path());
  ASSERT_EQ(r.variables().size(), 3u);
  EXPECT_TRUE(r.contains("SALT"));
  EXPECT_TRUE(r.contains("RHO"));
  EXPECT_FALSE(r.contains("TEMP"));
  EXPECT_EQ(r.info("RHO").codec, "zfp");
  EXPECT_LE(error_stats(a.flat(), r.read("SALT").flat()).max_abs_error, 1e-2);
  for (const std::string name : {"RHO", "SHF"}) {
    SCOPED_TRACE(name);
    const DimVec& dims = r.info(name).dims;
    const DimVec origin(dims.size(), 0);
    const DimVec extent(dims.size(), 1);
    EXPECT_EQ(refusal_code([&] { (void)r.read(name); }),
              ErrorCode::kUnsupported);
    EXPECT_EQ(refusal_code([&] { (void)r.read<double>(name); }),
              ErrorCode::kUnsupported);
    EXPECT_EQ(refusal_code([&] { (void)r.read_region(name, origin, extent); }),
              ErrorCode::kUnsupported);
  }
  EXPECT_EQ(r.read_raw("RHO"), rho);
}

TEST(Archive, MaskedClimateFieldRoundTrip) {
  TempFile file("masked");
  const auto field = make_ssh(0.1, 800);
  PipelineConfig config = PipelineConfig::defaults(3);
  config.period = 12;
  {
    ArchiveWriter w(file.path());
    w.add_variable("SSH", field.data, 1e-3, config, field.mask_ptr(),
                   {{"units", "m"}});
  }
  ArchiveReader r(file.path());
  const auto recon = r.read("SSH");
  const auto stats =
      error_stats(field.data.flat(), recon.flat(), field.mask_ptr());
  EXPECT_LE(stats.max_abs_error, 1e-3);
  // Masked positions carry the fill value.
  for (std::size_t i = 0; i < recon.size(); ++i) {
    if (!field.mask->valid(i)) {
      EXPECT_EQ(recon[i], 9.96921e36f);
    }
  }
}

TEST(Archive, RandomAccessDoesNotTouchOtherVariables) {
  TempFile file("random_access");
  std::vector<NdArray<float>> arrays;
  {
    ArchiveWriter w(file.path());
    for (int i = 0; i < 5; ++i) {
      arrays.push_back(smooth_array({16, 16}, 100 + i));
      w.add_variable("VAR" + std::to_string(i), arrays.back(), 1e-3,
                     PipelineConfig::defaults(2));
    }
  }
  ArchiveReader r(file.path());
  // Read in reverse order.
  for (int i = 4; i >= 0; --i) {
    const auto recon = r.read("VAR" + std::to_string(i));
    EXPECT_LE(error_stats(arrays[static_cast<std::size_t>(i)].flat(),
                          recon.flat())
                  .max_abs_error,
              1e-3)
        << i;
  }
}

TEST(Archive, ReadRawMatchesDirectDecompression) {
  TempFile file("raw");
  const auto data = smooth_array({24, 24}, 5);
  {
    ArchiveWriter w(file.path());
    w.add_variable("Q", data, 1e-3, PipelineConfig::defaults(2));
  }
  ArchiveReader r(file.path());
  const auto raw = r.read_raw("Q");
  EXPECT_EQ(raw.size(), r.info("Q").compressed_bytes);
  const auto recon = ClizCompressor::decompress(raw);
  EXPECT_LE(error_stats(data.flat(), recon.flat()).max_abs_error, 1e-3);
}

TEST(Archive, Float64VariableRoundTrip) {
  TempFile file("f64");
  const Shape shape({10, 12});
  NdArray<double> data(shape);
  Rng rng(55);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 1.0 + 1e-10 * rng.normal();
  }
  const double eb = 1e-11;  // far below float32 resolution
  {
    ArchiveWriter w(file.path());
    w.add_variable("PRECISE", data, eb, PipelineConfig::defaults(2), nullptr,
                   {{"units", "m"}});
  }
  ArchiveReader r(file.path());
  EXPECT_EQ(r.info("PRECISE").sample_bytes, 8u);
  const auto recon = r.read<double>("PRECISE");
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_LE(std::abs(recon[i] - data[i]), eb);
  }
  // The wrong-typed reads must refuse, full and region alike, as a bad
  // argument: the stored bytes are fine.
  EXPECT_EQ(refusal_code([&] { (void)r.read("PRECISE"); }),
            ErrorCode::kBadArgument);
  EXPECT_EQ(refusal_code([&] {
              (void)r.read_region("PRECISE", DimVec{0, 0}, DimVec{2, 2});
            }),
            ErrorCode::kBadArgument);
}

TEST(Archive, Float32ReadRefusedByF64Reader) {
  TempFile file("f32_as_f64");
  {
    ArchiveWriter w(file.path());
    w.add_variable("X", smooth_array({8, 8}, 56), 1e-3,
                   PipelineConfig::defaults(2));
  }
  ArchiveReader r(file.path());
  EXPECT_EQ(r.info("X").sample_bytes, 4u);
  EXPECT_EQ(refusal_code([&] { (void)r.read<double>("X"); }),
            ErrorCode::kBadArgument);
  EXPECT_EQ(refusal_code([&] {
              (void)r.read_region<double>("X", DimVec{0, 0}, DimVec{2, 2});
            }),
            ErrorCode::kBadArgument);
}

TEST(Archive, DuplicateNameRejected) {
  TempFile file("dup");
  const auto data = smooth_array({8, 8}, 6);
  ArchiveWriter w(file.path());
  w.add_variable("X", data, 1e-3, PipelineConfig::defaults(2));
  EXPECT_THROW(w.add_variable("X", data, 1e-3, PipelineConfig::defaults(2)),
               Error);
}

TEST(Archive, UnknownVariableThrows) {
  TempFile file("unknown");
  {
    ArchiveWriter w(file.path());
    w.add_variable("X", smooth_array({8, 8}, 7), 1e-3,
                   PipelineConfig::defaults(2));
  }
  ArchiveReader r(file.path());
  EXPECT_THROW((void)r.read("Y"), Error);
  EXPECT_THROW((void)r.info("Y"), Error);
}

TEST(Archive, EveryWrittenRecordIsCliz) {
  // The writer has no codec choice: single, chunked, tiled and float64
  // variables all record "cliz".
  TempFile file("allcliz");
  {
    ArchiveWriter w(file.path());
    w.add_variable("S", smooth_array({8, 8}, 8), 1e-3,
                   PipelineConfig::defaults(2));
    w.set_chunk_threshold(8 * 8 * sizeof(float) / 4);  // 4 slabs
    w.add_variable("C", smooth_array({8, 8}, 9), 1e-3,
                   PipelineConfig::defaults(2));
    w.add_variable("D", smooth_array<double>({8, 8}, 10), 1e-3,
                   PipelineConfig::defaults(2));
    w.set_tile({4, 4});
    w.add_variable("T", smooth_array({8, 8}, 11), 1e-3,
                   PipelineConfig::defaults(2));
  }
  ArchiveReader r(file.path());
  ASSERT_EQ(r.variables().size(), 4u);
  for (const auto& v : r.variables()) EXPECT_EQ(v.codec, "cliz") << v.name;
}

TEST(Archive, MissingFileThrows) {
  EXPECT_THROW(ArchiveReader("/nonexistent/path.clza"), Error);
}

TEST(Archive, TruncatedArchiveRejected) {
  TempFile file("trunc");
  {
    ArchiveWriter w(file.path());
    w.add_variable("X", smooth_array({16, 16}, 9), 1e-3,
                   PipelineConfig::defaults(2));
  }
  // Chop off the trailer.
  const auto size = std::filesystem::file_size(file.path());
  std::filesystem::resize_file(file.path(), size - 6);
  EXPECT_THROW(ArchiveReader{file.path()}, Error);
}

TEST(Archive, GarbageFileRejected) {
  TempFile file("garbage");
  {
    std::ofstream out(file.path(), std::ios::binary);
    for (int i = 0; i < 256; ++i) out.put(static_cast<char>(i * 37));
  }
  EXPECT_THROW(ArchiveReader{file.path()}, Error);
}

TEST(Archive, EmptyArchiveIsValid) {
  TempFile file("empty");
  { ArchiveWriter w(file.path()); }
  ArchiveReader r(file.path());
  EXPECT_TRUE(r.variables().empty());
}

TEST(Archive, FinishIsIdempotent) {
  TempFile file("idem");
  ArchiveWriter w(file.path());
  w.add_variable("X", smooth_array({8, 8}, 10), 1e-3,
                 PipelineConfig::defaults(2));
  w.finish();
  w.finish();  // no-op
  ArchiveReader r(file.path());
  EXPECT_EQ(r.variables().size(), 1u);
}

TEST(Archive, AddAfterFinishRejected) {
  TempFile file("late");
  ArchiveWriter w(file.path());
  w.finish();
  EXPECT_THROW(w.add_variable("X", smooth_array({8, 8}, 11), 1e-3,
                              PipelineConfig::defaults(2)),
               Error);
}

// --- integrity and salvage ----------------------------------------------

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Archive, ThreadCountDoesNotChangeBytes) {
  // The slab count of a default chunked frame and of an archive's chunked
  // variable follows the data size, never the worker-thread count.
  const auto data = smooth_array({24, 16, 12}, 90);
  const int saved = hardware_threads();
  const auto write = [&](int threads) {
    set_thread_count(threads);
    const auto frame =
        chunked_compress(data, 1e-3, PipelineConfig::defaults(3));
    TempFile file("threads" + std::to_string(threads));
    {
      ArchiveWriter w(file.path());
      w.set_chunk_threshold(data.size() * sizeof(float) / 2);  // 2 slabs
      w.add_variable("V", data, 1e-3, PipelineConfig::defaults(3));
    }
    return std::make_pair(frame, slurp(file.path()));
  };
  const auto one = write(1);
  const auto three = write(3);
  set_thread_count(saved);
  EXPECT_EQ(one.first, three.first) << "chunked_compress default slabs";
  EXPECT_EQ(one.second, three.second) << "archive chunked variable";
}

void dump(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Writes a three-variable archive and returns the pristine decodes.
std::vector<NdArray<float>> write_test_archive(const std::string& path) {
  std::vector<NdArray<float>> arrays;
  ArchiveWriter w(path);
  for (int i = 0; i < 3; ++i) {
    arrays.push_back(smooth_array({12, 10}, 900 + i));
    w.add_variable("VAR" + std::to_string(i), arrays.back(), 1e-3,
                   PipelineConfig::defaults(2));
  }
  w.finish();
  return arrays;
}

TEST(Archive, TolerantOpenOfCleanArchiveReportsIntactIndex) {
  TempFile file("clean_tolerant");
  write_test_archive(file.path());
  ArchiveReader r(file.path(), ArchiveOpenMode::kTolerant);
  EXPECT_TRUE(r.salvage().index_intact);
  EXPECT_EQ(r.salvage().recovered.size(), 3u);
  EXPECT_TRUE(r.salvage().quarantined.empty());
  EXPECT_NE(r.salvage().to_text().find("VAR1"), std::string::npos);
}

TEST(Archive, SalvageRecoversAllVariablesFromCorruptTrailer) {
  TempFile file("salvage_trailer");
  const auto arrays = write_test_archive(file.path());

  // Smash the trailer: strict open must refuse, tolerant open must rebuild
  // the listing from the record frames alone, bit-exact.
  auto bytes = slurp(file.path());
  for (std::size_t i = bytes.size() - 12; i < bytes.size(); ++i) {
    bytes[i] ^= 0xFF;
  }
  dump(file.path(), bytes);

  EXPECT_THROW(ArchiveReader{file.path()}, Error);
  ArchiveReader r(file.path(), ArchiveOpenMode::kTolerant);
  EXPECT_FALSE(r.salvage().index_intact);
  ASSERT_EQ(r.salvage().recovered.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const auto name = "VAR" + std::to_string(i);
    EXPECT_TRUE(r.contains(name));
    const auto recon = r.read(name);
    EXPECT_LE(error_stats(arrays[static_cast<std::size_t>(i)].flat(),
                          recon.flat())
                  .max_abs_error,
              1e-3);
  }
}

TEST(Archive, SalvageRecoversPrefixOfTruncatedArchive) {
  TempFile file("salvage_trunc");
  write_test_archive(file.path());
  // Cut the file roughly mid-way: the tail records and the index are gone.
  const auto size = std::filesystem::file_size(file.path());
  std::filesystem::resize_file(file.path(), size / 2);

  EXPECT_THROW(ArchiveReader{file.path()}, Error);
  ArchiveReader r(file.path(), ArchiveOpenMode::kTolerant);
  EXPECT_FALSE(r.salvage().index_intact);
  EXPECT_LT(r.salvage().recovered.size(), 3u);
  for (const auto& name : r.salvage().recovered) {
    EXPECT_NO_THROW((void)r.read(name));  // everything listed must decode
  }
}

TEST(Archive, CorruptPayloadCaughtStrictAndQuarantinedTolerant) {
  TempFile file("payload_flip");
  const auto arrays = write_test_archive(file.path());

  // Locate VAR1's payload in the file via its pristine raw stream and flip
  // one byte in the middle of it.
  std::vector<std::uint8_t> target;
  {
    ArchiveReader pristine(file.path());
    target = pristine.read_raw("VAR1");
  }
  auto bytes = slurp(file.path());
  const auto it = std::search(bytes.begin(), bytes.end(), target.begin(),
                              target.end());
  ASSERT_NE(it, bytes.end());
  *(it + static_cast<std::ptrdiff_t>(target.size() / 2)) ^= 0x10;
  dump(file.path(), bytes);

  // Strict open still works (the index is fine) but the damaged variable
  // is refused at read time by its payload CRC.
  ArchiveReader strict(file.path());
  EXPECT_THROW((void)strict.read("VAR1"), Error);
  EXPECT_NO_THROW((void)strict.read("VAR0"));

  // Tolerant open quarantines it up front and vouches for the rest.
  ArchiveReader r(file.path(), ArchiveOpenMode::kTolerant);
  EXPECT_FALSE(r.contains("VAR1"));
  ASSERT_EQ(r.salvage().quarantined.size(), 1u);
  EXPECT_EQ(r.salvage().quarantined[0].name, "VAR1");
  for (const auto& name : {"VAR0", "VAR2"}) {
    const int i = name[3] - '0';
    const auto recon = r.read(name);
    EXPECT_LE(error_stats(arrays[static_cast<std::size_t>(i)].flat(),
                          recon.flat())
                  .max_abs_error,
              1e-3);
  }
}

TEST(Archive, SalvageOfGarbageFileRecoversNothing) {
  TempFile file("salvage_garbage");
  {
    std::ofstream out(file.path(), std::ios::binary);
    for (int i = 0; i < 4096; ++i) out.put(static_cast<char>(i * 37));
  }
  ArchiveReader r(file.path(), ArchiveOpenMode::kTolerant);
  EXPECT_FALSE(r.salvage().index_intact);
  EXPECT_TRUE(r.salvage().recovered.empty());
  EXPECT_TRUE(r.variables().empty());
}

// --- retired v1 archives -------------------------------------------------

TEST(Archive, V1ArchiveRefused) {
  TempFile file("v1_compat");
  std::vector<test::ArchiveRecord> records;
  for (const auto& [name, data] :
       {std::pair{"A", smooth_array({10, 12}, 77)},
        std::pair{"B", smooth_array({6, 8, 10}, 78)}}) {
    records.push_back(
        {name, "cliz", data.shape().dims(),
         ClizCompressor(PipelineConfig::defaults(data.shape().ndims()))
             .compress(data, 1e-3)});
  }
  test::write_v1_archive(file.path(), records);
  const auto pristine = slurp(file.path());

  // The checksum-less layout is retired. Tolerant mode refuses it too:
  // kUnsupported is not damage, so it never falls through to a record scan.
  // Damage anywhere behind the version field changes nothing.
  std::vector<std::pair<std::string, std::vector<std::uint8_t>>> cases{
      {"pristine", pristine}};
  auto bad_trailer = pristine;
  bad_trailer[bad_trailer.size() - 1] ^= 0x40;
  cases.emplace_back("bad trailer magic", bad_trailer);
  auto bad_index = pristine;
  bad_index[bad_index.size() - 13] ^= 0x01;
  cases.emplace_back("index byte flipped", bad_index);
  auto bad_offset = pristine;
  bad_offset[bad_offset.size() - 12] ^= 0x80;
  cases.emplace_back("index offset flipped", bad_offset);
  for (const auto& [label, bytes] : cases) {
    SCOPED_TRACE(label);
    dump(file.path(), bytes);
    for (const auto mode :
         {ArchiveOpenMode::kStrict, ArchiveOpenMode::kTolerant}) {
      fault::expect_retired([&] { ArchiveReader r(file.path(), mode); },
                            "CLZA version 1");
    }
  }
}

TEST(Archive, HostileIndexCountRejectedBeforeAllocation) {
  TempFile file("hostile_count");
  write_test_archive(file.path());
  auto bytes = slurp(file.path());
  // Read the genuine index offset from the trailer, then replace the
  // index with a tiny block claiming 2^50 variables.
  std::uint64_t index_offset = 0;
  std::memcpy(&index_offset, bytes.data() + bytes.size() - 12, 8);
  bytes.resize(static_cast<std::size_t>(index_offset));
  // Give the bogus index a *valid* CRC so the count check itself is what
  // trips, not the checksum.
  ByteWriter fake;
  fake.put_varint(std::uint64_t{1} << 50);
  fake.put(crc32c(fake.bytes()));
  for (const std::uint8_t byte : fake.bytes()) bytes.push_back(byte);
  ByteWriter trailer;
  trailer.put(index_offset);
  trailer.put(std::uint32_t{0x434C5A41u});
  for (const std::uint8_t byte : trailer.bytes()) bytes.push_back(byte);
  dump(file.path(), bytes);
  EXPECT_THROW(ArchiveReader{file.path()}, Error);
}

// --- tile-addressable region reads --------------------------------------

/// Asserts `win` (row-major over `ext`) equals the window [lo, lo+ext) of
/// `full`, bit for bit.
template <typename T>
void expect_window_equal(const NdArray<T>& full, const DimVec& lo,
                         const DimVec& ext, const NdArray<T>& win) {
  const Shape wshape{DimVec(ext)};
  ASSERT_EQ(win.shape(), wshape);
  for (std::size_t i = 0; i < wshape.size(); ++i) {
    DimVec g = wshape.coords(i);
    for (std::size_t d = 0; d < g.size(); ++d) g[d] += lo[d];
    ASSERT_EQ(std::memcmp(&win[i], &full[full.shape().offset(g)], sizeof(T)),
              0)
        << "window mismatch at linear " << i;
  }
}

/// Writes one variable of every region-read kind: "TEMP" (float32, CLK3
/// tiles), "Z" (float64, CLK3 tiles), "S" (single CliZ stream) and "SLAB"
/// (dim-0 slab frame).
void write_mixed_region_archive(const std::string& path) {
  ArchiveWriter w(path);
  w.set_tile({8, 10, 8});  // binds the rank-3 variables only
  w.add_variable("TEMP", smooth_array({24, 20, 16}, 60), 1e-3,
                 PipelineConfig::defaults(3));
  w.add_variable("Z", smooth_array<double>({16, 12, 10}, 69), 1e-3,
                 PipelineConfig::defaults(3));
  w.add_variable("S", smooth_array({10, 8}, 70), 1e-3,
                 PipelineConfig::defaults(2));
  w.set_chunk_threshold(40 * 12 * sizeof(float) / 4);  // 4 slabs
  w.add_variable("SLAB", smooth_array({40, 12}, 71), 1e-3,
                 PipelineConfig::defaults(2));
  w.finish();
}

TEST(ArchiveRegion, TiledVariableWindowMatchesFullRead) {
  TempFile file("region_tiled");
  write_mixed_region_archive(file.path());
  ArchiveReader r(file.path());
  {
    const DimVec lo{9, 2, 1};
    const DimVec ext{8, 11, 9};
    RegionStats rs;
    const auto win = r.read_region("TEMP", lo, ext, nullptr, &rs);
    expect_window_equal(r.read("TEMP"), lo, ext, win);
    // The window must cost a strict subset of the frame, and the reader
    // must have decoded only intersecting tiles.
    EXPECT_GT(rs.tiles_total, rs.tiles_intersecting);
    EXPECT_EQ(rs.tiles_decoded, rs.tiles_intersecting);
    EXPECT_LT(rs.compressed_bytes_touched, rs.frame_compressed_bytes);
  }

  // Interleaved windows over every variable kind on the same reader, mixed
  // with full reads, must all match a fresh reader's full decode.
  ArchiveReader fresh(file.path());
  const auto temp = fresh.read("TEMP");
  const auto z = fresh.read<double>("Z");
  const auto small = fresh.read("S");
  const auto slab = fresh.read("SLAB");
  for (int round = 0; round < 2; ++round) {
    const std::size_t k = static_cast<std::size_t>(round);
    expect_window_equal(temp, {k, 3, 2}, {20, 9, 7},
                        r.read_region("TEMP", DimVec{k, 3, 2},
                                      DimVec{20, 9, 7}));
    expect_window_equal(z, {2, k, 5}, {6, 11, 5},
                        r.read_region<double>("Z", DimVec{2, k, 5},
                                          DimVec{6, 11, 5}));
    expect_window_equal(slab, {7 + k, 1}, {25, 10},
                        r.read_region("SLAB", DimVec{7 + k, 1},
                                      DimVec{25, 10}));
    expect_window_equal(small, {1, k}, {6, 7},
                        r.read_region("S", DimVec{1, k}, DimVec{6, 7}));
    expect_window_equal(slab, {0, 0}, {40, 12}, r.read("SLAB"));
    expect_window_equal(z, {0, 0, 0}, {16, 12, 10}, r.read<double>("Z"));
    expect_window_equal(temp, {16, 19, 15}, {8, 1, 1},
                        r.read_region("TEMP", DimVec{16, 19, 15},
                                      DimVec{8, 1, 1}));
  }
}

TEST(ArchiveRegion, WarmTileCacheServesWindowWithZeroDecodes) {
  TempFile file("region_cache");
  const auto data = smooth_array({24, 20, 16}, 61);
  {
    ArchiveWriter w(file.path());
    w.set_tile({8, 10, 8});
    w.add_variable("TEMP", data, 1e-3, PipelineConfig::defaults(3));
    w.finish();
  }
  ArchiveReader r(file.path());
  TileCache cache;
  const DimVec lo{5, 3, 2};
  const DimVec ext{10, 9, 8};
  RegionStats cold, warm;
  const auto a = r.read_region("TEMP", lo, ext, &cache, &cold);
  const auto b = r.read_region("TEMP", lo, ext, &cache, &warm);
  EXPECT_GT(cold.tiles_decoded, 0u);
  EXPECT_EQ(cold.tiles_from_cache, 0u);
  EXPECT_EQ(warm.tiles_decoded, 0u);
  EXPECT_EQ(warm.tiles_from_cache, warm.tiles_intersecting);
  EXPECT_EQ(cache.stats().hits, warm.tiles_from_cache);
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(float)), 0);
}

TEST(ArchiveRegion, SameVariableBytesShareCacheAcrossPaths) {
  TempFile file_a("region_copy_a");
  TempFile file_b("region_copy_b");
  const auto data = smooth_array({24, 20, 16}, 66);
  {
    ArchiveWriter w(file_a.path());
    w.set_tile({8, 10, 8});
    w.add_variable("TEMP", data, 1e-3, PipelineConfig::defaults(3));
    w.finish();
  }
  std::filesystem::copy_file(
      file_a.path(), file_b.path(),
      std::filesystem::copy_options::overwrite_existing);
  // The cache keys on frame content, so the copy's tiles are the same
  // entries whichever path they are read through.
  TileCache cache;
  const DimVec lo{5, 3, 2};
  const DimVec ext{10, 9, 8};
  ArchiveReader a(file_a.path());
  ArchiveReader b(file_b.path());
  RegionStats first, second;
  const auto wa = a.read_region("TEMP", lo, ext, &cache, &first);
  const auto wb = b.read_region("TEMP", lo, ext, &cache, &second);
  EXPECT_GT(first.tiles_decoded, 0u);
  EXPECT_EQ(second.tiles_decoded, 0u);
  EXPECT_EQ(second.tiles_from_cache, second.tiles_intersecting);
  EXPECT_EQ(std::memcmp(wa.data(), wb.data(), wa.size() * sizeof(float)), 0);
}

TEST(Archive, RepeatedFullReadReusesDecodeScratch) {
  TempFile file("read_scratch");
  const auto data = smooth_array({48, 32, 32}, 67);
  {
    ArchiveWriter w(file.path());
    w.set_chunk_threshold(data.size() * sizeof(float) / 4);  // 4 slabs
    w.add_variable("SLAB", data, 1e-3, PipelineConfig::defaults(3));
    w.finish();
  }
  ArchiveReader r(file.path());
  struct Cost {
    std::size_t count;
    std::size_t bytes;
  };
  const auto measure = [&] {
    const std::size_t count = g_alloc_count.load(std::memory_order_relaxed);
    const std::size_t bytes = g_alloc_bytes.load(std::memory_order_relaxed);
    const auto out = r.read("SLAB");
    const Cost cost{g_alloc_count.load(std::memory_order_relaxed) - count,
                    g_alloc_bytes.load(std::memory_order_relaxed) - bytes};
    EXPECT_LE(error_stats(data.flat(), out.flat()).max_abs_error, 1e-3);
    return cost;
  };
  // The second read decodes through the contexts the first one sized; what
  // is left is the record, the output array and per-chunk incidentals.
  // Absolute bounds on the warm read test the reuse itself, whatever the
  // cold read costs. Measured on x86-64 Linux (gcc 12, 1 to 4 threads) at
  // 34 allocations and 197,648 B: the 196,608 B output array plus 1,040 B.
  const std::size_t out_bytes = data.size() * sizeof(float);
  (void)measure();
  const Cost warm = measure();
  EXPECT_LE(warm.count, 34u) << "warm=" << warm.count;
  EXPECT_LE(warm.bytes, out_bytes + 1040) << "warm=" << warm.bytes << "B";
}

TEST(ArchiveRegion, CacheKeysAreNamespacedPerVariable) {
  TempFile file("region_ns");
  const auto a = smooth_array({12, 10}, 62);
  const auto b = smooth_array({12, 10}, 63);
  {
    ArchiveWriter w(file.path());
    w.set_tile({6, 5});
    w.add_variable("A", a, 1e-3, PipelineConfig::defaults(2));
    w.add_variable("B", b, 1e-3, PipelineConfig::defaults(2));
    w.finish();
  }
  ArchiveReader r(file.path());
  TileCache cache;
  const DimVec lo{0, 0};
  const DimVec ext{6, 5};
  RegionStats rs;
  (void)r.read_region("A", lo, ext, &cache, nullptr);
  // Same tile index for variable B: must miss A's entries and decode.
  const auto win = r.read_region("B", lo, ext, &cache, &rs);
  EXPECT_EQ(rs.tiles_from_cache, 0u);
  EXPECT_EQ(rs.tiles_decoded, 1u);
  expect_window_equal(r.read("B"), lo, ext, win);
}

TEST(ArchiveRegion, Float64WindowAndWidthChecks) {
  TempFile file("region_f64");
  const Shape shape{DimVec{16, 12, 10}};
  NdArray<double> data{Shape{DimVec{16, 12, 10}}};
  Rng rng(64);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const auto c = shape.coords(i);
    data[i] = std::sin(0.1 * static_cast<double>(c[0] + c[1] + c[2])) +
              0.01 * rng.normal();
  }
  {
    ArchiveWriter w(file.path());
    w.set_tile({6, 5, 5});
    w.add_variable("Z", data, 1e-3, PipelineConfig::defaults(3));
    w.finish();
  }
  ArchiveReader r(file.path());
  const DimVec lo{3, 4, 2};
  const DimVec ext{9, 6, 7};
  const auto win = r.read_region<double>("Z", lo, ext);
  expect_window_equal(r.read<double>("Z"), lo, ext, win);
  // The float32 entry point must refuse a float64 variable, not garble it.
  try {
    (void)r.read_region("Z", lo, ext);
    FAIL() << "width mismatch accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kBadArgument);
  }
}

TEST(ArchiveRegion, NonChunkedVariableFallsBackToFullDecodeCrop) {
  TempFile file("region_small");
  const auto data = smooth_array({10, 8}, 65);  // far below chunk threshold
  {
    ArchiveWriter w(file.path());
    w.add_variable("S", data, 1e-3, PipelineConfig::defaults(2));
    w.finish();
  }
  ArchiveReader r(file.path());
  const DimVec lo{2, 3};
  const DimVec ext{5, 4};
  RegionStats rs;
  const auto win = r.read_region("S", lo, ext, nullptr, &rs);
  expect_window_equal(r.read("S"), lo, ext, win);
  // Fallback decodes the whole (single-record) frame.
  EXPECT_EQ(rs.tiles_total, 1u);
  EXPECT_EQ(rs.compressed_bytes_touched, rs.frame_compressed_bytes);
}

TEST(ArchiveRegion, SetTileBindsOnlyRankMatchingVariables) {
  TempFile file("region_rank");
  const auto v3 = smooth_array({12, 10, 8}, 66);
  const auto v2 = smooth_array({20, 20}, 67);
  {
    ArchiveWriter w(file.path());
    w.set_tile({6, 5, 4});  // rank 3: binds v3, leaves v2 alone
    w.add_variable("V3", v3, 1e-3, PipelineConfig::defaults(3));
    w.add_variable("V2", v2, 1e-3, PipelineConfig::defaults(2));
    w.finish();
  }
  ArchiveReader r(file.path());
  RegionStats rs3, rs2;
  const DimVec lo3{1, 1, 1}, ext3{4, 4, 3};
  const DimVec lo2{2, 2}, ext2{6, 6};
  expect_window_equal(r.read("V3"), lo3, ext3,
                      r.read_region("V3", lo3, ext3, nullptr, &rs3));
  expect_window_equal(r.read("V2"), lo2, ext2,
                      r.read_region("V2", lo2, ext2, nullptr, &rs2));
  EXPECT_EQ(rs3.tiles_total, 2u * 2u * 2u);  // tiled layout
  EXPECT_EQ(rs2.tiles_total, 1u);            // plain frame fallback
}

TEST(ArchiveRegion, BadRegionsAndCodecsAreRejected) {
  TempFile file("region_bad");
  const auto data = smooth_array({12, 10}, 68);
  ChunkedOptions tiled;
  tiled.tile = {6, 5};
  test::write_archive(
      file.path(),
      {{"A", "cliz", data.shape().dims(),
        chunked_compress(data, 1e-3, PipelineConfig::defaults(2), nullptr,
                         tiled)},
       {"blob", "sz3", data.shape().dims(),
        make_compressor("sz3")->compress(data, 1e-3)}});
  ArchiveReader r(file.path());
  const auto code_of = [&](const std::string& name, const DimVec& lo,
                           const DimVec& ext) {
    try {
      (void)r.read_region(name, lo, ext);
      return static_cast<int>(-1);
    } catch (const Error& e) {
      return static_cast<int>(e.code());
    }
  };
  // Out of bounds, arity mismatch, non-CliZ codec, unknown variable.
  EXPECT_EQ(code_of("A", {10, 0}, {4, 4}),
            static_cast<int>(ErrorCode::kBadArgument));
  EXPECT_EQ(code_of("A", {0}, {4}),
            static_cast<int>(ErrorCode::kBadArgument));
  EXPECT_EQ(code_of("blob", {0, 0}, {2, 2}),
            static_cast<int>(ErrorCode::kUnsupported));
  EXPECT_NE(code_of("nope", {0, 0}, {1, 1}), -1);
}

/// The refusal of one read_region call, as (code, message).
std::pair<ErrorCode, std::string> region_refusal(const ArchiveReader& r,
                                                 const std::string& name,
                                                 const DimVec& lo,
                                                 const DimVec& ext) {
  try {
    (void)r.read_region(name, lo, ext);
  } catch (const Error& e) {
    return {e.code(), e.what()};
  }
  ADD_FAILURE() << "read_region of '" << name << "' was accepted";
  return {ErrorCode::kBadArgument, ""};
}

TEST(ArchiveRegion, GovernorAndCancelApplyToKeptView) {
  TempFile file("region_governed");
  write_mixed_region_archive(file.path());
  // Budget of one 8x10x8 tile: every tile decode fits, larger windows not.
  ResourceLimits limits;
  limits.max_output_bytes = 8 * 10 * 8 * sizeof(float);
  CancelToken cancel;
  ArchiveReader r(file.path(), ArchiveOpenMode::kStrict, limits, &cancel);
  ArchiveReader fresh(file.path());
  const auto temp = fresh.read("TEMP");

  const DimVec lo{3, 5, 7};
  const DimVec small{4, 4, 4};
  expect_window_equal(temp, lo, small, r.read_region("TEMP", lo, small));
  // The over-budget window is refused before its output array exists.
  const DimVec over{8, 10, 9};
  expect_limit_refusal([&] { (void)r.read_region("TEMP", lo, over); },
                       std::size_t{0}, 8 * 10 * 9 * sizeof(float));
  // The refusal is per call: the kept view still serves a window in budget.
  expect_window_equal(temp, lo, small, r.read_region("TEMP", lo, small));
  cancel.cancel();
  EXPECT_EQ(region_refusal(r, "TEMP", lo, small).first,
            ErrorCode::kCancelled);
}

TEST(ArchiveRegion, CorruptTileIndexRefusedOnEveryCall) {
  TempFile file("region_bad_index");
  {
    ArchiveWriter w(file.path());
    w.set_tile({6, 5});
    w.add_variable("A", smooth_array({12, 10}, 72), 1e-3,
                   PipelineConfig::defaults(2));
    w.add_variable("B", smooth_array({12, 10}, 73), 1e-3,
                   PipelineConfig::defaults(2));
    w.finish();
  }
  std::vector<std::uint8_t> record;
  NdArray<float> b;
  {
    ArchiveReader pristine(file.path());
    record = pristine.read_raw("A");
    b = pristine.read("B");
  }
  // Flip one bit inside A's CRC-covered tile index (past the magic, dims
  // and tile count), leaving the archive index itself intact.
  auto bytes = slurp(file.path());
  const auto it =
      std::search(bytes.begin(), bytes.end(), record.begin(), record.end());
  ASSERT_NE(it, bytes.end());
  *(it + 10) ^= 0x01;
  dump(file.path(), bytes);

  // Every call re-parses the index and fails the same way; a kept
  // half-built view would instead fall back to a full decode and fail on
  // the record CRC.
  ArchiveReader r(file.path());
  const DimVec lo{1, 1};
  const DimVec ext{4, 4};
  const auto first = region_refusal(r, "A", lo, ext);
  EXPECT_EQ(first.first, ErrorCode::kCorruptStream);
  EXPECT_EQ(region_refusal(r, "A", lo, ext), first);
  // The refused variable leaves the reader's other views usable.
  expect_window_equal(b, lo, ext, r.read_region("B", lo, ext));
  EXPECT_EQ(region_refusal(r, "A", lo, ext), first);
}

TEST(ArchiveRegion, TolerantOpenViewsFollowSalvagedPositions) {
  TempFile file("region_salvaged");
  {
    ArchiveWriter w(file.path());
    w.set_tile({6, 5});
    for (int i = 0; i < 3; ++i) {
      w.add_variable("V" + std::to_string(i),
                     smooth_array({12, 10}, 74 + static_cast<unsigned>(i)),
                     1e-3, PipelineConfig::defaults(2));
    }
    w.finish();
  }
  std::vector<std::uint8_t> record;
  std::vector<NdArray<float>> pristine_data;
  {
    ArchiveReader pristine(file.path());
    record = pristine.read_raw("V0");
    for (int i = 0; i < 3; ++i) {
      pristine_data.push_back(pristine.read("V" + std::to_string(i)));
    }
  }
  auto bytes = slurp(file.path());
  const auto it =
      std::search(bytes.begin(), bytes.end(), record.begin(), record.end());
  ASSERT_NE(it, bytes.end());
  *(it + static_cast<std::ptrdiff_t>(record.size() / 2)) ^= 0x10;
  dump(file.path(), bytes);

  // V0 is quarantined, so V1 and V2 sit one position earlier than in the
  // archive index; each window must still come from its own variable.
  ArchiveReader r(file.path(), ArchiveOpenMode::kTolerant);
  ASSERT_FALSE(r.contains("V0"));
  ASSERT_EQ(r.variables().size(), 2u);
  const DimVec lo{3, 2};
  const DimVec ext{7, 6};
  for (int round = 0; round < 2; ++round) {
    for (const int i : {2, 1}) {
      expect_window_equal(pristine_data[static_cast<std::size_t>(i)], lo, ext,
                          r.read_region("V" + std::to_string(i), lo, ext));
    }
  }
}

TEST(ArchiveRegion, ReadersOnTwoThreadsShareOneTileCache) {
  TempFile file("region_threads");
  write_mixed_region_archive(file.path());
  NdArray<float> temp;
  {
    ArchiveReader fresh(file.path());
    temp = fresh.read("TEMP");
  }
  TileCache cache;
  const auto serve = [&](std::size_t seed, bool* ok) {
    ArchiveReader r(file.path());
    Rng rng(seed);
    const auto below = [&](std::size_t n) {
      return static_cast<std::size_t>(rng.uniform_index(n));
    };
    *ok = true;
    for (int n = 0; n < 24; ++n) {
      const DimVec ext{1 + below(8), 1 + below(10), 1 + below(8)};
      const DimVec lo{below(24 - ext[0] + 1), below(20 - ext[1] + 1),
                      below(16 - ext[2] + 1)};
      const auto win = r.read_region("TEMP", lo, ext, &cache);
      const Shape wshape{DimVec(ext)};
      for (std::size_t i = 0; i < wshape.size(); ++i) {
        DimVec g = wshape.coords(i);
        for (std::size_t d = 0; d < g.size(); ++d) g[d] += lo[d];
        *ok = *ok && std::memcmp(&win[i], &temp[temp.shape().offset(g)],
                                 sizeof(float)) == 0;
      }
    }
  };
  bool ok0 = false;
  bool ok1 = false;
  std::thread t0(serve, 81, &ok0);
  std::thread t1(serve, 82, &ok1);
  t0.join();
  t1.join();
  EXPECT_TRUE(ok0);
  EXPECT_TRUE(ok1);
  EXPECT_GT(cache.stats().hits, 0u);
}

}  // namespace
}  // namespace cliz
