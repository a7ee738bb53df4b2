// End-to-end tests of the clizc command-line tool: spawn the real binary
// (path injected by CMake) and verify its file outputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/status.hpp"
#include "src/io/archive.hpp"
#include "src/metrics/metrics.hpp"
#include "src/ndarray/ndarray.hpp"

#ifndef CLIZC_PATH
#error "CLIZC_PATH must be defined by the build system"
#endif

namespace cliz {
namespace {

namespace fs = std::filesystem;

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("clizc_test_" + std::to_string(::getpid()));
    fs::create_directories(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  static int run(const std::string& args) {
    const std::string cmd =
        std::string(CLIZC_PATH) + " " + args + " 2>/dev/null >/dev/null";
    return std::system(cmd.c_str());
  }

  /// run() unpacked to the child's actual exit code, for the taxonomy
  /// exit-code contract (2 bad args, 3 corrupt, 4 limit, ...).
  static int run_exit(const std::string& args) {
    const int status = run(args);
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  static std::vector<float> read_floats(const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    std::vector<float> out(bytes.size() / sizeof(float));
    std::memcpy(out.data(), bytes.data(), out.size() * sizeof(float));
    return out;
  }

  fs::path dir_;
};

TEST_F(CliTest, GenCompressDecompressRoundTrip) {
  ASSERT_EQ(run("gen Hurricane-T --scale 0.08 -o " + path("h.f32")), 0);
  const auto original = read_floats(path("h.f32"));
  ASSERT_GT(original.size(), 1000u);

  // Hurricane-T at scale 0.08: dims floors kick in -> 24x48x48.
  ASSERT_EQ(original.size(), 24u * 48 * 48);
  ASSERT_EQ(run("compress " + path("h.f32") + " -d 24,48,48 -o " +
                path("h.cliz") + " -r 1e-3 --tune 0.05"),
            0);
  ASSERT_LT(fs::file_size(path("h.cliz")),
            fs::file_size(path("h.f32")) / 2);

  ASSERT_EQ(run("decompress " + path("h.cliz") + " -o " + path("h2.f32")), 0);
  const auto recon = read_floats(path("h2.f32"));
  ASSERT_EQ(recon.size(), original.size());
  const auto stats = error_stats(original, recon);
  const double eb = abs_bound_from_relative(original, 1e-3);
  EXPECT_LE(stats.max_abs_error, eb);
}

TEST_F(CliTest, BaselineCodecsViaFlag) {
  ASSERT_EQ(run("gen CESM-T --scale 0.03 -o " + path("t.f32")), 0);
  const auto original = read_floats(path("t.f32"));
  // CESM-T floors: lat/lon minimum 32 applies at this scale -> 26x54x108.
  ASSERT_EQ(original.size(), 26u * 54 * 108);
  for (const std::string codec : {"sz3", "qoz", "zfp", "sperr"}) {
    const std::string out = path(codec + ".bin");
    ASSERT_EQ(run("compress " + path("t.f32") + " -d 26,54,108 -o " + out +
                  " -r 1e-3 -c " + codec),
              0)
        << codec;
    ASSERT_EQ(run("decompress " + out + " -o " + path(codec + ".f32")), 0)
        << codec;
    const auto recon = read_floats(path(codec + ".f32"));
    const double eb = abs_bound_from_relative(original, 1e-3);
    EXPECT_LE(error_stats(original, recon).max_abs_error, eb) << codec;
  }
}

TEST_F(CliTest, MaskFillFlagShrinksMaskedData) {
  ASSERT_EQ(run("gen SSH --scale 0.1 -o " + path("ssh.f32")), 0);
  const auto original = read_floats(path("ssh.f32"));
  ASSERT_EQ(original.size(), 48u * 38 * 32);
  // Same ABSOLUTE bound for both runs: a relative bound without the mask
  // would key off the 1e36 fill values and be uselessly loose.
  const auto mask = MaskMap::from_fill_values(
      NdArray<float>(Shape({48, 38, 32}), original));
  const double eb = abs_bound_from_relative(original, 1e-3, &mask);
  const std::string eb_s = std::to_string(eb);
  ASSERT_EQ(run("compress " + path("ssh.f32") + " -d 48,38,32 -o " +
                path("m.cliz") + " -e " + eb_s + " --mask-fill --tune 0.05"),
            0);
  ASSERT_EQ(run("compress " + path("ssh.f32") + " -d 48,38,32 -o " +
                path("nm.cliz") + " -e " + eb_s + " --tune 0.05"),
            0);
  EXPECT_LT(fs::file_size(path("m.cliz")), fs::file_size(path("nm.cliz")));
}

TEST_F(CliTest, InfoDetectsCodec) {
  ASSERT_EQ(run("gen Hurricane-T --scale 0.08 -o " + path("h.f32")), 0);
  ASSERT_EQ(run("compress " + path("h.f32") + " -d 24,48,48 -o " +
                path("h.sz3") + " -r 1e-2 -c sz3"),
            0);
  EXPECT_EQ(run("info " + path("h.sz3")), 0);
}

TEST_F(CliTest, ArchiveListAndExtract) {
  // Build a small archive through the library, then exercise the CLI.
  NdArray<float> data(Shape({16, 16}));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(i % 7);
  }
  {
    ArchiveWriter w(path("a.clza"));
    w.add_variable_with("sz3", "VAR_A", data, 1e-3);
  }
  EXPECT_EQ(run("archive-list " + path("a.clza")), 0);
  EXPECT_EQ(run("info " + path("a.clza")), 0);
  ASSERT_EQ(run("archive-extract " + path("a.clza") + " VAR_A -o " +
                path("a.f32")),
            0);
  const auto recon = read_floats(path("a.f32"));
  ASSERT_EQ(recon.size(), data.size());
  EXPECT_LE(error_stats(data.flat(), recon).max_abs_error, 1e-3);
}

TEST_F(CliTest, AnalyzeReportsQualityAndExitCode) {
  ASSERT_EQ(run("gen Hurricane-T --scale 0.08 -o " + path("h.f32")), 0);
  ASSERT_EQ(run("compress " + path("h.f32") + " -d 24,48,48 -o " +
                path("h.sz3") + " -e 0.01 -c sz3"),
            0);
  ASSERT_EQ(run("decompress " + path("h.sz3") + " -o " + path("h2.f32")), 0);
  // Within bound -> exit 0.
  EXPECT_EQ(run("analyze " + path("h.f32") + " " + path("h2.f32") +
                " -d 24,48,48 -e 0.01"),
            0);
  // Impossibly tight bound -> nonzero exit signalling violation.
  EXPECT_NE(run("analyze " + path("h.f32") + " " + path("h2.f32") +
                " -d 24,48,48 -e 1e-12"),
            0);
}

TEST_F(CliTest, ArchiveCreateFromRawFiles) {
  ASSERT_EQ(run("gen Hurricane-T --scale 0.08 -o " + path("h.f32")), 0);
  ASSERT_EQ(run("gen SSH --scale 0.1 -o " + path("s.f32")), 0);
  ASSERT_EQ(run("archive-create " + path("m.clza") + " HURR=" +
                path("h.f32") + ":24,48,48:sz3 SSH=" + path("s.f32") +
                ":48,38,32 -r 1e-3 --mask-fill --tune 0.05"),
            0);
  const ArchiveReader reader(path("m.clza"));
  ASSERT_EQ(reader.variables().size(), 2u);
  EXPECT_EQ(reader.info("HURR").codec, "sz3");
  EXPECT_EQ(reader.info("SSH").codec, "cliz");
  ASSERT_EQ(run("archive-extract " + path("m.clza") + " HURR -o " +
                path("h2.f32")),
            0);
  const auto orig = read_floats(path("h.f32"));
  const auto recon = read_floats(path("h2.f32"));
  const double eb = abs_bound_from_relative(orig, 1e-3);
  EXPECT_LE(error_stats(orig, recon).max_abs_error, eb);
}

TEST_F(CliTest, Float64CompressDecompressRoundTrip) {
  // Write a small f64 raw file, compress with --f64 at a sub-float bound,
  // decompress (dtype auto-detected) and verify bit-level precision.
  const std::size_t n = 8 * 20 * 20;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = 1.0 + 0.01 * std::sin(0.1 * static_cast<double>(i));
  }
  {
    std::ofstream out(path("p.f64"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(n * sizeof(double)));
  }
  ASSERT_EQ(run("compress " + path("p.f64") + " -d 8,20,20 -o " +
                path("p.cliz") + " --f64 -e 1e-10 -c sz3"),
            0);
  ASSERT_EQ(run("decompress " + path("p.cliz") + " -o " + path("p2.f64")), 0);
  std::ifstream in(path("p2.f64"), std::ios::binary);
  std::vector<double> recon(n);
  in.read(reinterpret_cast<char*>(recon.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  ASSERT_TRUE(in.good());
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_LE(std::abs(recon[i] - values[i]), 1e-10);
  }
}

TEST_F(CliTest, VerifyFlagProducesDecodableStreamWithinBound) {
  ASSERT_EQ(run("gen Hurricane-T --scale 0.08 -o " + path("h.f32")), 0);
  ASSERT_EQ(run("compress " + path("h.f32") + " -d 24,48,48 -o " +
                path("h.cliz") + " -e 0.5 --verify"),
            0);
  ASSERT_EQ(run("decompress " + path("h.cliz") + " -o " + path("h2.f32")), 0);
  const auto orig = read_floats(path("h.f32"));
  const auto recon = read_floats(path("h2.f32"));
  ASSERT_EQ(orig.size(), recon.size());
  EXPECT_LE(error_stats(orig, recon).max_abs_error, 0.5);
  // Chunked and f64 paths take --verify too.
  EXPECT_EQ(run("compress " + path("h.f32") + " -d 24,48,48 -o " +
                path("hc.clks") + " -e 0.5 --verify --chunks 3"),
            0);
  // Non-cliz codecs reject it up front.
  EXPECT_NE(run("compress " + path("h.f32") + " -d 24,48,48 -o " +
                path("h.sz3") + " -e 0.5 -c sz3 --verify"),
            0);
}

TEST_F(CliTest, SalvageFlagRecoversFromCorruptTrailer) {
  ASSERT_EQ(run("gen Hurricane-T --scale 0.08 -o " + path("h.f32")), 0);
  ASSERT_EQ(run("archive-create " + path("a.clza") + " HURR=" +
                path("h.f32") + ":24,48,48:sz3 -e 0.5"),
            0);
  ASSERT_EQ(run("archive-extract " + path("a.clza") + " HURR -o " +
                path("good.f32")),
            0);

  // Stomp the 12-byte trailer: strict open must fail, salvage must not.
  {
    std::fstream f(path("a.clza"),
                   std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekp(-12, std::ios::end);
    const char junk[12] = {};
    f.write(junk, sizeof junk);
  }
  EXPECT_NE(run("archive-list " + path("a.clza")), 0);
  EXPECT_EQ(run("archive-list " + path("a.clza") + " --salvage"), 0);
  ASSERT_EQ(run("archive-extract " + path("a.clza") + " HURR -o " +
                path("salvaged.f32") + " --salvage"),
            0);
  const auto good = read_floats(path("good.f32"));
  const auto salvaged = read_floats(path("salvaged.f32"));
  ASSERT_EQ(good.size(), salvaged.size());
  EXPECT_EQ(std::memcmp(good.data(), salvaged.data(),
                        good.size() * sizeof(float)),
            0);
}

TEST_F(CliTest, GovernorFlagsMapToExitCodes) {
  ASSERT_EQ(run("gen SSH --scale 0.1 -o " + path("s.f32")), 0);
  ASSERT_EQ(run("compress " + path("s.f32") + " -d 48,38,32 -o " +
                path("s.cliz") + " -r 1e-3"),
            0);

  // A declared-output budget below the stream's true size is a limit
  // refusal: exit 4, nothing written.
  EXPECT_EQ(run_exit("decompress " + path("s.cliz") + " -o " +
                     path("s2.f32") + " --max-output-bytes 64"),
            4);
  EXPECT_FALSE(fs::exists(path("s2.f32")));

  // A generous budget decodes identically to the unlimited run.
  ASSERT_EQ(run("decompress " + path("s.cliz") + " -o " + path("s3.f32") +
                " --max-output-bytes 1000000000"),
            0);
  ASSERT_EQ(run("decompress " + path("s.cliz") + " -o " + path("s4.f32")), 0);
  const auto capped = read_floats(path("s3.f32"));
  const auto plain = read_floats(path("s4.f32"));
  ASSERT_EQ(capped.size(), plain.size());
  EXPECT_EQ(std::memcmp(capped.data(), plain.data(),
                        capped.size() * sizeof(float)),
            0);

  // A truncated stream is corruption: exit 3.
  {
    std::ifstream in(path("s.cliz"), std::ios::binary);
    std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    bytes.resize(bytes.size() / 2);
    std::ofstream out(path("cut.cliz"), std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_EQ(run_exit("decompress " + path("cut.cliz") + " -o " +
                     path("cut.f32")),
            3);
}

TEST_F(CliTest, TiledCompressExtractRegionMatchesWindow) {
  ASSERT_EQ(run("gen Hurricane-T --scale 0.08 -o " + path("h.f32")), 0);
  ASSERT_EQ(run("compress " + path("h.f32") + " -d 24,48,48 --tile 8x16x16 "
                "-o " + path("h.clz") + " -r 1e-3"),
            0);
  ASSERT_EQ(run("decompress " + path("h.clz") + " -o " + path("full.f32")),
            0);
  ASSERT_EQ(run("extract " + path("h.clz") +
                " --region 4:12,8:24,16:40 -o " + path("win.f32") +
                " --stats"),
            0);
  const auto full = read_floats(path("full.f32"));
  const auto win = read_floats(path("win.f32"));
  ASSERT_EQ(full.size(), 24u * 48 * 48);
  ASSERT_EQ(win.size(), 8u * 16 * 24);
  // The extracted window must be bit-identical to the full decode's.
  std::size_t w = 0;
  for (std::size_t t = 4; t < 12; ++t) {
    for (std::size_t y = 8; y < 24; ++y) {
      for (std::size_t x = 16; x < 40; ++x) {
        ASSERT_EQ(win[w++], full[(t * 48 + y) * 48 + x])
            << "mismatch at t=" << t << " y=" << y << " x=" << x;
      }
    }
  }
  // Region extraction needs a chunked stream: a monolithic one is caller
  // misuse (exit 2 in the error taxonomy).
  ASSERT_EQ(run("compress " + path("h.f32") + " -d 24,48,48 -o " +
                path("mono.clz") + " -r 1e-3"),
            0);
  EXPECT_EQ(run_exit("extract " + path("mono.clz") +
                     " --region 0:2,0:2,0:2 -o " + path("m.f32")),
            2);
}

TEST_F(CliTest, InfoPrintsTileTableForTiledStream) {
  ASSERT_EQ(run("gen Hurricane-T --scale 0.08 -o " + path("h.f32")), 0);
  ASSERT_EQ(run("compress " + path("h.f32") + " -d 24,48,48 --tile 12x24x24 "
                "-o " + path("h.clz") + " -r 1e-3"),
            0);
  const std::string cmd = std::string(CLIZC_PATH) + " info " + path("h.clz") +
                          " > " + path("info.txt") + " 2>/dev/null";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
  std::ifstream in(path("info.txt"));
  const std::string text{std::istreambuf_iterator<char>(in),
                         std::istreambuf_iterator<char>()};
  // The per-tile index table: 2x2x2 tiles with geometry and CRC status.
  EXPECT_NE(text.find("8 tile(s)"), std::string::npos) << text;
  EXPECT_NE(text.find("origin"), std::string::npos) << text;
  EXPECT_NE(text.find("12,24,24"), std::string::npos) << text;
  EXPECT_NE(text.find("ok"), std::string::npos) << text;
}

TEST_F(CliTest, ArchiveExtractRegionMatchesFullExtract) {
  ASSERT_EQ(run("gen SSH --scale 0.1 -o " + path("s.f32")), 0);
  ASSERT_EQ(run("archive-create " + path("a.clza") + " SSH=" + path("s.f32") +
                ":48,38,32 -r 1e-3 --tile 16x19x16"),
            0);
  ASSERT_EQ(run("archive-extract " + path("a.clza") + " SSH -o " +
                path("full.f32")),
            0);
  ASSERT_EQ(run("archive-extract " + path("a.clza") + " SSH -o " +
                path("win.f32") + " --region 10:30,5:24,8:32 --stats"),
            0);
  const auto full = read_floats(path("full.f32"));
  const auto win = read_floats(path("win.f32"));
  ASSERT_EQ(full.size(), 48u * 38 * 32);
  ASSERT_EQ(win.size(), 20u * 19 * 24);
  std::size_t w = 0;
  for (std::size_t t = 10; t < 30; ++t) {
    for (std::size_t y = 5; y < 24; ++y) {
      for (std::size_t x = 8; x < 32; ++x) {
        ASSERT_EQ(win[w++], full[(t * 38 + y) * 32 + x])
            << "mismatch at t=" << t << " y=" << y << " x=" << x;
      }
    }
  }
  // Out-of-bounds region is caller misuse (exit 2).
  EXPECT_EQ(run_exit("archive-extract " + path("a.clza") + " SSH -o " +
                     path("bad.f32") + " --region 0:100,0:2,0:2"),
            2);
}

TEST_F(CliTest, BadInvocationsFailCleanly) {
  EXPECT_NE(run(""), 0);
  EXPECT_NE(run("frobnicate"), 0);
  EXPECT_NE(run("compress missing.f32 -d 4,4 -o out"), 0);
  EXPECT_NE(run("decompress /nonexistent -o out"), 0);
  EXPECT_NE(run("gen NOPE -o " + path("x.f32")), 0);
  // Wrong dims for the file size must be rejected.
  ASSERT_EQ(run("gen Hurricane-T --scale 0.08 -o " + path("h.f32")), 0);
  EXPECT_NE(run("compress " + path("h.f32") + " -d 3,3 -o " + path("x")), 0);
  // The retired 2nd-order Lorenzo predictor is no longer a backend name.
  EXPECT_EQ(run_exit("compress " + path("h.f32") + " -d 24,48,48 -o " +
                     path("x") + " -r 1e-3 --predictor lorenzo2"),
            2);
}

}  // namespace
}  // namespace cliz
