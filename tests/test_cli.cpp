// End-to-end tests of the clizc command-line tool: spawn the real binary
// (path injected by CMake) and verify its file outputs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>
#include <sys/wait.h>
#include <unistd.h>

#include "src/baselines/compressor.hpp"
#include "src/common/status.hpp"
#include "src/core/chunked.hpp"
#include "src/core/cliz.hpp"
#include "src/io/archive.hpp"
#include "src/lossless/lossless.hpp"
#include "src/metrics/metrics.hpp"
#include "src/ndarray/ndarray.hpp"
#include "tests/fault_injection.hpp"
#include "tests/foreign_archive.hpp"
#include "tests/framed_fixtures.hpp"

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

  /// run_exit() plus everything the child printed (stdout and stderr).
  [[nodiscard]] std::pair<int, std::string> run_capture(
      const std::string& args) const {
    const std::string log = path("capture.txt");
    const std::string cmd =
        std::string(CLIZC_PATH) + " " + args + " >" + log + " 2>&1";
    const int status = std::system(cmd.c_str());
    std::ifstream in(log);
    return {WIFEXITED(status) ? WEXITSTATUS(status) : -1,
            {std::istreambuf_iterator<char>(in),
             std::istreambuf_iterator<char>()}};
  }

  static void write_bytes(const std::string& p,
                          const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(p, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }

  /// A small smooth field for streams built through the library.
  static NdArray<float> small_field() {
    NdArray<float> data(Shape({8, 12, 16}));
    for (std::size_t i = 0; i < data.size(); ++i) {
      data[i] = static_cast<float>(std::sin(0.05 * static_cast<double>(i)));
    }
    return data;
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
  // clizc writes and reads CliZ only: the codec flag is gone (bad
  // arguments, nothing written) and a baseline codec's stream is refused
  // with a typed exit code.
  const NdArray<float> data = small_field();
  write_bytes(path("t.f32"),
              {reinterpret_cast<const std::uint8_t*>(data.data()),
               reinterpret_cast<const std::uint8_t*>(data.data() + data.size())});
  for (const std::string codec : {"cliz", "sz3", "qoz", "zfp", "sperr"}) {
    const std::string out = path(codec + ".bin");
    EXPECT_EQ(run_exit("compress " + path("t.f32") + " -d 8,12,16 -o " + out +
                       " -r 1e-3 -c " + codec),
              2)
        << codec;
    EXPECT_FALSE(fs::exists(out)) << codec;
  }
  for (const std::string codec : {"sz3", "qoz", "zfp", "sperr", "sz2"}) {
    const std::string in = path(codec + ".bin");
    write_bytes(in, make_compressor(codec)->compress(data, 1e-2));
    EXPECT_EQ(run_exit("decompress " + in + " -o " + path(codec + ".f32")), 3)
        << codec;
    EXPECT_FALSE(fs::exists(path(codec + ".f32"))) << codec;
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

TEST_F(CliTest, RelativeBoundWarnsAboutUnmaskedFillValues) {
  // Without --mask-fill a relative bound spans the 1e36 fill values of a
  // masked field; clizc must say so and name the flag, and stay quiet when
  // the flag is given or the field has no fill values.
  ASSERT_EQ(run("gen SSH --scale 0.1 -o " + path("ssh.f32")), 0);
  const std::string base = "compress " + path("ssh.f32") +
                           " -d 48,38,32 -r 1e-3 --tune 0.05 -o ";
  const auto [code, text] = run_capture(base + path("nm.cliz"));
  ASSERT_EQ(code, 0) << text;
  EXPECT_NE(text.find("warning"), std::string::npos) << text;
  EXPECT_NE(text.find("--mask-fill"), std::string::npos) << text;

  const auto [mcode, mtext] = run_capture(base + path("m.cliz") +
                                          " --mask-fill");
  ASSERT_EQ(mcode, 0) << mtext;
  EXPECT_EQ(mtext.find("warning"), std::string::npos) << mtext;

  ASSERT_EQ(run("gen Hurricane-T --scale 0.08 -o " + path("h.f32")), 0);
  const auto [hcode, htext] =
      run_capture("compress " + path("h.f32") +
                  " -d 24,48,48 -r 1e-3 --tune 0.05 -o " + path("h.cliz"));
  ASSERT_EQ(hcode, 0) << htext;
  EXPECT_EQ(htext.find("warning"), std::string::npos) << htext;
}

TEST_F(CliTest, InfoDetectsCodec) {
  ASSERT_EQ(run("gen Hurricane-T --scale 0.08 -o " + path("h.f32")), 0);
  ASSERT_EQ(run("compress " + path("h.f32") + " -d 24,48,48 -o " +
                path("h.cliz") + " -r 1e-2 --tune 0.05"),
            0);
  const auto [code, text] = run_capture("info " + path("h.cliz"));
  EXPECT_EQ(code, 0);
  EXPECT_NE(text.find("cliz stream: (24x48x48)"), std::string::npos) << text;
  EXPECT_NE(text.find("float32"), std::string::npos) << text;
  // A baseline codec's stream is not something info can describe.
  write_bytes(path("h.sz3"), make_compressor("sz3")->compress(small_field(),
                                                               1e-2));
  EXPECT_EQ(run_exit("info " + path("h.sz3")), 3);
}

TEST_F(CliTest, ArchiveListAndExtract) {
  // Build a small archive through the library, then exercise the CLI.
  NdArray<float> data(Shape({16, 16}));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(i % 7);
  }
  {
    ArchiveWriter w(path("a.clza"));
    w.add_variable("VAR_A", data, 1e-3, PipelineConfig::defaults(2));
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
                path("h.cliz") + " -e 0.01 --tune 0.05"),
            0);
  ASSERT_EQ(run("decompress " + path("h.cliz") + " -o " + path("h2.f32")), 0);
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
  // The per-variable codec field of the spec is gone: bad arguments.
  EXPECT_EQ(run_exit("archive-create " + path("x.clza") + " HURR=" +
                     path("h.f32") + ":24,48,48:sz3 -r 1e-3"),
            2);
  ASSERT_EQ(run("archive-create " + path("m.clza") + " HURR=" +
                path("h.f32") + ":24,48,48 SSH=" + path("s.f32") +
                ":48,38,32 -r 1e-3 --mask-fill --tune 0.05"),
            0);
  const ArchiveReader reader(path("m.clza"));
  ASSERT_EQ(reader.variables().size(), 2u);
  EXPECT_EQ(reader.info("HURR").codec, "cliz");
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
                path("p.cliz") + " --f64 -e 1e-10 --tune 0.05"),
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
}

TEST_F(CliTest, VerifyAcceptsNonFiniteInput) {
  // NaN and ±Inf are valid input: they round-trip bit for bit, so --verify
  // must accept them instead of reporting a corrupt stream.
  const std::size_t n = 12 * 20 * 24;
  std::vector<float> f32(n);
  std::vector<double> f64(n);
  for (std::size_t i = 0; i < n; ++i) {
    f64[i] = std::sin(0.03 * static_cast<double>(i));
    f32[i] = static_cast<float>(f64[i]);
  }
  f32[37] = std::numeric_limits<float>::quiet_NaN();
  f32[2000] = std::numeric_limits<float>::infinity();
  f32[n - 5] = -std::numeric_limits<float>::infinity();
  f64[37] = std::numeric_limits<double>::quiet_NaN();
  f64[2000] = std::numeric_limits<double>::infinity();
  f64[n - 5] = -std::numeric_limits<double>::infinity();
  {
    std::ofstream out(path("nf.f32"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(f32.data()),
              static_cast<std::streamsize>(n * sizeof(float)));
  }
  {
    std::ofstream out(path("nf.f64"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(f64.data()),
              static_cast<std::streamsize>(n * sizeof(double)));
  }
  for (const std::string extra : {"", " --chunks 3"}) {
    SCOPED_TRACE("layout:" + extra);
    const auto [code, text] =
        run_capture("compress " + path("nf.f32") + " -d 12,20,24 -o " +
                    path("nf.cliz") + " -e 1e-3 --tune 0.1 --verify" + extra);
    EXPECT_EQ(code, 0) << text;
    const auto [code64, text64] = run_capture(
        "compress " + path("nf.f64") + " -d 12,20,24 -o " + path("nf64.cliz") +
        " -e 1e-3 --tune 0.1 --verify --f64" + extra);
    EXPECT_EQ(code64, 0) << text64;
  }
  ASSERT_EQ(run("decompress " + path("nf.cliz") + " -o " + path("nf2.f32")),
            0);
  const auto recon = read_floats(path("nf2.f32"));
  ASSERT_EQ(recon.size(), n);
  EXPECT_TRUE(std::isnan(recon[37]));
  EXPECT_EQ(recon[2000], std::numeric_limits<float>::infinity());
  EXPECT_EQ(recon[n - 5], -std::numeric_limits<float>::infinity());
}

TEST_F(CliTest, RelativeBoundIgnoresNonFiniteValues) {
  // One +Inf in a smooth field must not make -r's bound infinite (which
  // stored the field at ratio 1), and an infinite -e is a bad argument.
  const std::size_t n = 12 * 40 * 48;
  std::vector<float> f32(n);
  std::vector<double> f64(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i / (40 * 48));
    const double y = static_cast<double>((i / 48) % 40);
    const double x = static_cast<double>(i % 48);
    f64[i] = std::sin(0.3 * t) + std::cos(0.1 * y) + std::sin(0.07 * x);
    f32[i] = static_cast<float>(f64[i]);
  }
  f32[1234] = std::numeric_limits<float>::infinity();
  f64[1234] = std::numeric_limits<double>::infinity();
  {
    std::ofstream out(path("inf.f32"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(f32.data()),
              static_cast<std::streamsize>(n * sizeof(float)));
  }
  {
    std::ofstream out(path("inf.f64"), std::ios::binary);
    out.write(reinterpret_cast<const char*>(f64.data()),
              static_cast<std::streamsize>(n * sizeof(double)));
  }
  const double range = value_range(f64);
  ASSERT_GT(range, 1.0);
  for (const bool wide : {false, true}) {
    SCOPED_TRACE(wide ? "--f64" : "f32");
    const std::string in = path(wide ? "inf.f64" : "inf.f32");
    const std::string flags = std::string(" -d 12,40,48 --tune 0.1") +
                              (wide ? " --f64" : "");
    const auto [code, text] = run_capture("compress " + in + " -o " +
                                          path("inf.cliz") + " -r 1e-3" +
                                          flags);
    ASSERT_EQ(code, 0) << text;
    const std::size_t at = text.find("abs bound ");
    ASSERT_NE(at, std::string::npos) << text;
    EXPECT_NEAR(std::atof(text.c_str() + at + 10), 1e-3 * range,
                1e-6 * range)
        << text;
    const std::size_t raw_bytes = n * (wide ? sizeof(double) : sizeof(float));
    EXPECT_LT(4 * fs::file_size(path("inf.cliz")), raw_bytes) << text;
    EXPECT_EQ(run_exit("compress " + in + " -o " + path("x.cliz") +
                       " -e inf" + flags),
              2);
  }
}

TEST_F(CliTest, SalvageFlagRecoversFromCorruptTrailer) {
  ASSERT_EQ(run("gen Hurricane-T --scale 0.08 -o " + path("h.f32")), 0);
  ASSERT_EQ(run("archive-create " + path("a.clza") + " HURR=" +
                path("h.f32") + ":24,48,48 -e 0.5 --tune 0.05"),
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

TEST_F(CliTest, DeadlineFlagStopsEncodes) {
  ASSERT_EQ(run("gen SSH --scale 0.1 -o " + path("s.f32")), 0);
  // A 1 ms budget expires inside the tuner's trial compressions: exit 6.
  EXPECT_EQ(run_exit("compress " + path("s.f32") + " -d 48,38,32 -o " +
                     path("s.cliz") + " -r 1e-3 --deadline-ms 1"),
            6);
  EXPECT_EQ(run_exit("archive-create " + path("s.clza") + " S=" +
                     path("s.f32") + ":48,38,32 -r 1e-3 --deadline-ms 1"),
            6);
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

TEST_F(CliTest, UnevenSlabFrameDecodesAndExtracts) {
  // A CLK2 frame with uneven slabs (12 + 12 + 5 steps), assembled directly:
  // the CLI must decode it from its recorded ranges, bit-identical to the
  // library, and cut windows across the short last slab.
  NdArray<float> data(Shape({29, 12, 16}));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(std::sin(0.05 * static_cast<double>(i)));
  }
  const std::size_t row = 12 * 16;
  const std::vector<std::pair<std::size_t, std::size_t>> ranges{
      {0, 12}, {12, 24}, {24, 29}};
  std::vector<std::vector<std::uint8_t>> streams;
  for (const auto& [lo, hi] : ranges) {
    NdArray<float> slab(Shape({hi - lo, 12, 16}));
    std::memcpy(slab.data(), data.data() + lo * row,
                slab.size() * sizeof(float));
    streams.push_back(
        ClizCompressor(PipelineConfig::defaults(3)).compress(slab, 1e-3));
  }
  std::vector<std::uint8_t> frame;
  detail::write_slab_frame(data.shape(), ranges, streams, frame);
  write_bytes(path("u.clk2"), frame);

  ASSERT_EQ(run("decompress " + path("u.clk2") + " -o " + path("u.f32")), 0);
  const auto full = read_floats(path("u.f32"));
  const auto expected = chunked_decompress(frame);
  ASSERT_EQ(full.size(), expected.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_EQ(full[i], expected[i]) << "i=" << i;
  }

  ASSERT_EQ(run("extract " + path("u.clk2") + " --region 20:29,2:10,3:15 -o " +
                path("uw.f32")),
            0);
  const auto win = read_floats(path("uw.f32"));
  ASSERT_EQ(win.size(), 9u * 8 * 12);
  std::size_t w = 0;
  for (std::size_t t = 20; t < 29; ++t) {
    for (std::size_t y = 2; y < 10; ++y) {
      for (std::size_t x = 3; x < 15; ++x) {
        ASSERT_EQ(win[w++], full[(t * 12 + y) * 16 + x])
            << "mismatch at t=" << t << " y=" << y << " x=" << x;
      }
    }
  }
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

TEST_F(CliTest, ArchiveExtractWritesFloat64Variables) {
  // archive-extract writes a variable at the sample width the index
  // records, full and --region alike.
  NdArray<double> data(Shape({12, 16, 20}));
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = 1.0 + 1e-3 * std::sin(0.05 * static_cast<double>(i));
  }
  {
    ArchiveWriter w(path("d.clza"));
    w.set_tile({4, 8, 8});
    w.add_variable("D", data, 1e-9, PipelineConfig::defaults(3));
  }
  const auto expected = ArchiveReader(path("d.clza")).read<double>("D");
  const auto read_doubles = [&](const std::string& p) {
    std::ifstream in(p, std::ios::binary);
    std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                            std::istreambuf_iterator<char>()};
    std::vector<double> out(bytes.size() / sizeof(double));
    std::memcpy(out.data(), bytes.data(), out.size() * sizeof(double));
    return out;
  };
  ASSERT_EQ(run_exit("archive-extract " + path("d.clza") + " D -o " +
                     path("d.f64")),
            0);
  const auto full = read_doubles(path("d.f64"));
  ASSERT_EQ(full.size(), data.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    ASSERT_EQ(full[i], expected[i]) << "point " << i;
  }
  ASSERT_EQ(run_exit("archive-extract " + path("d.clza") + " D -o " +
                     path("w.f64") + " --region 2:9,3:13,5:17"),
            0);
  const auto win = read_doubles(path("w.f64"));
  ASSERT_EQ(win.size(), 7u * 10 * 12);
  std::size_t k = 0;
  for (std::size_t t = 2; t < 9; ++t) {
    for (std::size_t y = 3; y < 13; ++y) {
      for (std::size_t x = 5; x < 17; ++x) {
        ASSERT_EQ(win[k++], expected[(t * 16 + y) * 20 + x])
            << "mismatch at t=" << t << " y=" << y << " x=" << x;
      }
    }
  }
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
  // Neither is the retired store lossless backend: --lossless is no flag.
  EXPECT_EQ(run_exit("compress " + path("h.f32") + " -d 24,48,48 -o " +
                     path("x") + " -r 1e-3 --lossless store"),
            2);
  // The encoder writes only the serial entropy container.
  EXPECT_EQ(run_exit("compress " + path("h.f32") + " -d 24,48,48 -o " +
                     path("x") + " -r 1e-3 --frame-passes"),
            2);

  // A stream naming the retired predictor id is unsupported (exit 8, and
  // the message says why); an id no release ever assigned is corruption.
  // The predictor byte is where interp and lorenzo1 encodings diverge.
  const NdArray<float> data = small_field();
  ClizOptions lorenzo;
  lorenzo.predictor = PredictorBackend::kLorenzo1;
  const auto interp_raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(3)).compress(data, 1e-3));
  const auto lorenzo_raw = lossless_decompress(
      ClizCompressor(PipelineConfig::defaults(3), lorenzo)
          .compress(data, 1e-3));
  const std::size_t pos = fault::first_divergence(interp_raw, lorenzo_raw);
  ASSERT_LT(pos, interp_raw.size());
  for (const auto& [id, exit_code] :
       {std::pair<std::uint8_t, int>{kRetiredLorenzo2Id, 8}, {4, 3}}) {
    auto raw = interp_raw;
    raw[pos] = static_cast<std::uint8_t>(id << 1);
    write_bytes(path("id.cliz"), lossless_compress(raw));
    const auto [code, text] =
        run_capture("decompress " + path("id.cliz") + " -o " + path("id.f32"));
    EXPECT_EQ(code, exit_code) << text;
    EXPECT_EQ(text.find("retired") != std::string::npos, exit_code == 8)
        << text;
  }
}

TEST_F(CliTest, ForeignArchiveRecordsAreUnsupported) {
  // An archive record from a baseline codec lists, but extracting it is
  // refused as unsupported (exit 8) while its CliZ neighbour extracts.
  const NdArray<float> data = small_field();
  test::write_archive(
      path("f.clza"),
      {{"C", "cliz", data.shape().dims(),
        ClizCompressor(PipelineConfig::defaults(3)).compress(data, 1e-3)},
       {"Z", "zfp", data.shape().dims(),
        make_compressor("zfp")->compress(data, 1e-3)}});
  EXPECT_EQ(run_exit("archive-list " + path("f.clza")), 0);
  EXPECT_EQ(run_exit("info " + path("f.clza")), 0);
  EXPECT_EQ(run_exit("archive-extract " + path("f.clza") + " C -o " +
                     path("c.f32")),
            0);
  const auto [code, text] = run_capture("archive-extract " + path("f.clza") +
                                        " Z -o " + path("z.f32"));
  EXPECT_EQ(code, 8) << text;
  EXPECT_NE(text.find("Unsupported"), std::string::npos) << text;
  EXPECT_EQ(run_exit("archive-extract " + path("f.clza") + " Z -o " +
                     path("zw.f32") + " --region 0:2,0:2,0:2"),
            8);
}

TEST_F(CliTest, RetiredFormatsAreUnsupported) {
  // The checksum-less v1 fixtures, an RLE lossless frame and a v1 CLZA
  // archive are refused as unsupported (exit 8), and the message names the
  // retired format.
  const auto expect_retired = [&](const std::string& args) {
    const auto [code, text] = run_capture(args);
    EXPECT_EQ(code, 8) << args << "\n" << text;
    EXPECT_NE(text.find("retired"), std::string::npos) << args << "\n"
                                                       << text;
  };
  for (const char* file : {"v1_plain.cliz", "v1_masked.cliz",
                           "v1_periodic.cliz", "v1_chunked.clks"}) {
    const std::string in = std::string(CLIZ_GOLDEN_DIR) + "/" + file;
    expect_retired("decompress " + in + " -o " + path("x.f32"));
    expect_retired("info " + in);
  }
  write_bytes(path("rle.cliz"), {5, 4, 0, 0, 0, 0, 7, 4});
  expect_retired("decompress " + path("rle.cliz") + " -o " + path("x.f32"));

  const NdArray<float> data = small_field();
  test::write_v1_archive(
      path("v1.clza"),
      {{"C", "cliz", data.shape().dims(),
        ClizCompressor(PipelineConfig::defaults(3)).compress(data, 1e-3)}});
  const std::string archive = path("v1.clza");
  expect_retired("archive-list " + archive);
  expect_retired("archive-list " + archive + " --salvage");
  expect_retired("info " + archive);
  expect_retired("archive-extract " + archive + " C -o " + path("c.f32"));
}

TEST_F(CliTest, FramedFixturesDecompressLikeSerial) {
  // clizc no longer writes the per-pass framed container but still reads
  // it: each committed framed stream decodes to the bytes of its serial
  // twin, and --stats reports the framing the decoder walked.
  for (const framed_fixture::Fixture& fx : framed_fixture::all()) {
    SCOPED_TRACE(fx.file);
    const std::string in = std::string(CLIZ_GOLDEN_DIR) + "/" + fx.file;
    const auto [code, text] =
        run_capture("decompress " + in + " -o " + path("x.raw") + " --stats");
    ASSERT_EQ(code, 0) << text;
    EXPECT_NE(text.find("framing: per-pass (" + std::to_string(fx.segments) +
                        " segments)"),
              std::string::npos)
        << text;
    std::ifstream out(path("x.raw"), std::ios::binary);
    const std::vector<std::uint8_t> bytes{std::istreambuf_iterator<char>(out),
                                          std::istreambuf_iterator<char>()};
    EXPECT_EQ(bytes, framed_fixture::decode_bytes(fx.serial, fx.sample_bytes));
  }
}

TEST_F(CliTest, ChunkedStatsNameTheBackendsThatRan) {
  // A chunked or tiled compress reports its boxes' backends and counts,
  // not the defaults of an encode that never ran.
  ASSERT_EQ(run("gen Hurricane-T --scale 0.08 -o " + path("h.f32")), 0);
  for (const char* layout : {"--chunks 4", "--tile 8x16x16"}) {
    SCOPED_TRACE(layout);
    const auto [code, text] = run_capture(
        "compress " + path("h.f32") + " -d 24,48,48 -o " + path("h.clz") +
        " -r 1e-3 --predictor regression --entropy tans --stats " + layout);
    ASSERT_EQ(code, 0) << text;
    EXPECT_NE(text.find("predictor=regression entropy=tans simd="),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("codes=" + std::to_string(24 * 48 * 48) + " "),
              std::string::npos)
        << text;
  }
}

}  // namespace
}  // namespace cliz
