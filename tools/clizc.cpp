// clizc — command-line front end for the CliZ compression library.
//
//   clizc compress   <in.raw>  -d T,Y,X -o <out> [-e ABS | -r REL] [--f64]
//                    [--mask-fill] [--tune RATE] [--time-dim N]
//                    [--chunks N | --tile AxBx...] [--stats] [...]
//   clizc decompress <in>      -o <out.raw>
//   clizc extract    <in>      --region a:b,c:d,... -o <out.raw>
//   clizc info       <in>                      (compressed stream or .clza)
//   clizc analyze    <orig.f32> <recon.f32> -d T,Y,X [-e ABS]
//   clizc gen        <dataset> -o <out.f32> [--scale S]
//   clizc archive-create  <out.clza> NAME=FILE:DIMS ... [-r REL | -e ABS]
//   clizc archive-list    <in.clza>
//   clizc archive-extract <in.clza> <var> -o <out.raw> [--region ...]
//   clizc version
//
// `usage()` below lists every option. Raw data files are flat little-endian
// samples in row-major order: float32, or float64 for `compress --f64`.
// decompress, extract and archive-extract write the sample type the stream
// or archive variable records; analyze, gen and archive-create are float32.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/climate/datasets.hpp"
#include "src/common/cpu_features.hpp"
#include "src/common/crc32c.hpp"
#include "src/common/parallel.hpp"
#include "src/common/status.hpp"
#include "src/common/version.hpp"
#include "src/core/autotune.hpp"
#include "src/core/chunked.hpp"
#include "src/core/chunked_reader.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/io/archive.hpp"
#include "src/lossless/lossless.hpp"
#include "src/metrics/metrics.hpp"
#include "src/metrics/report.hpp"

namespace {

using namespace cliz;

/// Process-wide decode governor, set by the global --max-output-bytes /
/// --deadline-ms flags and threaded into every decode/archive path.
ResourceLimits g_limits;
CancelToken g_cancel;
bool g_governed = false;  ///< either flag given: pass the token along

const CancelToken* governor_cancel() { return g_governed ? &g_cancel : nullptr; }

[[noreturn]] void usage(const char* msg = nullptr) {
  if (msg != nullptr) std::fprintf(stderr, "clizc: %s\n\n", msg);
  std::fprintf(stderr, R"(usage:
  clizc compress   <in.f32>  -d T,Y,X -o <out> [-e ABS | -r REL]
                   [--mask-fill] [--f64] [--tune RATE] [--time-dim N]
                   [--chunks N] (N slabs along dim 0; 0 = one slab per
                                 8 MiB of raw data)
                   [--stats]
                   [--tile AxBx...]
                                (write the tile-indexed chunked layout —
                                 N-D tiles of the given per-dim size,
                                 0 = full extent — so windows decode via
                                 `extract --region` without touching the
                                 rest of the stream)
                   [--predictor interp|lorenzo1|regression]
                   [--entropy huffman|tans]
                   (force a stage backend; without these flags the
                    tuner picks the best backends per stream)
                   [--verify]   (decode-and-check the bound
                                 before writing; retries conservatively)
  clizc decompress <in>      -o <out.f32> [--stats]
                   (f64 and chunked streams auto-detected)
  clizc extract    <in> --region a:b,c:d,... -o <out.f32> [--stats]
                   (decodes one window of a chunked stream, reading
                    only the tiles it intersects; --stats reports tiles
                    touched and the compressed bytes-touched ratio)
  clizc info       <in>
                   (a single stream also lists its lossless frame: the
                    mode and, per section, raw and coded bytes and
                    stored or lz; chunked streams and archive variables
                    list their per-tile index: origin, extent, payload
                    offset/bytes and CRC status)
  clizc analyze    <orig.f32> <recon.f32> -d T,Y,X [-e ABS] [--mask-fill]
                   [--compressed-bytes N]
  clizc gen        <SSH|CESM-T|RELHUM|SOILLIQ|Tsfc|Hurricane-T|SALT|RHO|SHF_QSW>
                   -o <out.f32>
                   [--scale S]
  clizc archive-create  <out.clza> NAME=FILE:DIMS ...
                   [-r REL | -e ABS] [--mask-fill] [--tune RATE]
                   [--tile AxBx...]  (tile-indexed layout for variables
                    of matching rank: archive-extract --region then
                    seeks straight to the window's tiles)
  clizc archive-list    <in.clza> [--salvage]
  clizc archive-extract <in.clza> <var> -o <out.f32> [--salvage]
                   [--region a:b,c:d,...] [--stats]
                   (--region seeks straight to the intersecting tiles of a
                    chunked variable; other variables decode fully and crop)
  clizc version    (also --version; prints the library version and the
                    detected/active SIMD kernel tier)

--salvage opens the archive tolerantly: variables whose record checksums
verify are recovered even when the trailer or index is damaged, and the
salvage report is printed to stderr.
--threads N (any command) caps the worker threads used by the parallel
codec paths; streams are byte-identical for every setting.
CLIZ_SIMD=scalar|sse42|avx2 (environment) caps the SIMD tier: avx2 runs
the AVX2 predict/quantize kernels, sse42 keeps hardware CRC32C with scalar
kernels, scalar runs portable code only; streams are byte-identical at
every tier.
--max-output-bytes N (any command) rejects streams whose headers declare a
decoded size above N bytes (exit 4) before anything is allocated.
--deadline-ms N (any command) aborts decode/tune work cooperatively after
N milliseconds (exit 6).
raw files are flat little-endian float32, row-major (float64 with
compress --f64; decompress, extract and archive-extract write the sample
type the stream records).

exit codes: 0 ok, 2 bad arguments, 3 corrupt stream, 4 resource limit,
5 cancelled, 6 deadline, 7 I/O, 8 unsupported, 1 other error.
)");
  std::exit(2);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    throw cliz::Error(cliz::ErrorCode::kIo, "cannot open " + path);
  }
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const void* data, std::size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(size));
  if (!out.good()) {
    throw cliz::Error(cliz::ErrorCode::kIo, "cannot write " + path);
  }
}

DimVec parse_dims(const std::string& spec) {
  DimVec dims;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const long long v = std::atoll(tok.c_str());
    if (v <= 0) usage("bad dimension list");
    dims.push_back(static_cast<std::size_t>(v));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (dims.empty()) usage("empty dimension list");
  return dims;
}

/// Parses a tile spec "8x32x32" (0 = full extent along that dim).
DimVec parse_tile(const std::string& spec) {
  DimVec tile;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t x = spec.find('x', pos);
    const std::string tok = spec.substr(
        pos, x == std::string::npos ? std::string::npos : x - pos);
    const long long v = std::atoll(tok.c_str());
    if (v < 0 || tok.empty()) usage("bad tile spec");
    tile.push_back(static_cast<std::size_t>(v));
    if (x == std::string::npos) break;
    pos = x + 1;
  }
  if (tile.empty()) usage("empty tile spec");
  return tile;
}

/// Parses a window spec "a:b,c:d,..." into per-dim [start, stop) pairs.
struct Region {
  DimVec origin;
  DimVec extent;
};
Region parse_region(const std::string& spec) {
  Region r;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string tok = spec.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    const std::size_t colon = tok.find(':');
    if (colon == std::string::npos) usage("--region expects a:b,c:d,...");
    const long long a = std::atoll(tok.substr(0, colon).c_str());
    const long long b = std::atoll(tok.substr(colon + 1).c_str());
    if (a < 0 || b <= a) usage("--region needs 0 <= start < stop per dim");
    r.origin.push_back(static_cast<std::size_t>(a));
    r.extent.push_back(static_cast<std::size_t>(b - a));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (r.origin.empty()) usage("empty --region spec");
  return r;
}

std::string dims_to_string(const DimVec& v) {
  std::string s;
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ',';
    s += std::to_string(v[i]);
  }
  return s;
}

void print_region_stats(const RegionStats& rs) {
  const double pct =
      rs.frame_compressed_bytes > 0
          ? 100.0 * static_cast<double>(rs.compressed_bytes_touched) /
                static_cast<double>(rs.frame_compressed_bytes)
          : 0.0;
  std::fprintf(stderr,
               "region: tiles total=%zu intersecting=%zu decoded=%zu "
               "cached=%zu, compressed bytes touched %llu/%llu (%.1f%%)\n",
               rs.tiles_total, rs.tiles_intersecting, rs.tiles_decoded,
               rs.tiles_from_cache,
               static_cast<unsigned long long>(rs.compressed_bytes_touched),
               static_cast<unsigned long long>(rs.frame_compressed_bytes),
               pct);
}

/// Per-tile index table of a chunked frame held in memory; the CRC column
/// re-hashes each payload against the index.
void print_tile_table(const ChunkedReader& reader,
                      std::span<const std::uint8_t> frame) {
  std::printf("  %-5s %-16s %-16s %12s %12s  %s\n", "tile", "origin",
              "extent", "offset", "bytes", "crc");
  const auto tiles = reader.tiles();
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const TileRecord& t = tiles[i];
    const auto payload = frame.subspan(static_cast<std::size_t>(t.offset),
                                       static_cast<std::size_t>(t.n_bytes));
    const char* crc_status = crc32c(payload) == t.crc ? "ok" : "BAD";
    std::printf("  %-5zu %-16s %-16s %12llu %12llu  %s\n", i,
                dims_to_string(t.origin).c_str(),
                dims_to_string(t.extent).c_str(),
                static_cast<unsigned long long>(t.offset),
                static_cast<unsigned long long>(t.n_bytes), crc_status);
  }
}

const char* lossless_mode_name(std::uint8_t mode) {
  switch (mode) {
    case 2: return "stored";
    case 3: return "lz";
    case 4: return "blocks";
    case 6: return "sections";
    default: return "?";
  }
}

/// The lossless frame of a single stream, read from its headers alone: its
/// mode and, for a sectioned frame, each section's decoded and coded bytes
/// and whether it was stored or LZ-coded.
void print_lossless_frame(std::span<const std::uint8_t> stream) {
  const LosslessFrameInfo f = describe_lossless_frame(stream, g_limits);
  std::printf("lossless frame: mode %u (%s), %llu bytes decoded\n",
              static_cast<unsigned>(f.mode), lossless_mode_name(f.mode),
              static_cast<unsigned long long>(f.raw_bytes));
  if (f.sections.empty()) return;
  std::printf("  %-8s %12s %12s  %s\n", "section", "raw", "coded", "coding");
  for (std::size_t i = 0; i < f.sections.size(); ++i) {
    const LosslessSectionInfo& s = f.sections[i];
    std::printf("  %-8zu %12llu %12llu  %s\n", i,
                static_cast<unsigned long long>(s.raw_bytes),
                static_cast<unsigned long long>(s.coded_bytes),
                lossless_mode_name(s.mode));
  }
}

void print_pool_stats(const ChunkedScratch& scratch) {
  const auto s = scratch.pool.stats();
  std::fprintf(stderr,
               "context pool: %zu context(s), %llu checkout(s), "
               "%llu warm hit(s)\n",
               s.contexts, static_cast<unsigned long long>(s.checkouts),
               static_cast<unsigned long long>(s.warm_hits));
}

/// Tiny argv cursor.
struct Args {
  int argc;
  char** argv;
  int pos = 2;

  bool done() const { return pos >= argc; }
  std::string next(const char* what) {
    if (done()) usage((std::string("missing ") + what).c_str());
    return argv[pos++];
  }
};

template <typename T>
NdArray<T> load_raw(const std::string& path, const DimVec& dims) {
  const Shape shape(dims);
  const auto bytes = read_file(path);
  if (bytes.size() != shape.size() * sizeof(T)) {
    throw cliz::Error(cliz::ErrorCode::kBadArgument,
                      path + " is " + std::to_string(bytes.size()) +
                          " bytes but dims " + shape.to_string() + " need " +
                          std::to_string(shape.size() * sizeof(T)) +
                          " bytes");
  }
  std::vector<T> values(shape.size());
  std::memcpy(values.data(), bytes.data(), bytes.size());
  return NdArray<T>(shape, std::move(values));
}

/// The tuner ranks pipelines on float32 samples: float32 data is tuned in
/// place, float64 data on a downcast copy (ranking only, so the lost
/// precision is harmless).
const NdArray<float>& tuning_view(const NdArray<float>& data) { return data; }
NdArray<float> tuning_view(const NdArray<double>& data) {
  NdArray<float> view(data.shape());
  for (std::size_t i = 0; i < data.size(); ++i) {
    view[i] = static_cast<float>(data[i]);
  }
  return view;
}

/// A relative bound without --mask-fill spans every value, so the CESM
/// fill values (~1e36) of a masked field make it uselessly loose; non-finite
/// values are coded as data. Says so on stderr when `data` holds any value
/// that --mask-fill would mask.
template <Sample T>
void warn_unmasked_fill(const NdArray<T>& data, const std::string& name) {
  const std::size_t masked =
      data.size() - MaskMap::from_fill_values(data).count_valid();
  if (masked == 0) return;
  std::fprintf(stderr,
               "clizc: warning: %s holds %zu non-finite or fill values "
               "(|x| >= 1e30) and the relative bound spans them; pass "
               "--mask-fill to mask them\n",
               name.c_str(), masked);
}

int cmd_compress(Args& args) {
  const std::string input = args.next("input file");
  std::optional<DimVec> dims;
  std::string output;
  std::optional<double> abs_eb;
  double rel_eb = 1e-3;
  bool mask_fill = false;
  bool f64 = false;
  bool show_stats = false;
  bool verify = false;
  double tune_rate = 0.01;
  std::size_t time_dim = 0;
  std::size_t chunks = 0;
  bool chunked = false;
  DimVec tile;
  std::optional<PredictorBackend> predictor;
  std::optional<EntropyBackend> entropy;

  while (!args.done()) {
    const std::string opt = args.next("option");
    if (opt == "-d") {
      dims = parse_dims(args.next("dims"));
    } else if (opt == "-o") {
      output = args.next("output path");
    } else if (opt == "-e") {
      abs_eb = std::atof(args.next("absolute bound").c_str());
    } else if (opt == "-r") {
      rel_eb = std::atof(args.next("relative bound").c_str());
    } else if (opt == "--mask-fill") {
      mask_fill = true;
    } else if (opt == "--f64") {
      f64 = true;
    } else if (opt == "--tune") {
      tune_rate = std::atof(args.next("sampling rate").c_str());
    } else if (opt == "--time-dim") {
      time_dim = static_cast<std::size_t>(
          std::atoll(args.next("time dim").c_str()));
    } else if (opt == "--chunks") {
      chunked = true;
      chunks = static_cast<std::size_t>(
          std::atoll(args.next("chunk count").c_str()));
    } else if (opt == "--tile") {
      chunked = true;
      tile = parse_tile(args.next("tile spec"));
    } else if (opt == "--stats") {
      show_stats = true;
    } else if (opt == "--verify") {
      verify = true;
    } else if (opt == "--predictor" || opt.rfind("--predictor=", 0) == 0) {
      const std::string v = opt == "--predictor" ? args.next("predictor backend")
                                                 : opt.substr(12);
      predictor = parse_predictor_backend(v);
      if (!predictor.has_value()) {
        usage("--predictor expects interp, lorenzo1 or regression");
      }
    } else if (opt == "--entropy" || opt.rfind("--entropy=", 0) == 0) {
      const std::string v =
          opt == "--entropy" ? args.next("entropy backend") : opt.substr(10);
      entropy = parse_entropy_backend(v);
      if (!entropy.has_value()) usage("--entropy expects huffman or tans");
    } else {
      usage(("unknown option " + opt).c_str());
    }
  }
  if (!dims.has_value()) usage("compress needs -d DIMS");
  if (output.empty()) usage("compress needs -o OUTPUT");
  if (!tile.empty() && dims.has_value() && tile.size() != dims->size()) {
    usage("--tile arity must match -d DIMS");
  }
  ClizOptions cliz_opts;
  // Flows into autotune trials, chunked workers and the direct codec, so
  // --deadline-ms covers the whole encode.
  cliz_opts.cancel = governor_cancel();
  cliz_opts.verify_encode = verify;
  if (predictor.has_value()) cliz_opts.predictor = *predictor;
  if (entropy.has_value()) cliz_opts.entropy = *entropy;
  // A user-forced backend is final; otherwise the tuner trials that axis of
  // the grid and its choice is adopted below.
  const bool tune_predictor = !predictor.has_value();
  const bool tune_backends = !entropy.has_value();

  return with_sample_type(f64 ? 8 : 4, [&]<typename T>() {
    const auto data = load_raw<T>(input, *dims);
    if (!mask_fill && !abs_eb.has_value()) warn_unmasked_fill(data, input);
    std::optional<MaskMap> mask;
    if (mask_fill) mask = MaskMap::from_fill_values(data);
    const MaskMap* mask_ptr = mask.has_value() ? &*mask : nullptr;
    const double eb =
        abs_eb.has_value()
            ? *abs_eb
            : abs_bound_from_relative(data.flat(), rel_eb, mask_ptr);

    // Tune, adopt the tuner's backend choices, then compress `data` as one
    // stream or a chunked frame.
    AutotuneOptions opts;
    opts.sampling_rate = tune_rate;
    opts.time_dim = time_dim;
    opts.codec = cliz_opts;
    opts.consider_backends = tune_backends;
    opts.consider_predictors = tune_predictor;
    const auto tuned = autotune(tuning_view(data), eb, mask_ptr, opts);
    if (tune_predictor) cliz_opts.predictor = tuned.best_predictor;
    if (tune_backends) cliz_opts.entropy = tuned.best_entropy;
    std::fprintf(stderr,
                 "tuned pipeline: %s [predictor=%s entropy=%s] "
                 "(%zu candidates, %.2f s)\n",
                 tuned.best.label().c_str(),
                 predictor_backend_name(cliz_opts.predictor),
                 entropy_backend_name(cliz_opts.entropy),
                 tuned.candidates.size(), tuned.tuning_seconds);
    if (show_stats) {
      std::fprintf(stderr, "autotune: %s\n", tuned.to_json().c_str());
    }
    std::vector<std::uint8_t> stream;
    if (chunked) {
      ChunkedScratch scratch;
      ChunkedOptions copts;
      copts.chunks = chunks;
      copts.tile = tile;
      copts.scratch = &scratch;
      copts.codec = cliz_opts;
      stream = chunked_compress(data, eb, tuned.best, mask_ptr, copts);
      if (show_stats) {
        std::fputs(scratch.stats.to_text().c_str(), stderr);
        print_pool_stats(scratch);
      }
    } else {
      CodecContext cctx;
      stream = ClizCompressor(tuned.best, cliz_opts)
                   .compress(data, eb, mask_ptr, cctx);
      if (show_stats) std::fputs(cctx.stats.to_text().c_str(), stderr);
    }
    write_file(output, stream.data(), stream.size());
    std::fprintf(stderr,
                 "cliz: %zu -> %zu bytes (float%zu, ratio %.2fx, %.3f "
                 "bits/value, abs bound %.4g)\n",
                 data.size() * sizeof(T), stream.size(), 8 * sizeof(T),
                 compression_ratio(data.size() * sizeof(T), stream.size()),
                 bit_rate(data.size(), stream.size()), eb);
    return 0;
  });
}

int cmd_decompress(Args& args) {
  const std::string input = args.next("input file");
  std::string output;
  bool show_stats = false;
  while (!args.done()) {
    const std::string opt = args.next("option");
    if (opt == "-o") {
      output = args.next("output path");
    } else if (opt == "--stats") {
      show_stats = true;
    } else {
      usage(("unknown option " + opt).c_str());
    }
  }
  if (output.empty()) usage("decompress needs -o OUTPUT");

  const auto stream = read_file(input);
  const bool chunked = is_chunked_stream(stream);
  const unsigned width =
      chunked ? ChunkedReader(stream, g_limits).sample_bytes()
              : detect_sample_bytes(stream, g_limits);
  return with_sample_type(width, [&]<typename T>() {
    // Both paths decode under the global limit / deadline flags.
    NdArray<T> data;
    if (chunked) {
      ChunkedScratch scratch;
      scratch.pool.set_governor(g_limits, governor_cancel());
      data = chunked_decompress<T>(stream, &scratch);
      if (show_stats) print_pool_stats(scratch);
    } else {
      CodecContext ctx;
      ctx.limits = g_limits;
      ctx.cancel = governor_cancel();
      data = ClizCompressor::decompress<T>(stream, ctx);
      if (show_stats) std::fputs(ctx.stats.to_text().c_str(), stderr);
    }
    write_file(output, data.data(), data.size() * sizeof(T));
    std::fprintf(stderr, "%s -> %s %s (%zu float%zu values%s)\n",
                 input.c_str(), output.c_str(),
                 data.shape().to_string().c_str(), data.size(), 8 * sizeof(T),
                 chunked ? ", chunked" : "");
    return 0;
  });
}

int cmd_extract(Args& args) {
  const std::string input = args.next("input file");
  std::string output;
  std::optional<Region> region;
  bool show_stats = false;
  while (!args.done()) {
    const std::string opt = args.next("option");
    if (opt == "-o") {
      output = args.next("output path");
    } else if (opt == "--region") {
      region = parse_region(args.next("region spec"));
    } else if (opt == "--stats") {
      show_stats = true;
    } else {
      usage(("unknown option " + opt).c_str());
    }
  }
  if (output.empty()) usage("extract needs -o OUTPUT");
  if (!region.has_value()) usage("extract needs --region a:b,c:d,...");

  const auto stream = read_file(input);
  if (!is_chunked_stream(stream)) {
    throw cliz::Error(cliz::ErrorCode::kBadArgument,
                      "clizc: extract --region needs a chunked stream "
                      "(compress with --tile or --chunks)");
  }
  const ChunkedReader reader(stream, g_limits, governor_cancel());
  ChunkedScratch scratch;
  RegionOptions ropts;
  ropts.scratch = &scratch;
  const Shape out_shape{DimVec(region->extent)};
  const RegionStats rs =
      with_sample_type(reader.sample_bytes(), [&]<typename T>() {
        std::vector<T> out(out_shape.size());
        const RegionStats stats = reader.decompress_region(
            region->origin, region->extent, std::span<T>(out), ropts);
        write_file(output, out.data(), out.size() * sizeof(T));
        return stats;
      });
  std::fprintf(stderr, "%s [%s from %s] -> %s (%zu values)\n", input.c_str(),
               out_shape.to_string().c_str(),
               reader.shape().to_string().c_str(), output.c_str(),
               out_shape.size());
  if (show_stats) {
    print_region_stats(rs);
    print_pool_stats(scratch);
  }
  return 0;
}

bool looks_like_archive(const std::vector<std::uint8_t>& bytes) {
  return bytes.size() >= 4 && bytes[0] == 0x41 && bytes[1] == 0x5A &&
         bytes[2] == 0x4C && bytes[3] == 0x43;  // little-endian "CLZA"
}

int cmd_info(Args& args) {
  const std::string input = args.next("input file");
  const auto bytes = read_file(input);
  if (looks_like_archive(bytes)) {
    const ArchiveReader reader(input, ArchiveOpenMode::kStrict, g_limits,
                               governor_cancel());
    std::printf("CLZA archive with %zu variable(s)\n",
                reader.variables().size());
    for (const auto& v : reader.variables()) {
      const Shape shape(v.dims);
      std::printf("  %-12s %-14s codec=%-6s eb=%.4g  %llu bytes (%.2fx)\n",
                  v.name.c_str(), shape.to_string().c_str(), v.codec.c_str(),
                  v.error_bound,
                  static_cast<unsigned long long>(v.compressed_bytes),
                  compression_ratio(shape.size() * v.sample_bytes,
                                    static_cast<std::size_t>(
                                        v.compressed_bytes)));
      if (v.codec != "cliz") continue;
      const auto raw = reader.read_raw(v.name);
      if (!is_chunked_stream(raw)) continue;
      const ChunkedReader tiles(raw, g_limits, governor_cancel());
      print_tile_table(tiles, raw);
    }
    return 0;
  }
  if (is_chunked_stream(bytes)) {
    // The tile index answers everything info needs — no payload decode.
    const ChunkedReader reader(bytes, g_limits, governor_cancel());
    const unsigned width = reader.sample_bytes();
    const Shape& shape = reader.shape();
    std::printf(
        "chunked cliz stream: %s, %zu float%u values, %zu tile(s), %zu "
        "compressed bytes (%.2fx)\n",
        shape.to_string().c_str(), shape.size(), width * 8,
        reader.tiles().size(), bytes.size(),
        compression_ratio(shape.size() * width, bytes.size()));
    print_tile_table(reader, bytes);
    return 0;
  }
  CodecContext ctx;
  ctx.limits = g_limits;
  ctx.cancel = governor_cancel();
  const unsigned width = detect_sample_bytes(bytes, g_limits);
  const Shape shape = with_sample_type(width, [&]<typename T>() {
    return ClizCompressor::decompress<T>(bytes, ctx).shape();
  });
  std::printf(
      "cliz stream: %s, %zu float%u values, %zu compressed bytes (%.2fx)\n",
      shape.to_string().c_str(), shape.size(), width * 8, bytes.size(),
      compression_ratio(shape.size() * width, bytes.size()));
  print_lossless_frame(bytes);
  return 0;
}

int cmd_gen(Args& args) {
  const std::string name = args.next("dataset name");
  std::string output;
  double scale = 0.0;
  while (!args.done()) {
    const std::string opt = args.next("option");
    if (opt == "-o") {
      output = args.next("output path");
    } else if (opt == "--scale") {
      scale = std::atof(args.next("scale").c_str());
    } else {
      usage(("unknown option " + opt).c_str());
    }
  }
  if (output.empty()) usage("gen needs -o OUTPUT");
  const ClimateField field =
      scale > 0.0 ? make_dataset(name, scale) : make_dataset(name);
  write_file(output, field.data.data(), field.data.size() * sizeof(float));
  std::fprintf(stderr, "%s %s -> %s (%zu values%s)\n", field.name.c_str(),
               field.data.shape().to_string().c_str(), output.c_str(),
               field.data.size(),
               field.mask.has_value() ? ", masked: use --mask-fill" : "");
  return 0;
}

int cmd_analyze(Args& args) {
  const std::string orig_path = args.next("original file");
  const std::string recon_path = args.next("reconstruction file");
  std::optional<DimVec> dims;
  double eb = 0.0;
  bool mask_fill = false;
  std::size_t compressed_bytes = 0;
  while (!args.done()) {
    const std::string opt = args.next("option");
    if (opt == "-d") {
      dims = parse_dims(args.next("dims"));
    } else if (opt == "-e") {
      eb = std::atof(args.next("absolute bound").c_str());
    } else if (opt == "--mask-fill") {
      mask_fill = true;
    } else if (opt == "--compressed-bytes") {
      compressed_bytes = static_cast<std::size_t>(
          std::atoll(args.next("byte count").c_str()));
    } else {
      usage(("unknown option " + opt).c_str());
    }
  }
  if (!dims.has_value()) usage("analyze needs -d DIMS");

  const auto original = load_raw<float>(orig_path, *dims);
  const auto recon = load_raw<float>(recon_path, *dims);
  std::optional<MaskMap> mask;
  if (mask_fill) mask = MaskMap::from_fill_values(original);
  const auto report =
      quality_report(original, recon, mask.has_value() ? &*mask : nullptr,
                     eb, compressed_bytes);
  std::fputs(report.to_text().c_str(), stdout);
  return report.bound_satisfied ? 0 : 3;
}

int cmd_archive_create(Args& args) {
  const std::string output = args.next("archive path");
  double rel_eb = 1e-3;
  std::optional<double> abs_eb;
  bool mask_fill = false;
  double tune_rate = 0.01;
  DimVec tile;
  std::vector<std::string> specs;
  while (!args.done()) {
    const std::string opt = args.next("spec or option");
    if (opt == "-r") {
      rel_eb = std::atof(args.next("relative bound").c_str());
    } else if (opt == "-e") {
      abs_eb = std::atof(args.next("absolute bound").c_str());
    } else if (opt == "--mask-fill") {
      mask_fill = true;
    } else if (opt == "--tune") {
      tune_rate = std::atof(args.next("sampling rate").c_str());
    } else if (opt == "--tile") {
      tile = parse_tile(args.next("tile spec"));
    } else {
      specs.push_back(opt);
    }
  }
  if (specs.empty()) {
    usage("archive-create needs at least one NAME=FILE:DIMS spec");
  }

  ArchiveWriter writer(output);
  if (!tile.empty()) writer.set_tile(tile);
  for (const std::string& spec : specs) {
    // NAME=FILE:DIMS
    const std::size_t eq = spec.find('=');
    const std::size_t colon = spec.find(':', eq);
    if (eq == std::string::npos || colon == std::string::npos ||
        spec.find(':', colon + 1) != std::string::npos) {
      usage(("bad spec " + spec + " (expected NAME=FILE:DIMS)").c_str());
    }
    const std::string name = spec.substr(0, eq);
    const std::string file = spec.substr(eq + 1, colon - eq - 1);
    const DimVec dims = parse_dims(spec.substr(colon + 1));
    const auto data = load_raw<float>(file, dims);
    if (!mask_fill && !abs_eb.has_value()) warn_unmasked_fill(data, file);
    std::optional<MaskMap> mask;
    if (mask_fill) mask = MaskMap::from_fill_values(data);
    const MaskMap* mask_ptr = mask.has_value() ? &*mask : nullptr;
    const double eb = abs_eb.has_value()
                          ? *abs_eb
                          : abs_bound_from_relative(data.flat(), rel_eb,
                                                    mask_ptr);
    // --deadline-ms covers the tuning trials and the variable's encode.
    AutotuneOptions opts;
    opts.sampling_rate = tune_rate;
    opts.codec.cancel = governor_cancel();
    const auto tuned = autotune(data, eb, mask_ptr, opts);
    ClizOptions var_opts;
    var_opts.cancel = governor_cancel();
    var_opts.predictor = tuned.best_predictor;
    var_opts.entropy = tuned.best_entropy;
    writer.add_variable(name, data, eb, tuned.best, mask_ptr,
                        {{"source", file}, {"pipeline", tuned.best.label()}},
                        var_opts);
    std::fprintf(stderr, "added %s (%s, %s, eb %.4g)\n", name.c_str(),
                 Shape(dims).to_string().c_str(),
                 tuned.best.label().c_str(), eb);
  }
  writer.finish();
  std::fprintf(stderr, "wrote %s with %zu variable(s)\n", output.c_str(),
               specs.size());
  return 0;
}

int cmd_archive_list(Args& args) {
  const std::string input = args.next("archive path");
  bool salvage = false;
  while (!args.done()) {
    const std::string opt = args.next("option");
    if (opt == "--salvage") {
      salvage = true;
    } else {
      usage(("unknown option " + opt).c_str());
    }
  }
  const ArchiveReader reader(
      input, salvage ? ArchiveOpenMode::kTolerant : ArchiveOpenMode::kStrict,
      g_limits, governor_cancel());
  if (salvage) std::fputs(reader.salvage().to_text().c_str(), stderr);
  for (const auto& v : reader.variables()) {
    std::printf("%s\n", v.name.c_str());
  }
  return 0;
}

int cmd_archive_extract(Args& args) {
  const std::string input = args.next("archive path");
  const std::string var = args.next("variable name");
  std::string output;
  bool salvage = false;
  bool show_stats = false;
  std::optional<Region> region;
  while (!args.done()) {
    const std::string opt = args.next("option");
    if (opt == "-o") {
      output = args.next("output path");
    } else if (opt == "--salvage") {
      salvage = true;
    } else if (opt == "--region") {
      region = parse_region(args.next("region spec"));
    } else if (opt == "--stats") {
      show_stats = true;
    } else {
      usage(("unknown option " + opt).c_str());
    }
  }
  if (output.empty()) usage("archive-extract needs -o OUTPUT");
  const ArchiveReader reader(
      input, salvage ? ArchiveOpenMode::kTolerant : ArchiveOpenMode::kStrict,
      g_limits, governor_cancel());
  if (salvage) std::fputs(reader.salvage().to_text().c_str(), stderr);
  return with_sample_type(reader.info(var).sample_bytes, [&]<typename T>() {
    if (region.has_value()) {
      RegionStats rs;
      const auto data = reader.read_region<T>(var, region->origin,
                                              region->extent, nullptr, &rs);
      write_file(output, data.data(), data.size() * sizeof(T));
      std::fprintf(stderr, "extracted %s [%s] -> %s\n", var.c_str(),
                   data.shape().to_string().c_str(), output.c_str());
      if (show_stats) print_region_stats(rs);
      return 0;
    }
    const auto data = reader.read<T>(var);
    write_file(output, data.data(), data.size() * sizeof(T));
    std::fprintf(stderr, "extracted %s %s -> %s\n", var.c_str(),
                 data.shape().to_string().c_str(), output.c_str());
    return 0;
  });
}

}  // namespace

int main(int argc, char** argv) {
  // Global options, stripped before command dispatch. --threads N sets the
  // worker-thread count for every parallel codec path (output streams do
  // not depend on it); --max-output-bytes / --deadline-ms arm the decode
  // governor shared by every command.
  for (int i = 1; i < argc;) {
    const auto take_value = [&](const char* what) -> const char* {
      if (i + 1 >= argc) usage((std::string(what) + " needs a value").c_str());
      return argv[i + 1];
    };
    const auto strip_pair = [&] {
      for (int j = i; j + 2 < argc; ++j) argv[j] = argv[j + 2];
      argc -= 2;
    };
    if (std::strcmp(argv[i], "--threads") == 0) {
      const int n = std::atoi(take_value("--threads"));
      if (n < 1) usage("--threads needs a positive thread count");
      cliz::set_thread_count(n);
      strip_pair();
    } else if (std::strcmp(argv[i], "--max-output-bytes") == 0) {
      const long long n = std::atoll(take_value("--max-output-bytes"));
      if (n < 1) usage("--max-output-bytes needs a positive byte count");
      g_limits.max_output_bytes = static_cast<std::uint64_t>(n);
      g_governed = true;
      strip_pair();
    } else if (std::strcmp(argv[i], "--deadline-ms") == 0) {
      const long long n = std::atoll(take_value("--deadline-ms"));
      if (n < 1) usage("--deadline-ms needs a positive millisecond count");
      g_cancel.set_deadline_after(std::chrono::milliseconds(n));
      g_governed = true;
      strip_pair();
    } else {
      ++i;
    }
  }
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  Args args{argc, argv};
  try {
    if (cmd == "version" || cmd == "--version") {
      std::printf("clizc %s (simd: active=%s detected=%s)\n", cliz::version(),
                  cliz::simd_tier_name(cliz::active_simd_tier()),
                  cliz::simd_tier_name(cliz::detected_simd_tier()));
      return 0;
    }
    if (cmd == "compress") return cmd_compress(args);
    if (cmd == "decompress") return cmd_decompress(args);
    if (cmd == "extract") return cmd_extract(args);
    if (cmd == "info") return cmd_info(args);
    if (cmd == "analyze") return cmd_analyze(args);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "archive-create") return cmd_archive_create(args);
    if (cmd == "archive-list") return cmd_archive_list(args);
    if (cmd == "archive-extract") return cmd_archive_extract(args);
    usage(("unknown command " + cmd).c_str());
  } catch (const cliz::Error& e) {
    // One process exit code per taxonomy category, so scripts driving
    // clizc can branch on the failure class without parsing stderr.
    std::fprintf(stderr, "clizc: [%s] %s\n",
                 cliz::error_code_name(e.code()), e.what());
    switch (e.code()) {
      case cliz::ErrorCode::kBadArgument: return 2;
      case cliz::ErrorCode::kCorruptStream: return 3;
      case cliz::ErrorCode::kLimitExceeded: return 4;
      case cliz::ErrorCode::kCancelled: return 5;
      case cliz::ErrorCode::kDeadlineExceeded: return 6;
      case cliz::ErrorCode::kIo: return 7;
      case cliz::ErrorCode::kUnsupported: return 8;
    }
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "clizc: %s\n", e.what());
    return 1;
  }
}
