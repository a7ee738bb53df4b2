// clizc — command-line front end for the CliZ compression library.
//
//   clizc compress   <in.f32>  -d T,Y,X -o <out> [-e ABS | -r REL]
//                    [-c cliz|sz3|qoz|zfp|sperr] [--mask-fill] [--tune RATE]
//                    [--time-dim N]
//   clizc decompress <in>      -o <out.f32>
//   clizc info       <in>                      (compressed stream or .clza)
//   clizc gen        <dataset> -o <out.f32> [--scale S]
//   clizc archive-list    <in.clza>
//   clizc archive-extract <in.clza> <var> -o <out.f32>
//
// Raw data files are flat little-endian float32 in row-major order.
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
#include "src/core/compressor.hpp"
#include "src/io/archive.hpp"
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
                   [-c cliz|sz3|qoz|zfp|sperr|sz2] [--mask-fill] [--f64]
                   [--tune RATE] [--time-dim N] [--chunks N] [--stats]
                   [--tile AxBx...]
                                (cliz only: write the tile-indexed chunked
                                 layout — N-D tiles of the given per-dim
                                 size, 0 = full extent — so windows decode
                                 via `extract --region` without touching
                                 the rest of the stream)
                   [--predictor interp|lorenzo1|regression]
                   [--entropy huffman|tans] [--lossless lz|store]
                   (cliz only: force a stage backend; without these flags
                    the tuner picks the best backends per stream)
                   [--verify]   (cliz only: decode-and-check the bound
                                 before writing; retries conservatively)
                   [--frame-passes]
                                (cliz only: per-pass entropy framing for
                                 parallel decode; the tuner drops it when
                                 the offset table costs too much ratio)
  clizc decompress <in>      -o <out.f32> [--stats]
                   (f64 and chunked streams auto-detected)
  clizc extract    <in> --region a:b,c:d,... -o <out.f32> [--stats]
                   (decodes one window of a chunked cliz stream, reading
                    only the tiles it intersects; --stats reports tiles
                    touched and the compressed bytes-touched ratio)
  clizc info       <in>
                   (chunked streams and archive variables additionally
                    list their per-tile index: origin, extent, payload
                    offset/bytes and CRC status)
  clizc analyze    <orig.f32> <recon.f32> -d T,Y,X [-e ABS] [--mask-fill]
                   [--compressed-bytes N]
  clizc gen        <SSH|CESM-T|RELHUM|SOILLIQ|Tsfc|Hurricane-T|SALT|RHO|SHF_QSW>
                   -o <out.f32>
                   [--scale S]
  clizc archive-create  <out.clza> NAME=FILE:DIMS[:CODEC] ...
                   [-r REL | -e ABS] [--mask-fill] [--tune RATE]
                   [--tile AxBx...]  (tile-indexed layout for cliz
                    variables of matching rank: archive-extract --region
                    then seeks straight to the window's tiles)
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
raw files are flat little-endian float32, row-major.

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
/// re-hashes each payload against the index ("-" for legacy CRC-less v1).
void print_tile_table(const ChunkedReader& reader,
                      std::span<const std::uint8_t> frame) {
  std::printf("  %-5s %-16s %-16s %12s %12s  %s\n", "tile", "origin",
              "extent", "offset", "bytes", "crc");
  const auto tiles = reader.tiles();
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    const TileRecord& t = tiles[i];
    const char* crc_status = "-";
    if (t.has_crc) {
      const auto payload =
          frame.subspan(static_cast<std::size_t>(t.offset),
                        static_cast<std::size_t>(t.n_bytes));
      crc_status = crc32c(payload) == t.crc ? "ok" : "BAD";
    }
    std::printf("  %-5zu %-16s %-16s %12llu %12llu  %s\n", i,
                dims_to_string(t.origin).c_str(),
                dims_to_string(t.extent).c_str(),
                static_cast<unsigned long long>(t.offset),
                static_cast<unsigned long long>(t.n_bytes), crc_status);
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
NdArray<T> load_raw_t(const std::string& path, const DimVec& dims) {
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

NdArray<float> load_raw(const std::string& path, const DimVec& dims) {
  return load_raw_t<float>(path, dims);
}

int cmd_compress(Args& args) {
  const std::string input = args.next("input file");
  std::optional<DimVec> dims;
  std::string output;
  std::string codec = "cliz";
  std::optional<double> abs_eb;
  double rel_eb = 1e-3;
  bool mask_fill = false;
  bool f64 = false;
  bool show_stats = false;
  bool verify = false;
  bool frame_passes = false;
  double tune_rate = 0.01;
  std::size_t time_dim = 0;
  std::size_t chunks = 0;
  bool chunked = false;
  DimVec tile;
  std::optional<PredictorBackend> predictor;
  std::optional<EntropyBackend> entropy;
  std::optional<LosslessBackend> lossless;

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
    } else if (opt == "-c") {
      codec = args.next("codec name");
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
    } else if (opt == "--frame-passes") {
      frame_passes = true;
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
    } else if (opt == "--lossless" || opt.rfind("--lossless=", 0) == 0) {
      const std::string v =
          opt == "--lossless" ? args.next("lossless backend") : opt.substr(11);
      lossless = parse_lossless_backend(v);
      if (!lossless.has_value()) usage("--lossless expects lz or store");
    } else {
      usage(("unknown option " + opt).c_str());
    }
  }
  if (!dims.has_value()) usage("compress needs -d DIMS");
  if (output.empty()) usage("compress needs -o OUTPUT");
  if (chunked && codec != "cliz") {
    usage("--chunks/--tile are only supported with -c cliz");
  }
  if (!tile.empty() && dims.has_value() && tile.size() != dims->size()) {
    usage("--tile arity must match -d DIMS");
  }
  if (verify && codec != "cliz") {
    usage("--verify is only supported with -c cliz");
  }
  if (frame_passes && codec != "cliz") {
    usage("--frame-passes is only supported with -c cliz");
  }
  if ((predictor.has_value() || entropy.has_value() || lossless.has_value()) &&
      codec != "cliz") {
    usage("--predictor/--entropy/--lossless are only supported with -c cliz");
  }
  ClizOptions cliz_opts;
  // Flows into autotune trials, chunked workers and the direct codec, so
  // --deadline-ms covers the whole encode.
  cliz_opts.cancel = governor_cancel();
  cliz_opts.verify_encode = verify;
  cliz_opts.frame_passes = frame_passes;
  if (predictor.has_value()) cliz_opts.predictor = *predictor;
  if (entropy.has_value()) cliz_opts.entropy = *entropy;
  if (lossless.has_value()) cliz_opts.lossless = *lossless;
  // A user-forced backend is final; otherwise the tuner trials that axis of
  // the grid and its choice is adopted below.
  const bool tune_predictor = !predictor.has_value();
  const bool tune_backends = !entropy.has_value() && !lossless.has_value();

  if (f64) {
    const auto data = load_raw_t<double>(input, *dims);
    std::optional<MaskMap> mask;
    if (mask_fill) mask = MaskMap::from_fill_values(data);
    const MaskMap* mask_ptr = mask.has_value() ? &*mask : nullptr;
    double eb = abs_eb.has_value() ? *abs_eb : 0.0;
    if (!abs_eb.has_value()) {
      double lo = 1e300;
      double hi = -1e300;
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (mask_ptr != nullptr && !mask_ptr->valid(i)) continue;
        lo = std::min(lo, data[i]);
        hi = std::max(hi, data[i]);
      }
      eb = hi > lo ? rel_eb * (hi - lo) : rel_eb;
    }
    std::vector<std::uint8_t> stream;
    if (chunked ||
        ((show_stats || verify || frame_passes || !tune_backends ||
          !tune_predictor) &&
         codec == "cliz")) {
      // Tune on a float32 downcast (ranking only), then compress the
      // float64 samples through a context so --stats has telemetry.
      NdArray<float> downcast(data.shape());
      for (std::size_t i = 0; i < data.size(); ++i) {
        downcast[i] = static_cast<float>(data[i]);
      }
      AutotuneOptions opts;
      opts.sampling_rate = tune_rate;
      opts.time_dim = time_dim;
      opts.codec = cliz_opts;
      opts.consider_backends = tune_backends;
      opts.consider_predictors = tune_predictor;
      const auto tuned = autotune(downcast, eb, mask_ptr, opts);
      if (tune_predictor) cliz_opts.predictor = tuned.best_predictor;
      if (tune_backends) {
        cliz_opts.entropy = tuned.best_entropy;
        cliz_opts.lossless = tuned.best_lossless;
      }
      cliz_opts.frame_passes = tuned.best_frame_passes;
      if (show_stats) {
        std::fprintf(stderr, "autotune: %s\n", tuned.to_json().c_str());
      }
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
        std::fputs(cctx.stats.to_text().c_str(), stderr);
      }
    } else {
      stream = compress_f64(codec, data, eb, mask_ptr, time_dim);
      if (show_stats) {
        std::fprintf(stderr, "clizc: --stats is not available for %s --f64\n",
                     codec.c_str());
      }
    }
    write_file(output, stream.data(), stream.size());
    std::fprintf(stderr,
                 "%s (f64): %zu -> %zu bytes (ratio %.2fx, abs bound %.4g)\n",
                 codec.c_str(), data.size() * sizeof(double), stream.size(),
                 compression_ratio(data.size() * sizeof(double),
                                   stream.size()),
                 eb);
    return 0;
  }

  const auto data = load_raw(input, *dims);
  std::optional<MaskMap> mask;
  if (mask_fill) mask = MaskMap::from_fill_values(data);
  const MaskMap* mask_ptr = mask.has_value() ? &*mask : nullptr;

  const double eb = abs_eb.has_value()
                        ? *abs_eb
                        : abs_bound_from_relative(data.flat(), rel_eb,
                                                  mask_ptr);

  std::vector<std::uint8_t> stream;
  if (codec == "cliz") {
    AutotuneOptions opts;
    opts.sampling_rate = tune_rate;
    opts.time_dim = time_dim;
    opts.codec = cliz_opts;
    opts.consider_backends = tune_backends;
    opts.consider_predictors = tune_predictor;
    const auto tuned = autotune(data, eb, mask_ptr, opts);
    if (tune_predictor) cliz_opts.predictor = tuned.best_predictor;
    if (tune_backends) {
      cliz_opts.entropy = tuned.best_entropy;
      cliz_opts.lossless = tuned.best_lossless;
    }
    // The tuner keeps framing only when the sampled offset-table overhead
    // stays within the budget (never turns it *on* unrequested).
    cliz_opts.frame_passes = tuned.best_frame_passes;
    std::fprintf(stderr,
                 "tuned pipeline: %s [predictor=%s entropy=%s lossless=%s] "
                 "(%zu candidates, %.2f s)\n",
                 tuned.best.label().c_str(),
                 predictor_backend_name(cliz_opts.predictor),
                 entropy_backend_name(cliz_opts.entropy),
                 lossless_backend_name(cliz_opts.lossless),
                 tuned.candidates.size(), tuned.tuning_seconds);
    if (show_stats) {
      std::fprintf(stderr, "autotune: %s\n", tuned.to_json().c_str());
    }
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
  } else {
    const auto comp = make_compressor(codec);
    stream = comp->compress(data, eb);
    if (show_stats) {
      const StageStats* s = comp->stage_stats();
      if (s != nullptr) {
        std::fputs(s->to_text().c_str(), stderr);
      } else {
        std::fprintf(stderr, "clizc: %s does not report stage stats\n",
                     codec.c_str());
      }
    }
  }
  write_file(output, stream.data(), stream.size());
  std::fprintf(stderr,
               "%s: %zu -> %zu bytes (ratio %.2fx, %.3f bits/value, "
               "abs bound %.4g)\n",
               codec.c_str(), data.size() * sizeof(float), stream.size(),
               compression_ratio(data.size() * sizeof(float), stream.size()),
               bit_rate(data.size(), stream.size()), eb);
  return 0;
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

  if (is_chunked_stream(stream)) {
    ChunkedScratch scratch;
    scratch.pool.set_governor(g_limits, governor_cancel());
    if (chunked_sample_bytes(stream, g_limits) == 8) {
      const auto data = chunked_decompress_f64(stream, &scratch);
      write_file(output, data.data(), data.size() * sizeof(double));
      std::fprintf(stderr, "%s -> %s %s (%zu float64 values, chunked)\n",
                   input.c_str(), output.c_str(),
                   data.shape().to_string().c_str(), data.size());
    } else {
      const auto data = chunked_decompress(stream, &scratch);
      write_file(output, data.data(), data.size() * sizeof(float));
      std::fprintf(stderr, "%s -> %s %s (%zu values, chunked)\n",
                   input.c_str(), output.c_str(),
                   data.shape().to_string().c_str(), data.size());
    }
    if (show_stats) print_pool_stats(scratch);
    return 0;
  }

  // CliZ streams decode through a governed context so the global limit /
  // deadline flags apply; foreign codecs keep the generic path.
  const bool is_cliz = detect_codec(stream) == "cliz";
  if (detect_sample_bytes(stream) == 8) {
    CodecContext ctx;
    ctx.limits = g_limits;
    ctx.cancel = governor_cancel();
    const auto data = is_cliz ? ClizCompressor::decompress_f64(stream, ctx)
                              : decompress_any_f64(stream);
    if (is_cliz && show_stats) std::fputs(ctx.stats.to_text().c_str(), stderr);
    write_file(output, data.data(), data.size() * sizeof(double));
    std::fprintf(stderr, "%s -> %s %s (%zu float64 values)\n", input.c_str(),
                 output.c_str(), data.shape().to_string().c_str(),
                 data.size());
    return 0;
  }
  CodecContext ctx;
  ctx.limits = g_limits;
  ctx.cancel = governor_cancel();
  const auto data = is_cliz ? ClizCompressor::decompress(stream, ctx)
                            : decompress_any(stream);
  if (is_cliz && show_stats) std::fputs(ctx.stats.to_text().c_str(), stderr);
  if (show_stats && !is_cliz) {
    std::fprintf(stderr, "clizc: --stats is only reported for cliz streams\n");
  }
  write_file(output, data.data(), data.size() * sizeof(float));
  std::fprintf(stderr, "%s -> %s %s (%zu values)\n", input.c_str(),
               output.c_str(), data.shape().to_string().c_str(),
               data.size());
  return 0;
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
                      "clizc: extract --region needs a chunked cliz stream "
                      "(compress with --tile or --chunks)");
  }
  const ChunkedReader reader(stream, g_limits, governor_cancel());
  ChunkedScratch scratch;
  RegionOptions ropts;
  ropts.scratch = &scratch;
  const Shape out_shape{DimVec(region->extent)};
  RegionStats rs;
  if (reader.sample_bytes() == 8) {
    std::vector<double> out(out_shape.size());
    rs = reader.decompress_region(region->origin, region->extent,
                                  std::span<double>(out), ropts);
    write_file(output, out.data(), out.size() * sizeof(double));
  } else {
    std::vector<float> out(out_shape.size());
    rs = reader.decompress_region(region->origin, region->extent,
                                  std::span<float>(out), ropts);
    write_file(output, out.data(), out.size() * sizeof(float));
  }
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
                  compression_ratio(shape.size() * sizeof(float),
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
  const std::string codec = detect_codec(bytes);
  const auto data = decompress_any(bytes);
  std::printf("%s stream: %s, %zu values, %zu compressed bytes (%.2fx)\n",
              codec.c_str(), data.shape().to_string().c_str(), data.size(),
              bytes.size(),
              compression_ratio(data.size() * sizeof(float), bytes.size()));
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

  const auto original = load_raw(orig_path, *dims);
  const auto recon = load_raw(recon_path, *dims);
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
    usage("archive-create needs at least one NAME=FILE:DIMS[:CODEC] spec");
  }

  ArchiveWriter writer(output);
  if (!tile.empty()) writer.set_tile(tile);
  for (const std::string& spec : specs) {
    // NAME=FILE:DIMS[:CODEC]
    const std::size_t eq = spec.find('=');
    if (eq == std::string::npos) usage(("bad spec " + spec).c_str());
    const std::string name = spec.substr(0, eq);
    std::string rest = spec.substr(eq + 1);
    const std::size_t c1 = rest.find(':');
    if (c1 == std::string::npos) usage(("bad spec " + spec).c_str());
    const std::string file = rest.substr(0, c1);
    rest = rest.substr(c1 + 1);
    std::string codec = "cliz";
    std::string dims_spec = rest;
    const std::size_t c2 = rest.find(':');
    if (c2 != std::string::npos) {
      dims_spec = rest.substr(0, c2);
      codec = rest.substr(c2 + 1);
    }
    const DimVec dims = parse_dims(dims_spec);
    const auto data = load_raw(file, dims);
    std::optional<MaskMap> mask;
    if (mask_fill) mask = MaskMap::from_fill_values(data);
    const MaskMap* mask_ptr = mask.has_value() ? &*mask : nullptr;
    const double eb = abs_eb.has_value()
                          ? *abs_eb
                          : abs_bound_from_relative(data.flat(), rel_eb,
                                                    mask_ptr);
    if (codec == "cliz") {
      AutotuneOptions opts;
      opts.sampling_rate = tune_rate;
      const auto tuned = autotune(data, eb, mask_ptr, opts);
      ClizOptions var_opts;
      var_opts.predictor = tuned.best_predictor;
      var_opts.entropy = tuned.best_entropy;
      var_opts.lossless = tuned.best_lossless;
      writer.add_variable(name, data, eb, tuned.best, mask_ptr,
                          {{"source", file},
                           {"pipeline", tuned.best.label()}},
                          var_opts);
    } else {
      writer.add_variable_with(codec, name, data, eb, {{"source", file}});
    }
    std::fprintf(stderr, "added %s (%s, %s, eb %.4g)\n", name.c_str(),
                 Shape(dims).to_string().c_str(), codec.c_str(), eb);
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
  if (region.has_value()) {
    const VariableInfo& v = reader.info(var);
    RegionStats rs;
    Shape out_shape;
    if (v.sample_bytes == 8) {
      const auto data = reader.read_region_f64(var, region->origin,
                                               region->extent, nullptr, &rs);
      write_file(output, data.data(), data.size() * sizeof(double));
      out_shape = data.shape();
    } else {
      const auto data = reader.read_region(var, region->origin,
                                           region->extent, nullptr, &rs);
      write_file(output, data.data(), data.size() * sizeof(float));
      out_shape = data.shape();
    }
    std::fprintf(stderr, "extracted %s [%s] -> %s\n", var.c_str(),
                 out_shape.to_string().c_str(), output.c_str());
    if (show_stats) print_region_stats(rs);
    return 0;
  }
  const auto data = reader.read(var);
  write_file(output, data.data(), data.size() * sizeof(float));
  std::fprintf(stderr, "extracted %s %s -> %s\n", var.c_str(),
               data.shape().to_string().c_str(), output.c_str());
  return 0;
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
