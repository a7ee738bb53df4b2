// Throughput microbenchmarks (google-benchmark): compression and
// decompression speed of every codec on a fixed climate field, plus the
// hot substrates (Huffman, lossless backend, FFT, wavelet). Backs the
// paper's claim that CliZ's speed is comparable to SZ3/ZFP and well above
// SPERR.
#include <benchmark/benchmark.h>

#include <array>

#include "bench/bench_host.hpp"
#include "bench/bench_util.hpp"
#include "src/climate/datasets.hpp"
#include "src/common/cpu_features.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/core/autotune.hpp"
#include "src/core/chunked.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/baselines/compressor.hpp"
#include "src/fft/fft.hpp"
#include "src/huffman/huffman.hpp"
#include "src/lossless/lossless.hpp"
#include "src/metrics/metrics.hpp"
#include "src/predictor/interp_engine.hpp"
#include "src/predictor/predict_kernels.hpp"
#include "src/baselines/sperr/wavelet.hpp"

namespace cliz {
namespace {

/// Shared fixture data (built once; benchmarks only time the codec work).
struct SpeedContext {
  ClimateField field = make_ssh(0.12, 4242);
  double eb = 0.0;
  PipelineConfig tuned = PipelineConfig::defaults(3);

  SpeedContext() {
    eb = abs_bound_from_relative(field.data.flat(), 1e-3, field.mask_ptr());
    AutotuneOptions opts;
    opts.time_dim = field.time_dim;
    opts.sampling_rate = 0.01;
    tuned = autotune(field.data, eb, field.mask_ptr(), opts).best;
  }
};

SpeedContext& ctx() {
  static SpeedContext c;
  return c;
}

void report_bytes(benchmark::State& state, std::size_t bytes_per_iter) {
  state.SetBytesProcessed(
      static_cast<std::int64_t>(bytes_per_iter * state.iterations()));
}

void BM_Compress(benchmark::State& state, const std::string& name) {
  auto& c = ctx();
  auto comp = make_compressor(name);
  comp->set_time_dim(c.field.time_dim);
  if (name == "cliz") comp->set_mask(c.field.mask_ptr());
  (void)comp->compress(c.field.data, c.eb);  // warm-up / one-time tuning
  std::size_t out_bytes = 0;
  for (auto _ : state) {
    auto stream = comp->compress(c.field.data, c.eb);
    out_bytes = stream.size();
    benchmark::DoNotOptimize(stream);
  }
  report_bytes(state, c.field.data.size() * sizeof(float));
  state.counters["ratio"] = static_cast<double>(
      c.field.data.size() * sizeof(float)) / static_cast<double>(out_bytes);
}

void BM_Decompress(benchmark::State& state, const std::string& name) {
  auto& c = ctx();
  auto comp = make_compressor(name);
  comp->set_time_dim(c.field.time_dim);
  if (name == "cliz") comp->set_mask(c.field.mask_ptr());
  const auto stream = comp->compress(c.field.data, c.eb);
  for (auto _ : state) {
    auto recon = comp->decompress(stream);
    benchmark::DoNotOptimize(recon);
  }
  report_bytes(state, c.field.data.size() * sizeof(float));
}

/// Chunked compression, pooled-scratch vs fresh-scratch A/B. The streams
/// are byte-identical; the A/B isolates the cost of rebuilding the context
/// pool and staging buffers every call. The chunks compress in parallel, so
/// both rows report wall-clock time (UseRealTime), not summed CPU time. One
/// representative run per variant is also recorded as a CLIZ_BENCH_JSON
/// line.
void BM_ChunkedCompress(benchmark::State& state, bool pooled) {
  auto& c = ctx();
  ChunkedOptions copts;
  copts.chunks = 8;
  ChunkedScratch scratch;
  if (pooled) copts.scratch = &scratch;
  std::vector<std::uint8_t> stream;
  for (auto _ : state) {
    if (pooled) {
      chunked_compress_into(c.field.data, c.eb, c.tuned, c.field.mask_ptr(),
                            copts, stream);
    } else {
      stream = chunked_compress(c.field.data, c.eb, c.tuned,
                                c.field.mask_ptr(), copts);
    }
    benchmark::DoNotOptimize(stream.data());
  }
  report_bytes(state, c.field.data.size() * sizeof(float));
  state.counters["ratio"] =
      static_cast<double>(c.field.data.size() * sizeof(float)) /
      static_cast<double>(stream.size());

  bench::RunResult r;
  r.original_bytes = c.field.data.size() * sizeof(float);
  Timer tc;
  chunked_compress_into(c.field.data, c.eb, c.tuned, c.field.mask_ptr(),
                        copts, stream);
  r.compress_seconds = tc.seconds();
  r.compressed_bytes = stream.size();
  Timer td;
  const auto recon =
      chunked_decompress(stream, pooled ? &scratch : nullptr);
  r.decompress_seconds = td.seconds();
  const auto stats =
      error_stats(c.field.data.flat(), recon.flat(), c.field.mask_ptr());
  r.psnr = stats.psnr;
  r.max_abs_error = stats.max_abs_error;
  bench::record_json("chunked_compress", pooled ? "pooled" : "fresh", r);
}

/// Decode-side A/B: decompress_into a shape-matched reused array vs the
/// returning variant that allocates a fresh one, both through a reused
/// context. Also recorded as a CLIZ_BENCH_JSON line per variant.
void BM_ClizDecodeInto(benchmark::State& state, bool into) {
  auto& c = ctx();
  const ClizCompressor comp(c.tuned);
  const auto stream = comp.compress(c.field.data, c.eb, c.field.mask_ptr());
  CodecContext cctx;
  NdArray<float> out(c.field.data.shape());
  for (auto _ : state) {
    if (into) {
      ClizCompressor::decompress_into(stream, cctx, out);
      benchmark::DoNotOptimize(out.data());
    } else {
      auto recon = ClizCompressor::decompress(stream, cctx);
      benchmark::DoNotOptimize(recon);
    }
  }
  report_bytes(state, c.field.data.size() * sizeof(float));

  bench::RunResult r;
  r.original_bytes = c.field.data.size() * sizeof(float);
  r.compressed_bytes = stream.size();
  Timer td;
  if (into) {
    ClizCompressor::decompress_into(stream, cctx, out);
  } else {
    out = ClizCompressor::decompress(stream, cctx);
  }
  r.decompress_seconds = td.seconds();
  const auto stats =
      error_stats(c.field.data.flat(), out.flat(), c.field.mask_ptr());
  r.psnr = stats.psnr;
  r.max_abs_error = stats.max_abs_error;
  bench::record_json("decompress_into", into ? "into" : "returning", r);
}

/// Thread-scaling sweep for the line-parallel CliZ hot path. state.range(0)
/// is the worker count (0 = the machine default). The compressed stream is
/// byte-identical at every setting (locked by test_golden_streams), so this
/// sweep isolates pure wall-time scaling of the prediction/quantization,
/// Huffman, and block-split lossless stages. All three thread sweeps
/// report wall-clock time (UseRealTime): CPU time sums over the workers.
void BM_ClizCompressThreads(benchmark::State& state) {
  auto& c = ctx();
  const int saved = hardware_threads();
  const int threads = static_cast<int>(state.range(0));
  set_thread_count(threads == 0 ? saved : threads);
  const ClizCompressor comp(c.tuned);
  CodecContext cctx;
  std::vector<std::uint8_t> stream;
  comp.compress_into(c.field.data, c.eb, c.field.mask_ptr(), cctx, stream);
  for (auto _ : state) {
    comp.compress_into(c.field.data, c.eb, c.field.mask_ptr(), cctx, stream);
    benchmark::DoNotOptimize(stream.data());
  }
  set_thread_count(saved);
  report_bytes(state, c.field.data.size() * sizeof(float));
  state.counters["threads"] = threads == 0 ? saved : threads;
}

void BM_ClizDecompressThreads(benchmark::State& state) {
  auto& c = ctx();
  const int saved = hardware_threads();
  const int threads = static_cast<int>(state.range(0));
  set_thread_count(threads == 0 ? saved : threads);
  const ClizCompressor comp(c.tuned);
  const auto stream = comp.compress(c.field.data, c.eb, c.field.mask_ptr());
  CodecContext cctx;
  NdArray<float> out(c.field.data.shape());
  for (auto _ : state) {
    ClizCompressor::decompress_into(stream, cctx, out);
    benchmark::DoNotOptimize(out.data());
  }
  set_thread_count(saved);
  report_bytes(state, c.field.data.size() * sizeof(float));
  state.counters["threads"] = threads == 0 ? saved : threads;
}

void BM_HuffmanEncode(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::uint32_t> syms(1 << 20);
  for (auto& s : syms) {
    const double u = rng.uniform();
    s = 32768 + static_cast<std::uint32_t>(-std::log2(1.0 - u));
  }
  const auto codec = HuffmanCodec::from_symbols(syms);
  for (auto _ : state) {
    BitWriter bits;
    codec.encode(syms, bits);
    auto payload = bits.finish();
    benchmark::DoNotOptimize(payload);
  }
  report_bytes(state, syms.size() * sizeof(std::uint32_t));
}

/// Batched Huffman decode over a quantization-bin-shaped stream: the
/// pair-augmented fast table should stay well above the encode rate.
void BM_HuffmanDecode(benchmark::State& state) {
  Rng rng(1);
  std::vector<std::uint32_t> syms(1 << 20);
  for (auto& s : syms) {
    const double u = rng.uniform();
    s = 32768 + static_cast<std::uint32_t>(-std::log2(1.0 - u));
  }
  const auto codec = HuffmanCodec::from_symbols(syms);
  BitWriter bits;
  codec.encode(syms, bits);
  const auto payload = bits.finish();
  std::vector<std::uint32_t> out(syms.size());
  for (auto _ : state) {
    BitReader br(payload);
    codec.decode_batch(br, out.data(), out.size());
    benchmark::DoNotOptimize(out.data());
  }
  report_bytes(state, syms.size() * sizeof(std::uint32_t));
}

/// The censuses a stream's Huffman tables are built from: "bytes" is an LZ
/// section's 256-symbol byte census, "tile" the ~300 quantization bins of
/// one 8x32x32 tile, "wide" a 65,536-symbol alphabet.
std::vector<SymbolCount> huffman_census(const std::string& kind) {
  Rng rng(3);
  std::vector<SymbolCount> census;
  if (kind == "bytes") {
    for (std::uint32_t b = 0; b < 256; ++b) {
      census.push_back({b, 1 + rng.uniform_index(b < 16 ? 4000 : 200)});
    }
  } else if (kind == "tile") {
    // Bins around the radius 2^15 with geometric tails, plus the escape 0.
    census.push_back({0, 12});
    for (std::uint32_t k = 32768 - 150; k <= 32768 + 150; ++k) {
      const double d = std::abs(static_cast<double>(k) - 32768.0);
      census.push_back(
          {k, 1 + static_cast<std::uint64_t>(3000.0 * std::exp(-d / 12.0))});
    }
  } else {
    for (std::uint32_t s = 0; s < 65536; ++s) {
      census.push_back({s, 1 + rng.uniform_index(1000)});
    }
  }
  return census;
}

/// Builds one encoder-side Huffman table: the fixed cost every stream, LZ
/// section and autotune trial pays before coding a symbol.
void BM_HuffmanBuild(benchmark::State& state, const std::string& kind) {
  const auto census = huffman_census(kind);
  HuffmanCodec codec;
  for (auto _ : state) {
    codec.rebuild_from_frequencies(census);
    benchmark::DoNotOptimize(codec);
  }
  state.counters["symbols"] = static_cast<double>(census.size());
}

void BM_LosslessCompress(benchmark::State& state) {
  Rng rng(2);
  std::vector<std::uint8_t> data(1 << 20);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = (i / 128) % 4 == 0 ? 0
                                 : static_cast<std::uint8_t>(
                                       rng.uniform_index(16));
  }
  for (auto _ : state) {
    auto out = lossless_compress(data);
    benchmark::DoNotOptimize(out);
  }
  report_bytes(state, data.size());
}

/// Block-split lossless container (mode 4): 4 MiB crosses the split
/// threshold, so blocks compress in parallel; scratch is reused so the
/// loop measures steady-state throughput.
void BM_LosslessBlocks(benchmark::State& state) {
  Rng rng(5);
  std::vector<std::uint8_t> data(4u << 20);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = (i / 128) % 4 == 0 ? 0
                                 : static_cast<std::uint8_t>(
                                       rng.uniform_index(16));
  }
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    lossless_compress_into(data, scratch, out);
    benchmark::DoNotOptimize(out.data());
  }
  report_bytes(state, data.size());
}

/// Entropy-backend A/B on the fixture field: the full cliz compress and
/// decompress path with the stage-3/4 coder forced to one backend.
/// Ratio is reported alongside throughput so the tANS size/speed trade is
/// visible in the JSON.
void BM_EntropyBackendCompress(benchmark::State& state,
                               EntropyBackend backend) {
  auto& c = ctx();
  ClizOptions opts;
  opts.entropy = backend;
  const ClizCompressor comp(c.tuned, opts);
  CodecContext cctx;
  std::vector<std::uint8_t> stream;
  comp.compress_into(c.field.data, c.eb, c.field.mask_ptr(), cctx, stream);
  for (auto _ : state) {
    comp.compress_into(c.field.data, c.eb, c.field.mask_ptr(), cctx, stream);
    benchmark::DoNotOptimize(stream.data());
  }
  report_bytes(state, c.field.data.size() * sizeof(float));
  state.counters["ratio"] =
      static_cast<double>(c.field.data.size() * sizeof(float)) /
      static_cast<double>(stream.size());
}

void BM_EntropyBackendDecompress(benchmark::State& state,
                                 EntropyBackend backend) {
  auto& c = ctx();
  ClizOptions opts;
  opts.entropy = backend;
  const ClizCompressor comp(c.tuned, opts);
  const auto stream = comp.compress(c.field.data, c.eb, c.field.mask_ptr());
  CodecContext cctx;
  NdArray<float> out(c.field.data.shape());
  for (auto _ : state) {
    ClizCompressor::decompress_into(stream, cctx, out);
    benchmark::DoNotOptimize(out.data());
  }
  report_bytes(state, c.field.data.size() * sizeof(float));
}

/// Predictor-backend A/B on the fixture field: the full cliz compress and
/// decompress path with the stage-2 predictor forced to one backend.
/// Ratio is reported alongside throughput so the Lorenzo /
/// regression size/speed trades are visible in the JSON.
void BM_PredictorBackendCompress(benchmark::State& state,
                                 PredictorBackend backend) {
  auto& c = ctx();
  ClizOptions opts;
  opts.predictor = backend;
  const ClizCompressor comp(c.tuned, opts);
  CodecContext cctx;
  std::vector<std::uint8_t> stream;
  comp.compress_into(c.field.data, c.eb, c.field.mask_ptr(), cctx, stream);
  for (auto _ : state) {
    comp.compress_into(c.field.data, c.eb, c.field.mask_ptr(), cctx, stream);
    benchmark::DoNotOptimize(stream.data());
  }
  report_bytes(state, c.field.data.size() * sizeof(float));
  state.counters["ratio"] =
      static_cast<double>(c.field.data.size() * sizeof(float)) /
      static_cast<double>(stream.size());
}

/// Second predictor fixture: the default (low-noise) SSH field, where the
/// per-block regression fit strictly beats interpolation on compressed
/// size — the ratio counters in the committed baseline JSON document the
/// win. Tuned without the predictor phase so every backend is ranked on
/// the same pipeline.
struct PredictorFieldContext {
  ClimateField field = make_ssh();
  double eb = 0.0;
  PipelineConfig tuned = PipelineConfig::defaults(3);

  PredictorFieldContext() {
    eb = abs_bound_from_relative(field.data.flat(), 1e-3, field.mask_ptr());
    AutotuneOptions opts;
    opts.time_dim = field.time_dim;
    opts.sampling_rate = 0.01;
    opts.consider_predictors = false;
    tuned = autotune(field.data, eb, field.mask_ptr(), opts).best;
  }
};

PredictorFieldContext& predictor_ctx() {
  static PredictorFieldContext c;
  return c;
}

void BM_PredictorBackendCompressSsh(benchmark::State& state,
                                    PredictorBackend backend) {
  auto& c = predictor_ctx();
  ClizOptions opts;
  opts.predictor = backend;
  const ClizCompressor comp(c.tuned, opts);
  CodecContext cctx;
  std::vector<std::uint8_t> stream;
  comp.compress_into(c.field.data, c.eb, c.field.mask_ptr(), cctx, stream);
  for (auto _ : state) {
    comp.compress_into(c.field.data, c.eb, c.field.mask_ptr(), cctx, stream);
    benchmark::DoNotOptimize(stream.data());
  }
  report_bytes(state, c.field.data.size() * sizeof(float));
  state.counters["ratio"] =
      static_cast<double>(c.field.data.size() * sizeof(float)) /
      static_cast<double>(stream.size());
}

void BM_PredictorBackendDecompress(benchmark::State& state,
                                   PredictorBackend backend) {
  auto& c = ctx();
  ClizOptions opts;
  opts.predictor = backend;
  const ClizCompressor comp(c.tuned, opts);
  const auto stream = comp.compress(c.field.data, c.eb, c.field.mask_ptr());
  CodecContext cctx;
  NdArray<float> out(c.field.data.shape());
  for (auto _ : state) {
    ClizCompressor::decompress_into(stream, cctx, out);
    benchmark::DoNotOptimize(out.data());
  }
  report_bytes(state, c.field.data.size() * sizeof(float));
}

/// The LZ lossless backend on a residual-shaped byte stream.
void BM_LosslessBackend(benchmark::State& state) {
  Rng rng(6);
  std::vector<std::uint8_t> data(1 << 20);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = (i / 128) % 4 == 0 ? 0
                                 : static_cast<std::uint8_t>(
                                       rng.uniform_index(16));
  }
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    lossless_compress_into(data, scratch, out);
    benchmark::DoNotOptimize(out.data());
  }
  report_bytes(state, data.size());
  state.counters["ratio"] = static_cast<double>(data.size()) /
                            static_cast<double>(out.size());
}

/// The lossless stage on the SSH stream's pre-lossless bytes: the
/// sectioned frame the encoder writes, cut where the encoder cuts (after
/// the header and mask), or the whole-buffer LZ frame it replaced.
void BM_LosslessSsh(benchmark::State& state, bool sectioned) {
  auto& c = ctx();
  const auto stream =
      ClizCompressor(c.tuned).compress(c.field.data, c.eb, c.field.mask_ptr());
  const auto raw = lossless_decompress(stream);
  std::vector<std::size_t> cuts;
  std::size_t edge = 0;
  const LosslessFrameInfo frame = describe_lossless_frame(stream);
  for (std::size_t k = 0; k + 1 < frame.sections.size(); ++k) {
    edge += static_cast<std::size_t>(frame.sections[k].raw_bytes);
    cuts.push_back(edge);
  }
  LosslessScratch scratch;
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    if (sectioned) {
      lossless_compress_sections_into(raw, cuts, scratch, out);
    } else {
      lossless_compress_into(raw, scratch, out);
    }
    benchmark::DoNotOptimize(out.data());
  }
  report_bytes(state, raw.size());
  state.counters["ratio"] =
      static_cast<double>(raw.size()) / static_cast<double>(out.size());
}

/// Fused predict+quantize kernel substrate, one bench per (sample type,
/// kernel tier): the row encode kernel over the finest cubic pass (h=1,
/// s=2 along the inner axis) of a smooth 1024x1024 field, run as the
/// engine runs it (detail::run_row_blocks, one part): kRowBlock lines per
/// block, one call per target row, and, since these lines lie a multiple of
/// 1 KiB apart, through staged windows. Tiers are addressed directly
/// through interp_kernels_for, so the sweep isolates kernel throughput —
/// the per-tier speedups bench_compare.py summarizes come from these
/// numbers.
template <typename T>
void BM_PredictQuantizeKernel(benchmark::State& state, SimdTier tier) {
  const std::size_t side = 1024;
  const std::size_t n = side * side;
  std::vector<T> base(n);
  Rng rng(7);
  for (std::size_t i = 0; i < n; ++i) {
    base[i] = static_cast<T>(std::sin(0.01 * static_cast<double>(i)) +
                             0.05 * rng.normal());
  }
  const std::size_t tpl = side / 2;
  std::vector<std::size_t> line_base(side);
  std::vector<std::size_t> start(side + 1);
  for (std::size_t r = 0; r <= side; ++r) {
    if (r < side) line_base[r] = r * side;
    start[r] = r * tpl;
  }
  InterpPass pass;
  pass.s = 2;
  pass.h = 1;
  pass.d = 1;
  std::vector<T> work(n);
  const LinearQuantizer<T> q(1e-4);
  std::vector<std::uint32_t> codes(side * tpl);
  std::vector<RowEscape<T>> escapes;
  const auto& kt = interp_kernels_for<T>(tier);
  for (auto _ : state) {
    std::memcpy(work.data(), base.data(), n * sizeof(T));
    escapes.clear();
    detail::run_row_blocks(
        work.data(), codes.data(), &escapes, line_base, start,
        AxisSpec{side, 1}, pass, FittingKind::kCubic, nullptr, 1,
        [&](std::size_t, std::size_t, const InterpRow& row,
            std::size_t* cursor, T* dp, std::uint32_t* cds) {
          kt.encode_row(dp, row, q, cursor, cds, escapes);
        });
    benchmark::DoNotOptimize(codes.data());
  }
  report_bytes(state, side * tpl * sizeof(T));
  state.counters["tier"] = static_cast<double>(tier);
}

/// One masked 8x32x32 f32 tile — the tiled_windows tile shape, with a
/// coastline and an island masking about a third of it — through the whole
/// interpolation engine (interp_encode_lines / interp_decode_lines, static
/// cubic fit) at a pinned kernel tier. Short lines and mask edges dominate
/// here, unlike the long unmasked lines of predict_quantize_kernel.
struct MaskedTile {
  Shape shape{DimVec{8, 32, 32}};
  std::vector<AxisSpec> axes = fused_axes(shape, FusionSpec::none(3));
  std::vector<std::size_t> order{0, 1, 2};
  std::vector<float> data;
  std::vector<std::uint8_t> valid;
  LinearQuantizer<float> q{1e-3};

  MaskedTile() {
    Rng rng(29);
    data.resize(shape.size());
    valid.resize(shape.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      const auto c = shape.coords(i);
      const double t = static_cast<double>(c[0]);
      const double y = static_cast<double>(c[1]);
      const double x = static_cast<double>(c[2]);
      const bool coast = x < 9.0 + 5.0 * std::sin(0.2 * y);
      const bool island = (y - 20) * (y - 20) + (x - 22) * (x - 22) < 20;
      valid[i] = coast || island ? 0 : 1;
      data[i] = valid[i] != 0 ? static_cast<float>(std::sin(0.5 * t) +
                                                   std::cos(0.1 * x + 0.2 * y) +
                                                   0.01 * rng.normal())
                              : 9.96921e36f;
    }
  }
};

void BM_InterpTile(benchmark::State& state, SimdTier tier, bool decode) {
  const SimdTier saved = active_simd_tier();
  set_active_simd_tier(tier);
  const MaskedTile tile;
  InterpLineScratch scratch;
  std::vector<float> work = tile.data;
  std::vector<std::uint32_t> codes;
  std::vector<float> outliers;
  std::vector<std::uint8_t> fits;
  const auto encode = [&] {
    work = tile.data;
    codes.clear();
    outliers.clear();
    interp_encode_lines(work.data(), tile.axes, tile.order, false,
                        FittingKind::kCubic, tile.q, tile.valid.data(),
                        nullptr, codes, outliers, fits, scratch);
  };
  encode();
  for (auto _ : state) {
    if (!decode) {
      encode();
      benchmark::DoNotOptimize(codes.data());
      continue;
    }
    std::size_t cursor = 0;
    std::size_t next = 0;
    interp_decode_lines(
        work.data(), tile.axes, tile.order, false, FittingKind::kCubic,
        std::span<const std::uint8_t>(), tile.q,
        std::span<const float>(outliers), cursor, tile.valid.data(), false,
        scratch,
        [&](const std::uint64_t*, std::uint32_t* dst, std::size_t n) {
          std::memcpy(dst, codes.data() + next, n * sizeof(std::uint32_t));
          next += n;
        });
    benchmark::DoNotOptimize(work.data());
  }
  set_active_simd_tier(saved);
  report_bytes(state, tile.data.size() * sizeof(float));
  state.counters["codes"] = static_cast<double>(codes.size());
}

void BM_FftPow2(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::complex<double>> signal(1 << 14);
  for (auto& v : signal) v = {rng.normal(), rng.normal()};
  for (auto _ : state) {
    auto copy = signal;
    fft_pow2_inplace(copy, false);
    benchmark::DoNotOptimize(copy);
  }
  report_bytes(state, signal.size() * sizeof(signal[0]));
}

void BM_Wavelet(benchmark::State& state) {
  const Shape shape({256, 256});
  const WaveletTransform w(shape, 4);
  Rng rng(4);
  std::vector<double> data(shape.size());
  for (auto& v : data) v = rng.normal();
  for (auto _ : state) {
    auto copy = data;
    w.forward(copy);
    benchmark::DoNotOptimize(copy);
  }
  report_bytes(state, data.size() * sizeof(double));
}

}  // namespace
}  // namespace cliz

int main(int argc, char** argv) {
  using cliz::BM_Compress;
  using cliz::BM_Decompress;
  for (const auto& name : cliz::compressor_names()) {
    benchmark::RegisterBenchmark(("compress/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_Compress(s, name);
                                 })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(("decompress/" + name).c_str(),
                                 [name](benchmark::State& s) {
                                   BM_Decompress(s, name);
                                 })
        ->Unit(benchmark::kMillisecond);
  }
  for (const bool pooled : {false, true}) {
    benchmark::RegisterBenchmark(
        pooled ? "chunked_compress/pooled" : "chunked_compress/fresh",
        [pooled](benchmark::State& s) { cliz::BM_ChunkedCompress(s, pooled); })
        ->UseRealTime()
        ->Unit(benchmark::kMillisecond);
  }
  for (const bool into : {false, true}) {
    benchmark::RegisterBenchmark(
        into ? "decompress_into/into" : "decompress_into/returning",
        [into](benchmark::State& s) { cliz::BM_ClizDecodeInto(s, into); })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("cliz_compress_threads",
                               cliz::BM_ClizCompressThreads)
      ->Arg(1)
      ->Arg(2)
      ->Arg(4)
      ->Arg(0)
      ->UseRealTime()
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("cliz_decompress_threads",
                               cliz::BM_ClizDecompressThreads)
      ->Arg(1)
      ->Arg(2)
      ->Arg(4)
      ->Arg(0)
      ->UseRealTime()
      ->Unit(benchmark::kMillisecond);
  for (const cliz::EntropyBackend backend :
       {cliz::EntropyBackend::kHuffman, cliz::EntropyBackend::kTans}) {
    const std::string name = cliz::entropy_backend_name(backend);
    benchmark::RegisterBenchmark(
        ("entropy_backend/" + name + "/compress").c_str(),
        [backend](benchmark::State& s) {
          cliz::BM_EntropyBackendCompress(s, backend);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("entropy_backend/" + name + "/decompress").c_str(),
        [backend](benchmark::State& s) {
          cliz::BM_EntropyBackendDecompress(s, backend);
        })
        ->Unit(benchmark::kMillisecond);
  }
  for (const cliz::PredictorBackend backend :
       {cliz::PredictorBackend::kInterp, cliz::PredictorBackend::kLorenzo1,
        cliz::PredictorBackend::kRegression}) {
    const std::string name = cliz::predictor_backend_name(backend);
    benchmark::RegisterBenchmark(
        ("predictor_backend/" + name + "/compress").c_str(),
        [backend](benchmark::State& s) {
          cliz::BM_PredictorBackendCompress(s, backend);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("predictor_backend/" + name + "/decompress").c_str(),
        [backend](benchmark::State& s) {
          cliz::BM_PredictorBackendDecompress(s, backend);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("predictor_backend/" + name + "/compress_ssh").c_str(),
        [backend](benchmark::State& s) {
          cliz::BM_PredictorBackendCompressSsh(s, backend);
        })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("lossless_backend/lz",
                               cliz::BM_LosslessBackend)
      ->Unit(benchmark::kMillisecond);
  for (const bool sectioned : {true, false}) {
    benchmark::RegisterBenchmark(
        sectioned ? "lossless_backend/sections" : "lossless_backend/lz_ssh",
        [sectioned](benchmark::State& s) {
          cliz::BM_LosslessSsh(s, sectioned);
        })
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("substrate/huffman_encode",
                               cliz::BM_HuffmanEncode)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("substrate/huffman_decode",
                               cliz::BM_HuffmanDecode)
      ->Unit(benchmark::kMillisecond);
  for (const std::string kind : {"bytes", "tile", "wide"}) {
    benchmark::RegisterBenchmark(
        ("substrate/huffman_build/" + kind).c_str(),
        [kind](benchmark::State& s) { cliz::BM_HuffmanBuild(s, kind); })
        ->Unit(benchmark::kMicrosecond);
  }
  benchmark::RegisterBenchmark("substrate/lossless_compress",
                               cliz::BM_LosslessCompress)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("substrate/lossless_blocks",
                               cliz::BM_LosslessBlocks)
      ->Unit(benchmark::kMillisecond);
  // Only tiers with their own kernels: the scalar reference and AVX2 (the
  // SSE4.2 tier runs the scalar kernels, so a row for it would repeat one).
  for (const cliz::SimdTier tier :
       {cliz::SimdTier::kScalar, cliz::SimdTier::kAvx2}) {
    if (tier > cliz::detected_simd_tier()) continue;
    const std::string tname = cliz::simd_tier_name(tier);
    benchmark::RegisterBenchmark(
        ("predict_quantize_kernel/f32/" + tname).c_str(),
        [tier](benchmark::State& s) {
          cliz::BM_PredictQuantizeKernel<float>(s, tier);
        })
        ->Unit(benchmark::kMillisecond);
    benchmark::RegisterBenchmark(
        ("predict_quantize_kernel/f64/" + tname).c_str(),
        [tier](benchmark::State& s) {
          cliz::BM_PredictQuantizeKernel<double>(s, tier);
        })
        ->Unit(benchmark::kMillisecond);
    for (const bool decode : {false, true}) {
      benchmark::RegisterBenchmark(
          ("interp_tile/" + std::string(decode ? "decode" : "encode") + "/" +
           tname)
              .c_str(),
          [tier, decode](benchmark::State& s) {
            cliz::BM_InterpTile(s, tier, decode);
          })
          ->Unit(benchmark::kMicrosecond);
    }
  }
  benchmark::RegisterBenchmark("substrate/fft_16k", cliz::BM_FftPow2)
      ->Unit(benchmark::kMillisecond);
  benchmark::RegisterBenchmark("substrate/wavelet_256x256",
                               cliz::BM_Wavelet)
      ->Unit(benchmark::kMillisecond);

  cliz::bench::add_host_context();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
