// End-to-end benchmark of the CliZ library, measured from outside its
// public API. One process runs one workload, closed loop with one client:
// each call starts when the previous one has returned. README.md says why
// each workload exists and which layer each per-layer metric belongs to.
//
//   cliz_e2e --workload ensemble_archive --seed 7 --seconds 40 --trace 0
//            [--scale 1.0] [--workdir DIR] [--commit STR]
//
// Output: a human-readable report, one `{"host":...}` JSON line, and as the
// last line one JSON object {"correct","attempted","failed","metrics"} with
// the end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "e2e_bench/harness.hpp"
#include "src/climate/datasets.hpp"
#include "src/common/parallel.hpp"
#include "src/common/status.hpp"
#include "src/core/autotune.hpp"
#include "src/core/chunked.hpp"
#include "src/core/chunked_reader.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"
#include "src/core/tile_cache.hpp"
#include "src/io/archive.hpp"
#include "src/metrics/metrics.hpp"

namespace {

using e2e::now_s;
using e2e::ScopedSpan;

constexpr double kRelBound = 1e-3;      // clizc's default relative bound
constexpr double kTuneRate = 0.01;      // the paper's sampling rate
constexpr std::size_t kMinReads = 100;  // >= 10 samples above read_p90
constexpr int kSetupReps = 5;           // setup_s is their median

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double scale = 1.0;  // < 1 shrinks every field (smoke mode)
  std::string workdir = ".";
  std::string commit = "unknown";
};

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t k) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + k + 1;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) & 0xFFFFFFFFull;
}

/// splitmix64 stream for the window sequences (same seed, same windows).
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return n == 0 ? 0 : next() % n; }
};

double valid_frac(const cliz::MaskMap& m) {
  return static_cast<double>(m.count_valid()) / static_cast<double>(m.size());
}

/// Rotates a masked field along longitude (its last dimension, periodic on
/// the globe) to the offset where autotune's fixed-position sample blocks
/// see the field's own valid fraction. The tuner's cost grows with the
/// valid points in its sample (SOILLIQ at default scale: 1.3 s when the
/// sample falls on ocean, 9.2 s at 64% land), so without this the tuning
/// cost would follow wherever a seed's continents happen to fall.
void rotate_to_representative(cliz::ClimateField& f) {
  if (!f.mask.has_value()) return;
  const cliz::Shape shape = f.data.shape();
  const std::size_t nlon = shape.dims().back();
  const std::size_t rows = shape.size() / nlon;
  const auto roll = [&](const auto* in, auto* out, std::size_t k) {
    const std::size_t sz = sizeof(*in);
    for (std::size_t r = 0; r < rows; ++r) {
      std::memcpy(out + r * nlon + k, in + r * nlon, (nlon - k) * sz);
      std::memcpy(out + r * nlon, in + r * nlon + nlon - k, k * sz);
    }
  };
  const double target = valid_frac(*f.mask);
  const cliz::NdArray<float> zeros(shape);  // the samples' masks are all we need
  cliz::MaskMap m = *f.mask;
  std::size_t best = 0;
  double best_err = 2.0;
  for (std::size_t k = 0; k < nlon; ++k) {
    roll(f.mask->data(), m.mutable_data(), k);
    const auto a = cliz::sample_blocks(zeros, &m, kTuneRate);
    const auto b =
        cliz::sample_time_preserving(zeros, &m, kTuneRate, f.time_dim);
    const double err = std::abs(valid_frac(*a.mask) - target) +
                       std::abs(valid_frac(*b.mask) - target);
    if (err < best_err) {
      best_err = err;
      best = k;
    }
  }
  roll(f.mask->data(), m.mutable_data(), best);
  cliz::NdArray<float> data(shape);
  roll(f.data.data(), data.data(), best);
  f.data = std::move(data);
  f.mask = std::move(m);
}

/// One generated input variable with its absolute bound.
struct Var {
  std::string name;
  cliz::ClimateField f;
  double range = 0.0;
  double eb = 0.0;
  std::size_t raw_bytes = 0;
};

/// `tuned`: autotune runs on this variable, so its mask is rotated to a
/// representative position first (rotate_to_representative).
Var make_var(std::string name, cliz::ClimateField f, bool tuned = false) {
  if (tuned) rotate_to_representative(f);
  Var v;
  v.name = std::move(name);
  v.range = cliz::value_range(f.data.flat(), f.mask_ptr());
  v.eb = kRelBound * v.range;
  v.raw_bytes = f.data.size() * sizeof(float);
  v.f = std::move(f);
  return v;
}

/// Autotune at the paper's 1% sampling rate over the paper's search space
/// (permutation, fusion, fitting, periodicity, classification) plus the
/// entropy/lossless backend grid. The predictor backend stays
/// interpolation, the paper's predictor: on SSH the predictor trial
/// flips between interpolation and regression on near-ties (sample ratio
/// 17.8 vs 17.5) from one seed to the next, and regression streams decode
/// about 2.5x slower, so leaving it free makes the workload bimodal.
cliz::AutotuneResult tune(const Var& v) {
  cliz::AutotuneOptions o;
  o.sampling_rate = kTuneRate;
  o.time_dim = v.f.time_dim;
  o.consider_predictors = false;
  return cliz::autotune(v.f.data, v.eb, v.f.mask_ptr(), o);
}

/// Codec options a `clizc compress` user ends up with after tuning.
cliz::ClizOptions tuned_options(const cliz::AutotuneResult& t) {
  cliz::ClizOptions o;
  o.predictor = t.best_predictor;
  o.entropy = t.best_entropy;
  o.lossless = t.best_lossless;
  o.frame_passes = t.best_frame_passes;
  return o;
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Empty when measured; otherwise why the JSON value is 0: "absent"
  /// (the layer does not run in this workload) or "unmeasured" (it runs,
  /// but the public API returns no timing for it on this path).
  std::string status;
  std::string detail;
};

/// Everything one run accumulates. End-to-end figures come from untraced
/// timed passes only; traced passes feed the per-layer figures.
struct Run {
  Args args;
  int threads = 1;
  e2e::Tracer tr;
  bool timed = false;
  bool traced = false;
  std::size_t passes = 0;
  std::size_t traced_passes = 0;

  std::size_t attempted = 0;
  std::size_t failed = 0;
  e2e::Quality quality;
  std::vector<double> setup_s;

  double write_bytes = 0, write_s = 0;
  std::size_t writes = 0;
  double decode_bytes = 0, decode_s = 0;
  std::size_t decodes = 0;
  double traced_write_bytes = 0, traced_write_s = 0;
  double traced_decode_bytes = 0, traced_decode_s = 0;
  std::vector<double> read_ms;
  std::vector<double> hot_ms, cold_ms;  // read_ms split by window class
  const char* read_kind = "";
  double raw_bytes = 0, stored_bytes = 0;

  double op_cpu_s = 0, op_wall_s = 0;
  long op_minflt = 0;
  std::size_t ops = 0;

  /// Per-layer counters summed over traced passes (keys are metric names
  /// or intermediate sums).
  std::map<std::string, double> layer;

  /// Runs one operation: counts, times and rusage-wraps it; a thrown
  /// cliz::Error is one failed operation. Returns wall seconds, or nullopt
  /// when the call threw.
  template <typename Fn>
  std::optional<double> op(const char* what, Fn&& fn) {
    ++attempted;
    const e2e::Usage u0 = e2e::usage_now();
    const double t0 = now_s();
    bool threw = false;
    try {
      fn();
    } catch (const cliz::Error& e) {
      threw = true;
      std::fprintf(stderr, "%s failed: %s\n", what, e.what());
    }
    const double dt = now_s() - t0;
    const e2e::Usage u1 = e2e::usage_now();
    if (timed) {
      op_cpu_s += u1.cpu_s - u0.cpu_s;
      op_wall_s += dt;
      op_minflt += u1.minflt - u0.minflt;
      ++ops;
    }
    if (threw) {
      ++failed;
      return std::nullopt;
    }
    return dt;
  }

  /// A failed output check of an operation already counted by op().
  void check(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "check failed: %s\n", what.c_str());
  }

  void record_write(double bytes, double secs) {
    if (!timed) return;
    if (traced) {
      traced_write_bytes += bytes;
      traced_write_s += secs;
    } else {
      write_bytes += bytes;
      write_s += secs;
      ++writes;
    }
  }

  void record_decode(double bytes, double secs) {
    if (!timed) return;
    if (traced) {
      traced_decode_bytes += bytes;
      traced_decode_s += secs;
    } else {
      decode_bytes += bytes;
      decode_s += secs;
      ++decodes;
    }
  }

  /// `cls`: 1 = hot window, 0 = cold window, -1 = no window classes.
  void record_read(double secs, int cls = -1) {
    if (!timed || traced) return;
    read_ms.push_back(secs * 1e3);
    if (cls == 1) hot_ms.push_back(secs * 1e3);
    if (cls == 0) cold_ms.push_back(secs * 1e3);
  }

  void add(const std::string& key, double v) {
    if (traced) layer[key] += v;
  }
};

/// One timed run of a workload's set-up (data generation, deterministic in
/// the seed, so every run rebuilds the same inputs); setup_s is the median
/// of kSetupReps of them.
void timed_setup(Run& r, const std::function<void()>& setup) {
  const double t0 = now_s();
  setup();
  r.setup_s.push_back(now_s() - t0);
}

/// Untimed warm-up pass, then timed passes until --seconds have elapsed and
/// enough reads exist for an honest read_p90. The first set-up ran before
/// this; the other kSetupReps - 1 run between timed passes, evenly spread
/// over the run (their time is not counted as pass time), so a host speed
/// phase shorter than the run moves only a minority of them. With --trace 1
/// every second pass is traced, so traced and untraced throughput come from
/// one process and their difference is the tracing overhead.
void drive(Run& r, const std::function<void()>& setup,
           const std::function<void()>& pass) {
  r.timed = false;
  pass();
  r.timed = true;
  const double t0 = now_s();
  double paused = 0;  // set-up time inside the timed loop
  const double cap = std::min(4.0 * r.args.seconds + 5.0, 120.0);
  for (;;) {
    r.traced = r.args.trace && r.passes % 2 == 1;
    r.tr.set_enabled(r.traced);
    pass();
    r.tr.set_enabled(false);
    ++r.passes;
    if (r.traced) ++r.traced_passes;
    r.traced = false;
    const double elapsed = now_s() - t0 - paused;
    const bool enough = elapsed >= r.args.seconds &&
                        r.read_ms.size() >= kMinReads &&
                        (!r.args.trace || r.traced_passes >= 1);
    if (enough || elapsed >= cap) break;
    const double due = static_cast<double>(r.setup_s.size()) *
                       r.args.seconds / kSetupReps;
    if (r.setup_s.size() < kSetupReps && elapsed >= due) {
      const double s0 = now_s();
      timed_setup(r, setup);
      paused += now_s() - s0;
    }
  }
  while (r.setup_s.size() < kSetupReps) timed_setup(r, setup);
}

void add_stage_stats(Run& r, const cliz::StageStats& s, const char* dir) {
  static constexpr const char* kStage[cliz::kNumCodecStages] = {
      "periodic", "predictor", "classify", "encode", "lossless"};
  for (std::size_t k = 0; k < cliz::kNumCodecStages; ++k) {
    r.add(std::string(kStage[k]) + "." + dir + "_ms",
          s.stages[k].seconds * 1e3);
  }
}

/// Stage timings plus the counts behind the ratio-side layer metrics of
/// one single-stream compress.
void add_codec_stats(Run& r, const cliz::StageStats& st) {
  add_stage_stats(r, st, "compress");
  r.add("codes", static_cast<double>(st.code_count));
  r.add("outliers", static_cast<double>(st.outlier_count));
  r.add("entropy_bits",
        st.code_entropy_bits * static_cast<double>(st.code_count));
  r.add("encode_bytes",
        static_cast<double>(st.at(cliz::CodecStage::kEncode).output_bytes));
  r.add("lossless_in",
        static_cast<double>(st.at(cliz::CodecStage::kLossless).input_bytes));
  r.add("lossless_out",
        static_cast<double>(st.at(cliz::CodecStage::kLossless).output_bytes));
}

void add_tuning(Run& r, const cliz::AutotuneResult& t) {
  r.add("autotune.trials",
        static_cast<double>(t.candidates.size() + t.predictor_candidates.size() +
                            t.backend_candidates.size()));
  r.add("autotune.sample_points", static_cast<double>(t.sample_points));
}

// ---------------------------------------------------------------------------
// ensemble_archive: offline tuning premise, write-heavy. Ocean fields of
// several ensemble members go into one CLZA archive under one tuning of the
// first member; every variable is then read back.
// ---------------------------------------------------------------------------

constexpr std::size_t kMembers = 2;

void run_ensemble_archive(Run& r) {
  r.read_kind = "ArchiveReader::read";
  const double s = r.args.scale;
  const std::uint64_t seed = r.args.seed;
  const std::string path = r.args.workdir + "/ensemble.clza";
  std::vector<Var> vars;
  const auto setup = [&] {
    vars.clear();
    for (std::size_t m = 0; m < kMembers; ++m) {
      const std::string sfx = ".m" + std::to_string(m);
      const std::uint64_t k = 10 * m;
      // Three variables per member below the writer's 8 MiB chunk
      // threshold (single streams), SHF_QSW above it (chunked slabs); the
      // 3:1 mix keeps read_p50 inside the small-variable reads and
      // read_p90 inside the large ones.
      vars.push_back(make_var("SSH" + sfx,
                              cliz::make_ssh(0.25 * s, derive_seed(seed, k)),
                              m == 0));
      vars.push_back(make_var("SALT" + sfx,
                              cliz::make_salt(0.25 * s, derive_seed(seed, k + 1))));
      vars.push_back(make_var("RHO" + sfx,
                              cliz::make_rho(0.25 * s, derive_seed(seed, k + 2))));
      vars.push_back(make_var(
          "SHF_QSW" + sfx, cliz::make_shf_qsw(0.33 * s, derive_seed(seed, k + 3))));
    }
  };
  timed_setup(r, setup);

  std::vector<int> chunked(vars.size(), 0);  // span tag per variable
  bool probed = false;
  cliz::CodecContext cctx;  // replay contexts, reused across passes
  cliz::CodecContext dctx;
  std::vector<std::uint8_t> replay_stream;
  cliz::NdArray<float> replay_out(vars.front().f.data.shape());
  drive(r, setup, [&] {
    double raw = 0;
    for (const auto& v : vars) raw += static_cast<double>(v.raw_bytes);
    cliz::AutotuneResult tuned;
    const auto wdt = r.op("archive write", [&] {
      ScopedSpan write(r.tr, "write");
      std::optional<cliz::ArchiveWriter> w;
      {
        ScopedSpan sp(r.tr, "archive.create");
        w.emplace(path);
      }
      {
        ScopedSpan sp(r.tr, "autotune");
        tuned = tune(vars.front());
      }
      const cliz::ClizOptions opts = tuned_options(tuned);
      for (std::size_t i = 0; i < vars.size(); ++i) {
        const Var& v = vars[i];
        ScopedSpan sp(r.tr, "archive.add_variable", chunked[i]);
        w->add_variable(v.name, v.f.data, v.eb, tuned.best, v.f.mask_ptr(), {},
                        opts);
      }
      ScopedSpan sp(r.tr, "archive.finish");
      w->finish();
      add_tuning(r, tuned);
    });
    if (!wdt) return;
    r.record_write(raw, *wdt);

    std::optional<cliz::ArchiveReader> reader;
    double read_s = 0;
    const auto odt = r.op("archive open", [&] {
      ScopedSpan sp(r.tr, "archive.open");
      reader.emplace(path);
    });
    if (!odt) return;
    read_s += *odt;
    if (!probed) {
      // Which variables the writer stored as chunked frames (untimed).
      for (std::size_t i = 0; i < vars.size(); ++i) {
        chunked[i] = cliz::is_chunked_stream(reader->read_raw(vars[i].name));
      }
      probed = true;
    }
    double stored = 0;
    for (const auto& info : reader->variables()) {
      stored += static_cast<double>(info.compressed_bytes);
    }
    const double file_bytes =
        static_cast<double>(std::filesystem::file_size(path));
    if (r.timed) {
      r.raw_bytes += raw;
      r.stored_bytes += file_bytes;
    }
    r.add("archive.overhead_bytes", file_bytes - stored);
    for (std::size_t i = 0; i < vars.size(); ++i) {
      const Var& v = vars[i];
      cliz::NdArray<float> out;
      const auto dt = r.op("archive read", [&] {
        ScopedSpan sp(r.tr, "archive.read", chunked[i]);
        out = reader->read(v.name);
      });
      if (!dt) continue;
      read_s += *dt;
      r.record_read(*dt);
      r.check(e2e::check_decode(v.f, v.eb, v.range, out.flat(), r.quality),
              "archive variable " + v.name + " violates the bound or fill");
    }
    r.record_decode(raw, read_s);

    if (!r.traced) return;
    // Layer replay: archive calls return no per-stage timings, so the
    // single-stream path the writer takes for its sub-threshold variables
    // runs once more on the tuned variable, through reused contexts whose
    // StageStats can be read.
    const Var& v = vars.front();
    const cliz::ClizCompressor codec(tuned.best, tuned_options(tuned));
    const auto cdt = r.op("codec replay", [&] {
      ScopedSpan sp(r.tr, "codec.compress");
      codec.compress_into(v.f.data, v.eb, v.f.mask_ptr(), cctx, replay_stream);
    });
    if (!cdt) return;
    add_codec_stats(r, cctx.stats);
    const auto ddt = r.op("codec replay", [&] {
      ScopedSpan sp(r.tr, "codec.decompress");
      cliz::ClizCompressor::decompress_into(replay_stream, dctx, replay_out);
    });
    if (!ddt) return;
    add_stage_stats(r, dctx.stats, "decompress");
    e2e::Quality replay_quality;  // the archive reads above already count
    r.check(e2e::check_decode(v.f, v.eb, v.range, replay_out.flat(),
                              replay_quality),
            "replayed " + v.name + " violates the bound or the fill value");
  });
}

// ---------------------------------------------------------------------------
// tiled_windows: read-heavy serving. One periodic, masked ocean field per
// pass as a CLK3-tiled archive variable, decoded once in full, then a
// seeded stream of read_region windows through one TileCache.
// ---------------------------------------------------------------------------

// The field is 180 x 134 x 112 (10.8 MB) at scale 1. Tile and window size
// follow bench/bench_region_decode.cpp (8 x 32 x 32 tiles) and ROADMAP.md's
// "1% window" (12 x 48 x 48 = 1.02% of the field). The hot/cold mix (70% of
// the reads on 4 repeated windows) is an assumption, not taken from any
// trace; hot and cold latencies are reported apart for that reason.
constexpr std::size_t kWindowsPerPass = 200;
constexpr std::size_t kHotWindows = 4;
constexpr double kHotShare = 0.7;
const cliz::DimVec kTile = {8, 32, 32};
const cliz::DimVec kWindow = {12, 48, 48};
/// Below the decoded field (10.8 MB). Each of the 16 shards' 512 KiB slices
/// holds sixteen 32 KiB tiles, so the hot windows' tiles (at most 4 x 27)
/// stay resident under the cold traffic and a hot read is a cache hit.
constexpr std::uint64_t kCacheBytes = std::uint64_t{8} << 20;

struct Window {
  cliz::DimVec origin;
  cliz::DimVec extent;
  bool hot = false;
};

Window random_window(Rng& rng, const cliz::DimVec& dims) {
  Window w;
  for (std::size_t d = 0; d < dims.size(); ++d) {
    const std::size_t e = std::min(kWindow[d], dims[d]);
    w.extent.push_back(e);
    w.origin.push_back(rng.below(dims[d] - e + 1));
  }
  return w;
}

/// Crop of `full` (row-major over `dims`) to window `w`.
void crop(const cliz::NdArray<float>& full, const cliz::DimVec& dims,
          const Window& w, std::vector<float>& out) {
  out.resize(cliz::Shape(w.extent).size());
  std::size_t k = 0;
  for (std::size_t t = 0; t < w.extent[0]; ++t) {
    for (std::size_t y = 0; y < w.extent[1]; ++y) {
      const float* row = full.data() +
                         ((w.origin[0] + t) * dims[1] + w.origin[1] + y) * dims[2] +
                         w.origin[2];
      std::memcpy(out.data() + k, row, w.extent[2] * sizeof(float));
      k += w.extent[2];
    }
  }
}

void run_tiled_windows(Run& r) {
  r.read_kind = "ArchiveReader::read_region window";
  const std::string path = r.args.workdir + "/tiled.clza";
  const std::string name = "SHF_QSW";
  std::vector<Var> vars;
  const auto setup = [&] {
    vars.clear();
    // SHF_QSW: its ratio under the fixed pipeline below is nearly
    // seed-independent (7.87-7.90 over 10 seeds).
    vars.push_back(make_var(name, cliz::make_shf_qsw(0.35 * r.args.scale,
                                                     derive_seed(r.args.seed, 0))));
  };
  timed_setup(r, setup);
  const cliz::DimVec dims = vars.front().f.data.shape().dims();
  // Offline-tuned pipeline stand-in: no tuning runs in this workload, so
  // its write path is pure archive + tiled compression.
  cliz::PipelineConfig pipe = cliz::PipelineConfig::defaults(dims.size());
  pipe.period = 12;
  pipe.time_dim = vars.front().f.time_dim;

  Rng hot_rng{derive_seed(r.args.seed, 1)};
  std::vector<Window> hot;
  for (std::size_t i = 0; i < kHotWindows; ++i) {
    hot.push_back(random_window(hot_rng, dims));
    hot.back().hot = true;
  }

  cliz::TileCache cache(kCacheBytes);
  cliz::ChunkedScratch replay_scratch;  // benchmark-owned, reused per window
  std::vector<float> expect;
  std::vector<float> got;
  std::size_t pass_no = 0;
  cliz::TileCache::Stats cache0{};
  std::size_t cache_passes = 0;

  drive(r, setup, [&] {
    const Var& v = vars.front();  // set-up rebuilds vars between passes
    const auto wdt = r.op("tiled write", [&] {
      ScopedSpan write(r.tr, "write");
      std::optional<cliz::ArchiveWriter> w;
      {
        ScopedSpan sp(r.tr, "archive.create");
        w.emplace(path);
      }
      w->set_tile(kTile);
      {
        ScopedSpan sp(r.tr, "archive.add_variable", 1);
        w->add_variable(name, v.f.data, v.eb, pipe, v.f.mask_ptr());
      }
      ScopedSpan sp(r.tr, "archive.finish");
      w->finish();
    });
    if (!wdt) return;
    r.record_write(static_cast<double>(v.raw_bytes), *wdt);

    std::optional<cliz::ArchiveReader> reader;
    cliz::NdArray<float> full;
    const auto ddt = r.op("tiled full read", [&] {
      ScopedSpan read(r.tr, "read");
      {
        ScopedSpan sp(r.tr, "archive.open");
        reader.emplace(path);
      }
      ScopedSpan sp(r.tr, "archive.read", 1);
      full = reader->read(name);
    });
    if (!ddt) return;
    r.record_decode(static_cast<double>(v.raw_bytes), *ddt);
    r.check(e2e::check_decode(v.f, v.eb, v.range, full.flat(), r.quality),
            "tiled full decode violates the bound or the fill value");
    const double file_bytes =
        static_cast<double>(std::filesystem::file_size(path));
    if (r.timed) {
      r.raw_bytes += static_cast<double>(v.raw_bytes);
      r.stored_bytes += file_bytes;
    }
    r.add("archive.overhead_bytes",
          file_bytes - static_cast<double>(reader->info(name).compressed_bytes));

    // The pass's window stream: a fixed share of hot windows, the rest
    // uniform cold ones, in a seeded order.
    Rng rng{derive_seed(r.args.seed, 1000 + pass_no++)};
    std::vector<Window> windows;
    const auto n_hot = static_cast<std::size_t>(
        kHotShare * static_cast<double>(kWindowsPerPass));
    for (std::size_t i = 0; i < kWindowsPerPass; ++i) {
      windows.push_back(i < n_hot ? hot[i % hot.size()]
                                  : random_window(rng, dims));
    }
    for (std::size_t i = windows.size(); i > 1; --i) {
      std::swap(windows[i - 1], windows[rng.below(i)]);
    }

    cache.clear();  // every pass starts cold; stats stay monotonic
    if (r.timed && cache_passes++ == 0) cache0 = cache.stats();
    for (const Window& w : windows) {
      cliz::NdArray<float> win;
      const auto dt = r.op("read_region", [&] {
        ScopedSpan sp(r.tr, "archive.read_region");
        win = reader->read_region(name, w.origin, w.extent, &cache);
      });
      if (!dt) continue;
      r.record_read(*dt, w.hot ? 1 : 0);
      crop(full, dims, w, expect);
      r.check(win.size() == expect.size() &&
                  std::memcmp(win.data(), expect.data(),
                              expect.size() * sizeof(float)) == 0,
              "read_region window differs from the full decode");
    }

    if (!r.traced) return;
    // Layer replay on the same windows: a ChunkedReader over the same
    // record and its region decode through a benchmark-owned scratch.
    const std::vector<std::uint8_t> record = reader->read_raw(name);
    for (const Window& w : windows) {
      std::optional<cliz::ChunkedReader> cr;
      cliz::RegionStats rs;
      got.assign(cliz::Shape(w.extent).size(), 0.0f);
      const auto dt = r.op("chunked_reader", [&] {
        {
          ScopedSpan sp(r.tr, "chunked_reader.open");
          cr.emplace(std::span<const std::uint8_t>(record));
        }
        cliz::RegionOptions ro;
        ro.scratch = &replay_scratch;
        ScopedSpan sp(r.tr, "chunked_reader.region");
        rs = cr->decompress_region(w.origin, w.extent, std::span<float>(got),
                                   ro);
      });
      if (!dt) continue;
      crop(full, dims, w, expect);
      r.check(std::memcmp(got.data(), expect.data(),
                          expect.size() * sizeof(float)) == 0,
              "ChunkedReader window differs from the full decode");
      r.add("cr.tiles", static_cast<double>(rs.tiles_intersecting));
      r.add("cr.touched", static_cast<double>(rs.compressed_bytes_touched));
      r.add("cr.frame", static_cast<double>(rs.frame_compressed_bytes));
    }
  });

  const cliz::TileCache::Stats c1 = cache.stats();
  const double hits = static_cast<double>(c1.hits - cache0.hits);
  const double misses = static_cast<double>(c1.misses - cache0.misses);
  const double np = static_cast<double>(std::max<std::size_t>(r.passes, 1));
  r.layer["tile_cache.hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0;
  r.layer["tile_cache.evictions"] =
      static_cast<double>(c1.evictions - cache0.evictions) / np;
  r.layer["tile_cache.oversized"] =
      static_cast<double>(c1.oversized - cache0.oversized) / np;
  r.layer["tile_cache.present"] = 1;
  const auto ps = replay_scratch.pool.stats();
  r.layer["context_pool.warm_hit_ratio"] =
      ps.checkouts ? static_cast<double>(ps.warm_hits) /
                         static_cast<double>(ps.checkouts)
                   : 0.0;
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

std::vector<Metric> end_to_end(const Run& r) {
  std::vector<Metric> m;
  char d[160];
  std::snprintf(d, sizeof d, "n=%zu writes, %.1f MB in %.2f s", r.writes,
                r.write_bytes / 1e6, r.write_s);
  m.push_back({"compress_mbps", "MB/s",
               r.write_s > 0 ? r.write_bytes / 1e6 / r.write_s : 0, "", d});
  std::snprintf(d, sizeof d, "n=%zu full decodes, %.1f MB in %.2f s",
                r.decodes, r.decode_bytes / 1e6, r.decode_s);
  m.push_back({"decompress_mbps", "MB/s",
               r.decode_s > 0 ? r.decode_bytes / 1e6 / r.decode_s : 0, "", d});
  for (const auto& [name, p] : {std::pair{"read_p50_ms", 0.5},
                                std::pair{"read_p90_ms", 0.9}}) {
    const e2e::Percentile pc = e2e::percentile(r.read_ms, p);
    std::snprintf(d, sizeof d, "n=%zu %s reads, %zu above", pc.n, r.read_kind,
                  pc.above);
    m.push_back({name, "ms", pc.value, pc.above >= 10 ? "" : "too few samples",
                 d});
  }
  std::snprintf(d, sizeof d, "%.1f MB raw / %.1f MB stored", r.raw_bytes / 1e6,
                r.stored_bytes / 1e6);
  m.push_back({"ratio", "x",
               r.stored_bytes > 0 ? r.raw_bytes / r.stored_bytes : 0, "", d});
  std::snprintf(d, sizeof d, "n=%zu valid points", r.quality.n);
  m.push_back({"psnr_db", "dB", r.quality.psnr_db(), "", d});
  m.push_back({"peak_rss_mb", "MB", e2e::peak_rss_mb(), "", "n=1 process"});
  std::snprintf(d, sizeof d, "median of n=%zu set-ups", r.setup_s.size());
  m.push_back({"setup_s", "s", e2e::median(r.setup_s), "", d});
  const double fail_frac = r.attempted
                               ? static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted)
                               : 1.0;
  std::snprintf(d, sizeof d, "1 - fail_frac; fail_frac=%.6g (%zu of %zu ops)",
                fail_frac, r.failed, r.attempted);
  m.push_back({"success_frac", "1", 1.0 - fail_frac, "", d});
  return m;
}

std::vector<Metric> per_layer(const Run& r) {
  const auto& L = r.layer;
  const auto get = [&](const std::string& k) {
    const auto it = L.find(k);
    return it == L.end() ? 0.0 : it->second;
  };
  const double tp = static_cast<double>(std::max<std::size_t>(r.traced_passes, 1));
  const auto& tr = r.tr;
  std::vector<Metric> m;
  const auto put = [&](const char* name, const char* unit, double v,
                       bool present, const char* why = "absent") {
    m.push_back({name, unit, present ? v : 0.0, present ? "" : why, ""});
  };

  const bool tuned = tr.count("autotune") > 0;
  put("autotune.self_ms", "ms", tr.total("autotune") * 1e3 / tp, tuned);
  put("autotune.trials", "count", get("autotune.trials") / tp, tuned);
  put("autotune.sample_points", "count", get("autotune.sample_points") / tp,
      tuned);
  put("autotune.share_of_write", "1",
      tr.total("write") > 0 ? tr.total("autotune") / tr.total("write") : 0,
      tuned);

  // Stage timings exist only for single-stream calls (StageStats in the
  // caller's context); archive, chunked and tiled paths return none.
  const bool stages = tr.count("codec.compress") > 0;
  const bool codec_runs = stages || tr.count("archive.add_variable") > 0;
  const char* stage_why = codec_runs ? "unmeasured" : "absent";
  for (const char* st : {"periodic", "predictor", "classify", "encode",
                         "lossless"}) {
    for (const char* dir : {"compress", "decompress"}) {
      const std::string key = std::string(st) + "." + dir + "_ms";
      m.push_back({key, "ms", stages ? get(key) / tp : 0.0,
                   stages ? "" : stage_why, ""});
    }
  }
  const double codes = get("codes");
  const double bits_per_code = codes > 0 ? 8.0 * get("encode_bytes") / codes : 0;
  put("predictor.outlier_frac", "1", codes > 0 ? get("outliers") / codes : 0,
      stages, stage_why);
  put("encode.bits_per_code", "bits", bits_per_code, stages, stage_why);
  put("encode.efficiency", "1",
      bits_per_code > 0 ? get("entropy_bits") / codes / bits_per_code : 0,
      stages, stage_why);
  put("lossless.gain", "x",
      get("lossless_out") > 0 ? get("lossless_in") / get("lossless_out") : 0,
      stages, stage_why);

  const bool chunked = tr.count("archive.add_variable", 1) > 0;
  put("chunked.compress_ms", "ms",
      tr.total("archive.add_variable", 1) * 1e3 / tp, chunked);
  put("chunked.decompress_ms", "ms", tr.total("archive.read", 1) * 1e3 / tp,
      chunked);
  put("chunked.frames", "count",
      static_cast<double>(tr.count("archive.add_variable", 1)) / tp, chunked);

  const bool archive = tr.count("archive.add_variable") > 0;
  put("archive.add_variable_ms", "ms",
      tr.total("archive.add_variable") * 1e3 / tp, archive);
  put("archive.finish_ms", "ms", tr.total("archive.finish") * 1e3 / tp,
      archive);
  put("archive.open_ms", "ms", tr.total("archive.open") * 1e3 / tp, archive);
  put("archive.read_ms", "ms", tr.total("archive.read") * 1e3 / tp, archive);
  put("archive.overhead_bytes", "bytes", get("archive.overhead_bytes") / tp,
      archive);

  const auto mean_ms = [&](const char* span) {
    const std::size_t n = tr.count(span);
    return n ? tr.total(span) * 1e3 / static_cast<double>(n) : 0.0;
  };
  const bool regions = tr.count("archive.read_region") > 0;
  put("archive.read_region_ms", "ms", mean_ms("archive.read_region"), regions);
  const bool replay = tr.count("chunked_reader.region") > 0;
  const double nrep = static_cast<double>(
      std::max<std::size_t>(tr.count("chunked_reader.region"), 1));
  put("chunked_reader.open_ms", "ms", mean_ms("chunked_reader.open"), replay);
  put("chunked_reader.region_ms", "ms", mean_ms("chunked_reader.region"),
      replay);
  put("chunked_reader.tiles_per_read", "count", get("cr.tiles") / nrep, replay);
  put("chunked_reader.bytes_touched_frac", "1",
      get("cr.frame") > 0 ? get("cr.touched") / get("cr.frame") : 0, replay);
  put("context_pool.warm_hit_ratio", "1", get("context_pool.warm_hit_ratio"),
      replay);

  const bool cache = get("tile_cache.present") > 0;
  put("tile_cache.hit_ratio", "1", get("tile_cache.hit_ratio"), cache);
  put("tile_cache.evictions", "count", get("tile_cache.evictions"), cache);
  put("tile_cache.oversized", "count", get("tile_cache.oversized"), cache);
  // Window latencies by class (untraced passes of this run), so the cache
  // hit path and the miss path can be read without the assumed mix.
  put("tile_cache.hot_read_p50_ms", "ms",
      e2e::percentile(r.hot_ms, 0.5).value, !r.hot_ms.empty());
  put("tile_cache.cold_read_p50_ms", "ms",
      e2e::percentile(r.cold_ms, 0.5).value, !r.cold_ms.empty());

  put("process.cpu_per_wall", "1",
      r.op_wall_s > 0 ? r.op_cpu_s / r.op_wall_s : 0, true);
  put("process.minflt_per_op", "count",
      r.ops ? static_cast<double>(r.op_minflt) / static_cast<double>(r.ops) : 0,
      true);

  // Tracing overhead: traced vs untraced passes of this same process
  // (positive = traced passes were slower).
  const auto overhead = [](double ub, double us, double tb, double ts) {
    if (us <= 0 || ts <= 0 || ub <= 0) return 0.0;
    return 1.0 - (tb / ts) / (ub / us);
  };
  const bool both = r.traced_passes > 0 && r.passes > r.traced_passes;
  put("trace.compress_overhead", "1",
      overhead(r.write_bytes, r.write_s, r.traced_write_bytes,
               r.traced_write_s),
      both, "unmeasured");
  put("trace.decompress_overhead", "1",
      overhead(r.decode_bytes, r.decode_s, r.traced_decode_bytes,
               r.traced_decode_s),
      both, "unmeasured");
  return m;
}

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("%s\n", title);
  for (const auto& m : ms) {
    if (m.status.empty()) {
      std::printf("  %-34s %14.6g %-6s %s\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.detail.c_str());
    } else {
      std::printf("  %-34s %14s %-6s %s\n", m.name.c_str(), m.status.c_str(),
                  m.unit.c_str(), m.detail.c_str());
    }
  }
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string s = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit.c_str());
    s += buf;
  }
  return s + "}";
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "cliz_e2e: %s\nusage: cliz_e2e --workload "
               "ensemble_archive|tiled_windows --seed N "
               "--seconds S --trace 0|1 [--scale F] [--workdir DIR] "
               "[--commit STR]\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const std::string val = argv[++i];
    if (k == "--workload") {
      a.workload = val;
    } else if (k == "--seed") {
      a.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(val.c_str());
    } else if (k == "--trace") {
      a.trace = val == "1";
    } else if (k == "--scale") {
      a.scale = std::atof(val.c_str());
    } else if (k == "--workdir") {
      a.workdir = val;
    } else if (k == "--commit") {
      a.commit = val;
    } else {
      usage(("unknown argument " + k).c_str());
    }
  }
  if (a.seconds <= 0 || a.scale <= 0) usage("--seconds and --scale must be > 0");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  Run r;
  r.args = parse(argc, argv);
  std::filesystem::create_directories(r.args.workdir);
  // Worker threads are fixed per workload and never above nproc. Both use
  // two: on a shared 4-vCPU host a single-threaded run swung with the
  // speed of the one vCPU it landed on.
  struct Workload {
    void (*fn)(Run&);
    int threads;
  };
  const std::map<std::string, Workload> workloads = {
      {"ensemble_archive", {run_ensemble_archive, 2}},
      {"tiled_windows", {run_tiled_windows, 2}}};
  const auto it = workloads.find(r.args.workload);
  if (it == workloads.end()) usage("unknown workload");
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  r.threads = static_cast<int>(
      std::min<long>(it->second.threads, std::max(1L, nproc)));
  cliz::set_thread_count(r.threads);
  it->second.fn(r);

  const auto e2e_metrics = end_to_end(r);
  const auto layer_metrics = per_layer(r);
  std::printf("workload %s  seed %llu  threads %d  passes %zu (%zu traced)\n",
              r.args.workload.c_str(),
              static_cast<unsigned long long>(r.args.seed), r.threads, r.passes,
              r.traced_passes);
  print_table("end-to-end (untraced passes):", e2e_metrics);
  for (const auto& [cls, ms] : {std::pair{"hot", &r.hot_ms},
                                std::pair{"cold", &r.cold_ms}}) {
    if (ms->empty()) continue;
    const e2e::Percentile p50 = e2e::percentile(*ms, 0.5);
    const e2e::Percentile p90 = e2e::percentile(*ms, 0.9);
    std::printf("  %s windows: p50 %.4g ms, p90 %.4g ms (n=%zu, %zu above p90)\n",
                cls, p50.value, p90.value, p90.n, p90.above);
  }
  if (r.args.trace) {
    print_table("per-layer (traced passes; 0 in JSON = absent/unmeasured):",
                layer_metrics);
  }
  std::printf("{\"host\": %s}\n",
              e2e::host_json(r.threads, r.args.commit, r.args.workdir).c_str());

  const bool p90_ok = e2e::percentile(r.read_ms, 0.9).above >= 10;
  if (!r.args.trace && !p90_ok) {
    std::fprintf(stderr, "cliz_e2e: too few reads for an honest read_p90\n");
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              r.failed == 0 ? "true" : "false", r.attempted, r.failed,
              metrics_json(r.args.trace ? layer_metrics : e2e_metrics).c_str());
  return 0;
}
