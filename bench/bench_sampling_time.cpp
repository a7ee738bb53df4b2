// Fig. 11: auto-tuning (sampling + trial compression) time as a function of
// the sampling rate, on SSH (periodic: 192 pipelines, constant extra cost
// for the periodic candidates) and CESM-T (non-periodic: 96 pipelines).
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/core/autotune.hpp"
#include "src/core/chunked.hpp"

namespace cliz {
namespace {

/// Chunked-path engineering A/B: fresh scratch every call (context pool and
/// staging buffers rebuilt) against one reused ChunkedScratch. Streams are
/// byte-identical by construction; only wall time moves. One JSON line per
/// variant lands in CLIZ_BENCH_JSON.
void run_chunked_ab(const ClimateField& field, double eb,
                    const PipelineConfig& tuned) {
  ChunkedOptions fresh;
  fresh.chunks = 8;
  ChunkedScratch scratch;
  ChunkedOptions pooled = fresh;
  pooled.scratch = &scratch;

  double fresh_s = 1e300;
  double pooled_s = 1e300;
  bool identical = true;
  std::vector<std::uint8_t> stream;
  for (int rep = 0; rep < 3; ++rep) {
    Timer ta;
    const auto a =
        chunked_compress(field.data, eb, tuned, field.mask_ptr(), fresh);
    fresh_s = std::min(fresh_s, ta.seconds());
    Timer tb;
    chunked_compress_into(field.data, eb, tuned, field.mask_ptr(), pooled,
                          stream);
    pooled_s = std::min(pooled_s, tb.seconds());
    identical = identical && a == stream;
  }
  const auto pstats = scratch.pool.stats();
  std::printf("chunked (8 slabs): fresh-scratch %.3f s, pooled-scratch "
              "%.3f s (%.2fx); pool %zu ctx, %llu checkouts, %llu warm%s\n",
              fresh_s, pooled_s, fresh_s / pooled_s, pstats.contexts,
              static_cast<unsigned long long>(pstats.checkouts),
              static_cast<unsigned long long>(pstats.warm_hits),
              identical ? "" : "  [STREAMS DIVERGED]");

  for (const bool use_pool : {false, true}) {
    bench::RunResult r;
    r.original_bytes = field.data.size() * sizeof(float);
    r.compressed_bytes = stream.size();
    r.compress_seconds = use_pool ? pooled_s : fresh_s;
    Timer td;
    const auto recon =
        chunked_decompress(stream, use_pool ? &scratch : nullptr);
    r.decompress_seconds = td.seconds();
    const auto stats =
        error_stats(field.data.flat(), recon.flat(), field.mask_ptr());
    r.psnr = stats.psnr;
    r.max_abs_error = stats.max_abs_error;
    bench::record_json("chunked_scratch_ab", use_pool ? "pooled" : "fresh",
                       r);
  }
}

void run_dataset(const ClimateField& field, double eb) {
  std::printf("\n-- %s %s --\n", field.name.c_str(),
              field.data.shape().to_string().c_str());

  // Reference: one full-data compression with the tuned-at-1% pipeline.
  AutotuneOptions ref_opts;
  ref_opts.time_dim = field.time_dim;
  ref_opts.sampling_rate = 0.01;
  const auto ref = autotune(field.data, eb, field.mask_ptr(), ref_opts);
  Timer tc;
  const auto stream =
      ClizCompressor(ref.best).compress(field.data, eb, field.mask_ptr());
  const double full_compress_s = tc.seconds();
  std::printf("full-data compression: %.3f s (pipeline: %s)\n",
              full_compress_s, ref.best.label().c_str());

  bench::Table t({"Sampling rate", "Pipelines", "Sample pts", "Tuning (s)",
                  "Tuning / full compress"});
  for (const double rate : {1e-1, 1e-2, 1e-3, 1e-4}) {
    AutotuneOptions opts;
    opts.time_dim = field.time_dim;
    opts.sampling_rate = rate;
    const auto result = autotune(field.data, eb, field.mask_ptr(), opts);
    t.add_row({bench::fmt_sci(rate), std::to_string(result.candidates.size()),
               std::to_string(result.sample_points),
               bench::fmt(result.tuning_seconds, 3),
               bench::fmt(result.tuning_seconds / full_compress_s, 2) + "x"});
  }
  t.print();

  std::printf("best-candidate stage breakdown (sample trial):\n%s",
              ref.candidates.front().stats.to_text().c_str());

  run_chunked_ab(field, eb, ref.best);
}

void run() {
  std::printf("== Fig. 11: sampling & trial-compression time vs sampling "
              "rate ==\n");
  {
    const auto ssh = make_ssh();
    run_dataset(ssh, abs_bound_from_relative(ssh.data.flat(), 1e-3,
                                             ssh.mask_ptr()));
  }
  {
    const auto cesm = make_cesm_t(0.06);
    run_dataset(cesm, abs_bound_from_relative(cesm.data.flat(), 1e-3));
  }
  std::printf("\n(paper: time is ~linear in the sampling rate; the periodic\n"
              " candidates add a roughly constant extra cost on SSH, and the\n"
              " non-periodic CESM-T searches half as many pipelines)\n");
}

}  // namespace
}  // namespace cliz

int main() {
  cliz::run();
  return 0;
}
