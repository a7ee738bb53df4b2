// Atmosphere-model study: explores what the auto-tuner exploits on a
// CESM-T-like temperature field — per-dimension smoothness, the effect of
// dimension permutation/fusion, and how CliZ's tuned pipeline compares
// against every baseline codec at the same error bound.
//
//   ./atmosphere_tuning
#include <algorithm>
#include <cstdio>

#include "src/climate/datasets.hpp"
#include "src/core/autotune.hpp"
#include "src/core/cliz.hpp"
#include "src/baselines/compressor.hpp"
#include "src/metrics/metrics.hpp"

int main() {
  const auto field = cliz::make_cesm_t(0.06);
  const double eb = cliz::abs_bound_from_relative(field.data.flat(), 1e-3);
  std::printf("dataset: %s %s, abs bound %.4g\n", field.name.c_str(),
              field.data.shape().to_string().c_str(), eb);

  // 1. Auto-tune and show the top / bottom of the pipeline ranking.
  cliz::AutotuneOptions opts;
  opts.sampling_rate = 0.01;
  const auto tuned = cliz::autotune(field.data, eb, nullptr, opts);
  std::printf("\n%zu pipelines probed in %.2f s; ranking extremes:\n",
              tuned.candidates.size(), tuned.tuning_seconds);
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& c = tuned.candidates[i];
    std::printf("  #%zu  est. ratio %6.1f  %s\n", i + 1, c.estimated_ratio,
                c.config.label().c_str());
  }
  std::printf("  ...\n");
  for (std::size_t i = tuned.candidates.size() - 2;
       i < tuned.candidates.size(); ++i) {
    const auto& c = tuned.candidates[i];
    std::printf("  #%zu  est. ratio %6.1f  %s\n", i + 1, c.estimated_ratio,
                c.config.label().c_str());
  }

  // 2. Tuned pipeline vs the identity pipeline on the full data.
  const auto tuned_stream =
      cliz::ClizCompressor(tuned.best).compress(field.data, eb);
  const auto plain_stream =
      cliz::ClizCompressor(cliz::PipelineConfig::defaults(3))
          .compress(field.data, eb);
  std::printf("\ntuned pipeline : %.2f bits/value\n",
              cliz::bit_rate(field.data.size(), tuned_stream.size()));
  std::printf("identity config: %.2f bits/value (+%.1f%%)\n",
              cliz::bit_rate(field.data.size(), plain_stream.size()),
              100.0 * (static_cast<double>(plain_stream.size()) /
                           static_cast<double>(tuned_stream.size()) -
                       1.0));

  // 3. Cross-compressor comparison at the same bound.
  std::printf("\ncompressor comparison at the same absolute bound:\n");
  for (const auto& name : cliz::compressor_names()) {
    auto comp = cliz::make_compressor(name);
    const auto stream = comp->compress(field.data, eb);
    const auto recon = comp->decompress(stream);
    const auto stats = cliz::error_stats(field.data.flat(), recon.flat());
    std::printf("  %-6s ratio %6.1f  PSNR %6.1f dB  max err %.2e\n",
                name.c_str(),
                cliz::compression_ratio(field.data.size() * 4, stream.size()),
                stats.psnr, stats.max_abs_error);
  }
  return 0;
}
