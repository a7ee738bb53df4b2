#include "src/core/autotune.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>

#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/timer.hpp"
#include "src/core/codec_context.hpp"

namespace cliz {

namespace {

/// Rows sampled along the time dimension for FFT period detection.
constexpr std::size_t kPeriodProbeRows = 10;
/// Seed of the pseudo-random row positions of the period probe.
constexpr std::uint64_t kPeriodProbeSeed = 42;

/// Copies the two-blocks-per-dim sample given per-dim block sides. Sample
/// coordinate c in [0, 2b) maps to block A (c < b) or block B (c >= b).
SampledData gather_two_block_sample(const NdArray<float>& data,
                                    const MaskMap* mask,
                                    const DimVec& block_side) {
  const Shape& shape = data.shape();
  const std::size_t nd = shape.ndims();

  DimVec sample_dims(nd);
  DimVec start_a(nd);
  DimVec start_b(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    const std::size_t n = shape.dim(d);
    const std::size_t b = block_side[d];
    sample_dims[d] = b < n ? 2 * b : n;
    const auto centre = [n, b](std::size_t num, std::size_t den) {
      const std::size_t c = n * num / den;
      const std::size_t half = b / 2;
      const std::size_t start = c > half ? c - half : 0;
      return std::min(start, n - b);
    };
    start_a[d] = centre(1, 3);
    start_b[d] = b < n ? centre(2, 3) : 0;
  }

  const Shape sshape(sample_dims);
  NdArray<float> sample(sshape);
  std::optional<MaskMap> smask;
  if (mask != nullptr) smask = MaskMap::all_valid(sshape);

  DimVec c(nd, 0);
  DimVec src(nd);
  for (std::size_t i = 0; i < sshape.size(); ++i) {
    for (std::size_t d = 0; d < nd; ++d) {
      const std::size_t b = block_side[d];
      if (sample_dims[d] == shape.dim(d)) {
        src[d] = c[d];
      } else {
        src[d] = c[d] < b ? start_a[d] + c[d] : start_b[d] + (c[d] - b);
      }
    }
    const std::size_t soff = shape.offset(src);
    sample[i] = data[soff];
    if (smask.has_value()) {
      smask->mutable_data()[i] = mask->valid(soff) ? 1 : 0;
    }
    std::size_t d = nd;
    while (d-- > 0) {
      if (++c[d] < sample_dims[d]) break;
      c[d] = 0;
    }
  }
  return SampledData{std::move(sample), std::move(smask)};
}

}  // namespace

SampledData sample_blocks(const NdArray<float>& data, const MaskMap* mask,
                          double sampling_rate) {
  CLIZ_REQUIRE(sampling_rate > 0 && sampling_rate <= 1.0,
               "sampling rate out of (0, 1]");
  const Shape& shape = data.shape();
  const std::size_t nd = shape.ndims();
  const double f =
      0.5 * std::pow(sampling_rate, 1.0 / static_cast<double>(nd));
  DimVec side(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    const std::size_t n = shape.dim(d);
    side[d] = std::clamp<std::size_t>(
        static_cast<std::size_t>(std::llround(f * static_cast<double>(n))), 1,
        std::max<std::size_t>(1, n / 2));
  }
  return gather_two_block_sample(data, mask, side);
}

SampledData sample_time_preserving(const NdArray<float>& data,
                                   const MaskMap* mask, double sampling_rate,
                                   std::size_t time_dim) {
  CLIZ_REQUIRE(sampling_rate > 0 && sampling_rate <= 1.0,
               "sampling rate out of (0, 1]");
  const Shape& shape = data.shape();
  const std::size_t nd = shape.ndims();
  CLIZ_REQUIRE(time_dim < nd, "time_dim out of range");
  if (nd == 1) {
    // Nothing to shrink: the whole (time) dimension is the sample.
    DimVec side{shape.dim(0)};
    return gather_two_block_sample(data, mask, side);
  }
  const double f = 0.5 * std::pow(sampling_rate,
                                  1.0 / static_cast<double>(nd - 1));
  DimVec side(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    const std::size_t n = shape.dim(d);
    if (d == time_dim) {
      side[d] = n;  // keep full extent: sample_dims becomes n
    } else {
      side[d] = std::clamp<std::size_t>(
          static_cast<std::size_t>(std::llround(f * static_cast<double>(n))),
          1, std::max<std::size_t>(1, n / 2));
    }
  }
  return gather_two_block_sample(data, mask, side);
}

std::vector<std::vector<double>> sample_time_rows(const NdArray<float>& data,
                                                  const MaskMap* mask,
                                                  std::size_t time_dim,
                                                  std::size_t rows,
                                                  std::uint64_t seed) {
  const Shape& shape = data.shape();
  CLIZ_REQUIRE(time_dim < shape.ndims(), "time_dim out of range");
  const std::size_t t_extent = shape.dim(time_dim);
  const std::size_t t_stride = shape.stride(time_dim);

  Rng rng(seed);
  std::vector<std::vector<double>> out;
  const std::size_t max_attempts = rows * 20 + 16;
  for (std::size_t attempt = 0;
       attempt < max_attempts && out.size() < rows; ++attempt) {
    // Random position with time coordinate 0.
    DimVec c(shape.ndims());
    for (std::size_t d = 0; d < shape.ndims(); ++d) {
      c[d] = d == time_dim ? 0 : rng.uniform_index(shape.dim(d));
    }
    const std::size_t base = shape.offset(c);
    std::vector<double> row(t_extent);
    bool ok = true;
    for (std::size_t t = 0; t < t_extent; ++t) {
      const std::size_t off = base + t * t_stride;
      if (mask != nullptr && !mask->valid(off)) {
        ok = false;
        break;
      }
      row[t] = static_cast<double>(data[off]);
    }
    if (ok) out.push_back(std::move(row));
  }
  return out;
}

AutotuneResult autotune(const NdArray<float>& data, double abs_error_bound,
                        const MaskMap* mask, const AutotuneOptions& opts) {
  const Timer timer;
  const Shape& shape = data.shape();
  const std::size_t nd = shape.ndims();
  AutotuneResult result;

  // Periodicity probe on full-length rows (the constant-cost part of the
  // tuning budget).
  std::vector<std::size_t> periods{0};
  if (opts.time_dim < nd && shape.dim(opts.time_dim) >= 8) {
    const auto rows = sample_time_rows(data, mask, opts.time_dim,
                                       kPeriodProbeRows, kPeriodProbeSeed);
    if (!rows.empty()) {
      result.period = detect_period(rows);
      if (result.period.has_value()) {
        periods.push_back(result.period->period);
      }
    }
  }

  // Samples: one generic block sample, plus (lazily) a time-preserving one
  // for the periodic candidates.
  const SampledData sample = sample_blocks(data, mask, opts.sampling_rate);
  std::optional<SampledData> periodic_sample;
  if (periods.size() > 1) {
    periodic_sample =
        sample_time_preserving(data, mask, opts.sampling_rate, opts.time_dim);
  }
  result.sample_points = sample.data.size();

  // Search space: the paper's whole grid.
  const std::vector<std::vector<std::size_t>> perms = all_permutations(nd);
  const std::vector<FusionSpec> fusions = all_fusions(nd);
  const std::vector<FittingKind> fittings{FittingKind::kCubic,
                                          FittingKind::kLinear};
  std::vector<bool> classifications{false};
  if (nd >= 3) classifications.push_back(true);

  // Flatten the search grid into an indexed trial list so the trial loop
  // can run in parallel while the result order (and therefore every
  // stable_sort tie-break downstream) stays exactly that of the serial
  // nested loops.
  struct TrialSpec {
    PipelineConfig config;
    const SampledData* sample;
  };
  std::vector<TrialSpec> trials;
  for (const std::size_t period : periods) {
    const SampledData& s = period > 0 ? *periodic_sample : sample;
    for (const bool classify : classifications) {
      for (const auto& perm : perms) {
        for (const auto& fusion : fusions) {
          for (const FittingKind fitting : fittings) {
            PipelineConfig config;
            config.permutation = perm;
            config.fusion = fusion;
            config.fitting = fitting;
            config.period = period;
            config.time_dim = opts.time_dim;
            config.classify_bins = classify;
            trials.push_back({std::move(config), &s});
          }
        }
      }
    }
  }

  // One context per thread: trial compressions after the first reuse the
  // previous trial's buffers (LZ hash chains, code vectors, Huffman
  // scratch), which is where the tuning loop spends its allocations.
  std::vector<CodecContext> pool(
      static_cast<std::size_t>(std::max(1, hardware_threads())));
  // Every trial: compress sample `s` on `ctx` and return its ratio; the
  // trial's stage breakdown is left in ctx.stats.
  const auto trial = [&](const PipelineConfig& config,
                         const ClizOptions& codec, const SampledData& s,
                         CodecContext& ctx) {
    const auto stream = ClizCompressor(config, codec)
                            .compress(s.data, abs_error_bound, s.mask_ptr(),
                                      ctx);
    return static_cast<double>(s.data.size() * sizeof(float)) /
           static_cast<double>(stream.size());
  };

  // Cancellable: a deadline or cancel() abandons the search within one
  // trial compression per worker instead of finishing the whole grid.
  result.candidates.resize(trials.size());
  parallel_for_cancellable(
      0, trials.size(), opts.codec.cancel, [&](std::size_t i) {
        CodecContext& ctx =
            pool[static_cast<std::size_t>(thread_index()) % pool.size()];
        const double ratio =
            trial(trials[i].config, opts.codec, *trials[i].sample, ctx);
        result.candidates[i] = {trials[i].config, ratio, ctx.stats};
      });

  std::stable_sort(result.candidates.begin(), result.candidates.end(),
                   [](const PipelineCandidate& a, const PipelineCandidate& b) {
                     return a.estimated_ratio > b.estimated_ratio;
                   });
  CLIZ_REQUIRE(!result.candidates.empty(), "empty pipeline search space");

  result.best = result.candidates.front().config;
  result.best_estimated_ratio = result.candidates.front().estimated_ratio;

  // Backend grids, phase A then B: predictor trials first (with the default
  // entropy coder), then the entropy trials on the winning predictor. Both
  // run sequentially on pool[0] in a fixed order with a strict comparison,
  // so the choice is deterministic and ties keep the defaults (= the golden
  // byte-identical stream). The two axes stay additive (3 + 2 trials)
  // rather than a 6-cell product.
  result.best_entropy = opts.codec.entropy;
  result.best_predictor = opts.codec.predictor;
  const SampledData* grid_sample = &sample;
  std::optional<SampledData> backend_periodic;
  if ((opts.consider_predictors || opts.consider_backends) &&
      result.best.period > 0) {
    backend_periodic = sample_time_preserving(data, mask, opts.sampling_rate,
                                              opts.time_dim);
    grid_sample = &*backend_periodic;
  }
  ClizOptions codec = opts.codec;
  if (opts.consider_predictors) {
    double best_ratio = 0.0;
    for (const PredictorBackend predictor :
         {PredictorBackend::kInterp, PredictorBackend::kLorenzo1,
          PredictorBackend::kRegression}) {
      codec.predictor = predictor;
      const double ratio = trial(result.best, codec, *grid_sample, pool[0]);
      result.predictor_candidates.push_back({predictor, ratio, pool[0].stats});
      if (ratio > best_ratio) {  // strict: ties keep the earlier (default)
        best_ratio = ratio;
        result.best_predictor = predictor;
      }
    }
  }
  codec.predictor = result.best_predictor;
  if (opts.consider_backends) {
    double best_ratio = 0.0;
    for (const EntropyBackend entropy :
         {EntropyBackend::kHuffman, EntropyBackend::kTans}) {
      codec.entropy = entropy;
      const double ratio = trial(result.best, codec, *grid_sample, pool[0]);
      result.backend_candidates.push_back({entropy, ratio, pool[0].stats});
      if (ratio > best_ratio) {  // strict: ties keep the earlier (default)
        best_ratio = ratio;
        result.best_entropy = entropy;
      }
    }
  }
  codec.entropy = result.best_entropy;

  result.tuning_seconds = timer.seconds();
  return result;
}

std::string AutotuneResult::to_json() const {
  char buf[192];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"best_predictor\":\"%s\",\"best_entropy\":\"%s\","
                "\"best_frame_passes\":%s,\"best_estimated_ratio\":%.4f",
                predictor_backend_name(best_predictor),
                entropy_backend_name(best_entropy),
                best_frame_passes ? "true" : "false", best_estimated_ratio);
  out += buf;
  out += ",\"predictor_candidates\":{";
  for (std::size_t i = 0; i < predictor_candidates.size(); ++i) {
    const PredictorCandidate& c = predictor_candidates[i];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.4f", i == 0 ? "" : ",",
                  predictor_backend_name(c.predictor), c.estimated_ratio);
    out += buf;
  }
  out += "},\"backend_candidates\":{";
  for (std::size_t i = 0; i < backend_candidates.size(); ++i) {
    const BackendCandidate& c = backend_candidates[i];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":%.4f", i == 0 ? "" : ",",
                  entropy_backend_name(c.entropy), c.estimated_ratio);
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace cliz
