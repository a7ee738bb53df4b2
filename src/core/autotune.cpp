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
  if (opts.consider_periodicity && opts.time_dim < nd &&
      shape.dim(opts.time_dim) >= 8) {
    const auto rows = sample_time_rows(data, mask, opts.time_dim,
                                       opts.period_probe_rows, opts.seed);
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

  // Search space.
  std::vector<std::vector<std::size_t>> perms;
  if (opts.consider_permutation) {
    perms = all_permutations(nd);
  } else {
    perms.push_back(PipelineConfig::defaults(nd).permutation);
  }
  std::vector<FusionSpec> fusions;
  if (opts.consider_fusion) {
    fusions = all_fusions(nd);
  } else {
    fusions.push_back(FusionSpec::none(nd));
  }
  std::vector<FittingKind> fittings{FittingKind::kCubic};
  if (opts.consider_fitting) fittings.push_back(FittingKind::kLinear);
  std::vector<bool> classifications{false};
  if (opts.consider_classification && nd >= 3) classifications.push_back(true);

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
  const std::size_t n_slots =
      opts.parallel_trials
          ? static_cast<std::size_t>(std::max(1, hardware_threads()))
          : 1;
  std::vector<CodecContext> pool(n_slots);
  result.candidates.resize(trials.size());
  const auto run_trial = [&](std::size_t i) {
    const TrialSpec& t = trials[i];
    CodecContext local;  // reuse_contexts=false: fresh scratch per trial
    CodecContext& ctx =
        opts.reuse_contexts
            ? pool[static_cast<std::size_t>(thread_index()) % pool.size()]
            : local;
    const ClizCompressor comp(t.config, opts.codec);
    const auto stream =
        comp.compress(t.sample->data, abs_error_bound, t.sample->mask_ptr(),
                      ctx);
    const double ratio =
        static_cast<double>(t.sample->data.size() * sizeof(float)) /
        static_cast<double>(stream.size());
    result.candidates[i] = {t.config, ratio, ctx.stats};
  };
  if (opts.parallel_trials) {
    // Cancellable: a deadline or cancel() abandons the search within one
    // trial compression per worker instead of finishing the whole grid.
    parallel_for_cancellable(0, trials.size(), opts.codec.cancel, run_trial);
  } else {
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (opts.codec.cancel != nullptr) opts.codec.cancel->check();
      run_trial(i);
    }
  }

  std::stable_sort(result.candidates.begin(), result.candidates.end(),
                   [](const PipelineCandidate& a, const PipelineCandidate& b) {
                     return a.estimated_ratio > b.estimated_ratio;
                   });
  CLIZ_REQUIRE(!result.candidates.empty(), "empty pipeline search space");

  // Optional refinement: re-rank the leaders on a 10x larger sample, where
  // close calls (classification on/off, near-tied permutations) resolve
  // more reliably.
  if (opts.refine_top_k > 0 && result.candidates.size() > 1) {
    if (opts.codec.cancel != nullptr) opts.codec.cancel->check();
    const double refine_rate = std::min(1.0, opts.sampling_rate * 10.0);
    const SampledData refine =
        sample_blocks(data, mask, refine_rate);
    std::optional<SampledData> refine_periodic;
    const std::size_t k =
        std::min(opts.refine_top_k, result.candidates.size());
    for (std::size_t i = 0; i < k; ++i) {
      PipelineCandidate& cand = result.candidates[i];
      const SampledData* s = &refine;
      if (cand.config.period > 0) {
        if (!refine_periodic.has_value()) {
          refine_periodic = sample_time_preserving(data, mask, refine_rate,
                                                   opts.time_dim);
        }
        s = &*refine_periodic;
      }
      const ClizCompressor comp(cand.config, opts.codec);
      const auto stream =
          comp.compress(s->data, abs_error_bound, s->mask_ptr(), pool[0]);
      cand.estimated_ratio =
          static_cast<double>(s->data.size() * sizeof(float)) /
          static_cast<double>(stream.size());
      cand.stats = pool[0].stats;
    }
    std::stable_sort(result.candidates.begin(),
                     result.candidates.begin() + static_cast<std::ptrdiff_t>(k),
                     [](const PipelineCandidate& a,
                        const PipelineCandidate& b) {
                       return a.estimated_ratio > b.estimated_ratio;
                     });
  }

  result.best = result.candidates.front().config;
  result.best_estimated_ratio = result.candidates.front().estimated_ratio;

  // Backend grids, phase A then B: predictor trials first (with the default
  // entropy/lossless pair), then the entropy/lossless grid on the winning
  // predictor. Both run sequentially on pool[0] in a fixed order with a
  // strict comparison, so the choice is deterministic and ties keep the
  // defaults (= the golden byte-identical stream). Sampled trials keep the
  // 3-axis grid additive (3 + 4) rather than the full 12-cell product.
  result.best_entropy = opts.codec.entropy;
  result.best_lossless = opts.codec.lossless;
  result.best_predictor = opts.codec.predictor;
  const SampledData* grid_sample = &sample;
  std::optional<SampledData> backend_periodic;
  if ((opts.consider_predictors || opts.consider_backends) &&
      result.best.period > 0) {
    backend_periodic = sample_time_preserving(data, mask, opts.sampling_rate,
                                              opts.time_dim);
    grid_sample = &*backend_periodic;
  }
  if (opts.consider_predictors) {
    const SampledData* s = grid_sample;
    constexpr PredictorBackend kPredictors[] = {
        PredictorBackend::kInterp,
        PredictorBackend::kLorenzo1,
        PredictorBackend::kRegression,
    };
    double best_ratio = 0.0;
    for (const PredictorBackend predictor : kPredictors) {
      ClizOptions codec = opts.codec;
      codec.predictor = predictor;
      const ClizCompressor comp(result.best, codec);
      const auto stream =
          comp.compress(s->data, abs_error_bound, s->mask_ptr(), pool[0]);
      const double ratio =
          static_cast<double>(s->data.size() * sizeof(float)) /
          static_cast<double>(stream.size());
      result.predictor_candidates.push_back({predictor, ratio, pool[0].stats});
      if (ratio > best_ratio) {  // strict: ties keep the earlier (default)
        best_ratio = ratio;
        result.best_predictor = predictor;
      }
    }
  }
  if (opts.consider_backends) {
    const SampledData* s = grid_sample;
    constexpr std::pair<EntropyBackend, LosslessBackend> kGrid[] = {
        {EntropyBackend::kHuffman, LosslessBackend::kLz},
        {EntropyBackend::kHuffman, LosslessBackend::kStore},
        {EntropyBackend::kTans, LosslessBackend::kLz},
        {EntropyBackend::kTans, LosslessBackend::kStore},
    };
    double best_ratio = 0.0;
    for (const auto& [entropy, lossless] : kGrid) {
      ClizOptions codec = opts.codec;
      codec.predictor = result.best_predictor;
      codec.entropy = entropy;
      codec.lossless = lossless;
      const ClizCompressor comp(result.best, codec);
      const auto stream =
          comp.compress(s->data, abs_error_bound, s->mask_ptr(), pool[0]);
      const double ratio =
          static_cast<double>(s->data.size() * sizeof(float)) /
          static_cast<double>(stream.size());
      result.backend_candidates.push_back(
          {entropy, lossless, ratio, pool[0].stats});
      if (ratio > best_ratio) {  // strict: ties keep the earlier (default)
        best_ratio = ratio;
        result.best_entropy = entropy;
        result.best_lossless = lossless;
      }
    }
  }

  // Framing phase: only when the caller asked for per-pass framing. Framing
  // trades an offset table for parallel decode, so it never wins on ratio —
  // the tuner's job here is the reverse: confirm the table overhead on the
  // sample stays inside frame_overhead_budget, and tune framing *off* when
  // it does not.
  result.best_frame_passes = opts.codec.frame_passes;
  if (opts.consider_framing && opts.codec.frame_passes) {
    const SampledData* s = grid_sample;
    ClizOptions codec = opts.codec;
    codec.predictor = result.best_predictor;
    codec.entropy = result.best_entropy;
    codec.lossless = result.best_lossless;
    codec.frame_passes = true;
    const ClizCompressor framed_comp(result.best, codec);
    result.framed_sample_bytes =
        framed_comp.compress(s->data, abs_error_bound, s->mask_ptr(), pool[0])
            .size();
    codec.frame_passes = false;
    const ClizCompressor serial_comp(result.best, codec);
    result.serial_sample_bytes =
        serial_comp.compress(s->data, abs_error_bound, s->mask_ptr(), pool[0])
            .size();
    result.best_frame_passes =
        static_cast<double>(result.framed_sample_bytes) <=
        static_cast<double>(result.serial_sample_bytes) *
            (1.0 + opts.frame_overhead_budget);
  }

  result.tuning_seconds = timer.seconds();
  return result;
}

std::string AutotuneResult::to_json() const {
  char buf[192];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf),
                "\"best_predictor\":\"%s\",\"best_entropy\":\"%s\","
                "\"best_lossless\":\"%s\",\"best_frame_passes\":%s,"
                "\"best_estimated_ratio\":%.4f",
                predictor_backend_name(best_predictor),
                entropy_backend_name(best_entropy),
                lossless_backend_name(best_lossless),
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
    std::snprintf(buf, sizeof(buf), "%s\"%s+%s\":%.4f", i == 0 ? "" : ",",
                  entropy_backend_name(c.entropy),
                  lossless_backend_name(c.lossless), c.estimated_ratio);
    out += buf;
  }
  out += "}}";
  return out;
}

}  // namespace cliz
