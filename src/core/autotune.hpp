#pragma once

#include <optional>
#include <vector>

#include "src/core/cliz.hpp"
#include "src/core/mask.hpp"
#include "src/core/pipeline.hpp"
#include "src/fft/period.hpp"
#include "src/ndarray/ndarray.hpp"

namespace cliz {

/// Options steering the offline auto-tuning stage (paper VI-A). The
/// pipeline search always covers the paper's whole space: the FFT period
/// candidate (when time_dim has at least 8 steps), bin classification
/// (when the data has at least 3 dims), every dimension permutation, every
/// fusion and both fittings.
struct AutotuneOptions {
  /// Target ratio between the sample volume and the full dataset volume.
  double sampling_rate = 0.01;
  /// Physical dim treated as time when probing periodicity.
  std::size_t time_dim = 0;
  /// After the pipeline search, trial each entropy backend (huffman, tans)
  /// on the winning configuration and record the strict-best in
  /// best_entropy. Ties keep the default (huffman), so a stream produced
  /// with the chosen backend only deviates from the golden default when it
  /// is strictly smaller on the sample.
  bool consider_backends = true;
  /// Before the entropy trials, trial every predictor backend on the
  /// winning pipeline (with the default entropy coder) and record the
  /// strict-best in best_predictor; the entropy trials then run with that
  /// predictor. The axes stay additive (3 + 2 trials) rather than
  /// multiplicative (6). Ties keep the default (interpolation = the golden
  /// byte-identical stream).
  bool consider_predictors = true;
  /// Codec options forwarded to the trial compressions. The predictor and
  /// entropy fields seed the backend trials' baseline (and are the final
  /// choice when the matching consider_* toggle is false). Like the
  /// encoder, the tuner ignores codec.frame_passes.
  ClizOptions codec;
};

/// One tested pipeline with its estimated compression ratio on the sample.
struct PipelineCandidate {
  PipelineConfig config;
  double estimated_ratio = 0.0;
  /// Per-stage breakdown of this candidate's trial compression.
  StageStats stats;
};

/// One tested predictor backend on the winning pipeline.
struct PredictorCandidate {
  PredictorBackend predictor = PredictorBackend::kInterp;
  double estimated_ratio = 0.0;
  /// Stats of this predictor's trial compression on the sample.
  StageStats stats;
};

/// One tested entropy backend on the winning pipeline.
struct BackendCandidate {
  EntropyBackend entropy = EntropyBackend::kHuffman;
  double estimated_ratio = 0.0;
  /// Stats of this backend's trial compression; entropy_backend here is the
  /// backend actually used (a tANS trial that downgraded reads 0).
  StageStats stats;
};

/// Output of autotune().
struct AutotuneResult {
  PipelineConfig best;
  double best_estimated_ratio = 0.0;
  /// Every candidate tested, sorted by estimated ratio (best first).
  std::vector<PipelineCandidate> candidates;
  /// Entropy backend for the winning pipeline (the default when the trials
  /// are disabled or nothing beat huffman on the sample).
  EntropyBackend best_entropy = EntropyBackend::kHuffman;
  /// Always LosslessBackend::kLz, the only lossless backend; kept because
  /// existing callers copy it into ClizOptions::lossless.
  LosslessBackend best_lossless = LosslessBackend::kLz;
  /// Predictor backend for the winning pipeline (interp unless a trial on
  /// the sample strictly beat it).
  PredictorBackend best_predictor = PredictorBackend::kInterp;
  /// Every predictor backend tested on `best`, in trial (wire-id) order
  /// (empty when consider_predictors is false).
  std::vector<PredictorCandidate> predictor_candidates;
  /// Every entropy backend tested on `best`, in trial order (empty when
  /// consider_backends is false).
  std::vector<BackendCandidate> backend_candidates;
  /// Always false: the encoder writes only the serial entropy container.
  /// The field and its JSON key stay because existing callers read them.
  bool best_frame_passes = false;
  double tuning_seconds = 0.0;
  std::size_t sample_points = 0;
  /// FFT period estimate over the probed rows (nullopt: not periodic, or
  /// time_dim too short to probe).
  std::optional<PeriodEstimate> period;

  /// Single JSON object with the chosen backends and the per-backend
  /// candidate ratios of both grids (keys stable for the bench tooling):
  /// {"best_predictor":..., "best_entropy":..., "best_frame_passes":...,
  ///  "best_estimated_ratio":..., "predictor_candidates":{name: ratio, ...},
  ///  "backend_candidates":{entropy name: ratio, ...}}
  [[nodiscard]] std::string to_json() const;
};

/// A sampled sub-dataset (block sample) with its cropped mask.
struct SampledData {
  NdArray<float> data;
  std::optional<MaskMap> mask;

  [[nodiscard]] const MaskMap* mask_ptr() const {
    return mask.has_value() ? &*mask : nullptr;
  }
};

/// Paper VI-A block sampling: two blocks per dimension centred at 1/3 and
/// 2/3 of the extent (2^n blocks total), each side about
/// rate^(1/n)/2 of the full side, concatenated into one array.
SampledData sample_blocks(const NdArray<float>& data, const MaskMap* mask,
                          double sampling_rate);

/// Variant for periodicity candidates: the time dimension is kept at full
/// extent (so period extraction on the sample is meaningful — the paper's
/// "constant increase in sampling time") and the spatial sides shrink
/// further to keep the sampled volume at `sampling_rate`.
SampledData sample_time_preserving(const NdArray<float>& data,
                                   const MaskMap* mask, double sampling_rate,
                                   std::size_t time_dim);

/// Gathers up to `rows` full-length time rows at deterministic pseudo-random
/// spatial positions, skipping rows that contain masked points. Used for
/// FFT period detection (paper Fig. 8).
std::vector<std::vector<double>> sample_time_rows(const NdArray<float>& data,
                                                  const MaskMap* mask,
                                                  std::size_t time_dim,
                                                  std::size_t rows,
                                                  std::uint64_t seed);

/// Offline auto-tuning: detect periodicity, build the samples, try every
/// pipeline in the configured search space on the sample, and return the
/// best configuration plus the full ranked candidate list.
AutotuneResult autotune(const NdArray<float>& data, double abs_error_bound,
                        const MaskMap* mask, const AutotuneOptions& opts = {});

}  // namespace cliz
