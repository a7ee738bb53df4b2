#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/governor.hpp"
#include "src/core/bin_classify.hpp"
#include "src/core/mask.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/stage_stats.hpp"
#include "src/entropy/backend.hpp"
#include "src/lossless/lossless.hpp"
#include "src/ndarray/ndarray.hpp"
#include "src/predictor/backend.hpp"

namespace cliz {

class CodecContext;

/// Options orthogonal to the tuned pipeline.
struct ClizOptions {
  /// Value written at masked positions on decompression (CESM missing
  /// value by default).
  float fill_value = 9.96921e36f;
  /// Bin-classification shift radius / dispersion levels (paper: j = k = 1;
  /// see bench_ablation_jk for why larger values do not pay off).
  ClassifyParams classify;
  /// Predictor-stage backend for the predict/quantize stage. Recorded in
  /// the stream's predictor byte, so any reader decodes any choice; the
  /// default (interpolation) reproduces the golden corpus byte-for-byte.
  /// Whatever the backend predicts, the linear quantizer still guarantees
  /// the error bound — a poor fit only costs ratio.
  PredictorBackend predictor = PredictorBackend::kInterp;
  /// Entropy-stage backend for the quant-code stream. Recorded in the
  /// stream's entropy byte, so any reader decodes any choice; the defaults
  /// reproduce the golden corpus byte-for-byte. When the requested backend
  /// cannot represent a stream (tANS with an alphabet past 2^15 symbols)
  /// the encoder falls back to Huffman and notes it in StageStats.
  EntropyBackend entropy = EntropyBackend::kHuffman;
  /// Lossless-stage backend wrapping the assembled stream. LZ is the only
  /// value; the field stays because existing callers assign it.
  LosslessBackend lossless = LosslessBackend::kLz;
  /// Ignored: the encoder writes only the serial entropy container. Streams
  /// framed per pass by earlier builds (bit 7 of the entropy byte) still
  /// decode. The field stays because existing callers assign it.
  bool frame_passes = false;
  /// Encode-side verification: after compressing, decode the stream and
  /// confirm every valid point honours the error bound. On a violation (or
  /// a stage failure) the encode retries once with the conservative
  /// pipeline — periodicity and bin classification disabled — and records
  /// the downgrade in StageStats; if even that fails, throws Error rather
  /// than emit a stream that breaks the bound. Roughly doubles encode time.
  bool verify_encode = false;
  /// Resource governor: caps checked against declared header values before
  /// any payload-proportional allocation, so hostile streams are rejected
  /// with ErrorCode::kLimitExceeded instead of exhausting memory. Defaults
  /// are generous — trusted CLI use never hits them.
  ResourceLimits limits;
  /// Cooperative cancellation/deadline token, checked at chunk/line/segment
  /// granularity; nullptr = never cancelled. The pointee must outlive the
  /// calls it governs.
  const CancelToken* cancel = nullptr;
};

/// CliZ: the paper's error-bounded lossy compressor for climate datasets.
///
/// Pipeline (paper Fig. 1): optional periodic-component extraction, then
/// mask-aware dynamic-fitting interpolation prediction over permuted/fused
/// dimensions, linear-scale quantization, multi-Huffman encoding with
/// quantization-bin classification, and a lossless backend. The
/// PipelineConfig is the product of offline auto-tuning (see autotune.hpp);
/// the mask is supplied by the caller per the paper's contract.
///
/// Guarantee: every *valid* reconstructed point differs from the original
/// by at most the absolute error bound. Masked points decompress to
/// options.fill_value. Every entry point is a template over the sample
/// type (float or double); the stream records it, and a decode must ask
/// for the same type.
class ClizCompressor {
 public:
  explicit ClizCompressor(PipelineConfig config, ClizOptions options = {})
      : config_(std::move(config)), options_(options) {}

  /// Compresses `data`; `mask` may be nullptr (all points valid). When a
  /// mask is given it is embedded (run-length coded) in the stream.
  /// Runs on a private scratch context; callers that want the per-stage
  /// telemetry pass their own context to the overload below.
  template <Sample T>
  [[nodiscard]] std::vector<std::uint8_t> compress(
      const NdArray<T>& data, double abs_error_bound,
      const MaskMap* mask = nullptr) const;

  /// Context-reusing variant: all scratch state is drawn from `ctx`, so
  /// repeated same-shape compressions allocate nothing in steady state.
  /// Telemetry lands in ctx.stats. Streams are byte-identical to the
  /// convenience overload.
  template <Sample T>
  [[nodiscard]] std::vector<std::uint8_t> compress(const NdArray<T>& data,
                                                   double abs_error_bound,
                                                   const MaskMap* mask,
                                                   CodecContext& ctx) const;

  /// Fully allocation-free steady state: also reuses `out`'s capacity.
  template <Sample T>
  void compress_into(const NdArray<T>& data, double abs_error_bound,
                     const MaskMap* mask, CodecContext& ctx,
                     std::vector<std::uint8_t>& out) const;

  /// Decodes a stream whose recorded sample type is T (kCorruptStream
  /// otherwise; detect_sample_bytes() tells which T a stream holds). The
  /// context-taking form reports telemetry in ctx.stats.
  template <Sample T = float>
  [[nodiscard]] static NdArray<T> decompress(
      std::span<const std::uint8_t> stream);
  template <Sample T = float>
  [[nodiscard]] static NdArray<T> decompress(
      std::span<const std::uint8_t> stream, CodecContext& ctx);

  /// Caller-supplied-output decompression: decodes into `out`, which must
  /// already carry the stream's exact shape (throws Error otherwise; `out`
  /// is only written after the header validates). With a reused context,
  /// repeated same-shape decodes reach a single-digit-allocation steady
  /// state — the decode-side mirror of compress_into.
  template <Sample T>
  static void decompress_into(std::span<const std::uint8_t> stream,
                              NdArray<T>& out);
  template <Sample T>
  static void decompress_into(std::span<const std::uint8_t> stream,
                              CodecContext& ctx, NdArray<T>& out);

  /// Span variant for callers that own raw storage (e.g. a chunk slab of a
  /// larger array): `out.size()` must equal the stream's element count.
  /// Returns the decoded shape.
  template <Sample T>
  static Shape decompress_into(std::span<const std::uint8_t> stream,
                               CodecContext& ctx, std::span<T> out);

  [[nodiscard]] const PipelineConfig& config() const noexcept {
    return config_;
  }

 private:
  PipelineConfig config_;
  ClizOptions options_;
};

/// Bytes per sample recorded in a CliZ stream (4 = float32, 8 = float64),
/// so a caller can pick the matching decompress<T> (see with_sample_type).
/// The lossless unwrap runs under `limits`, the budgets the decode itself
/// will use; anything that is not a CliZ stream is refused.
[[nodiscard]] unsigned detect_sample_bytes(
    std::span<const std::uint8_t> stream, const ResourceLimits& limits = {});

}  // namespace cliz
