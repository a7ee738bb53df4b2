#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

namespace cliz {

/// The five stages of the CliZ codec pipeline, in execution order.
/// compress runs them top to bottom; decompress runs the inverses bottom
/// to top.
enum class CodecStage : unsigned {
  kPeriodic = 0,   ///< periodic-component extraction (template + residual)
  kPredict = 1,    ///< mask-aware interpolation prediction + quantization
  kClassify = 2,   ///< quantization-bin classification (column shifts/groups)
  kEncode = 3,     ///< multi-Huffman entropy coding of the code stream
  kLossless = 4,   ///< final byte-stream lossless backend
};
inline constexpr std::size_t kNumCodecStages = 5;

const char* codec_stage_name(CodecStage stage);

/// Per-stage telemetry populated by every pipeline stage of one compress
/// (or decompress) call. Stored inside CodecContext; a stage that does not
/// run (e.g. kPeriodic with period=0) leaves its entry zeroed.
struct StageStats {
  struct Stage {
    double seconds = 0.0;          ///< wall time spent in the stage
    std::size_t input_bytes = 0;   ///< bytes the stage consumed
    std::size_t output_bytes = 0;  ///< bytes the stage produced

    /// Stage throughput in MB/s over the bytes it consumed (0 when the
    /// stage did not run or ran too fast to time).
    [[nodiscard]] double throughput_mbps() const {
      if (seconds <= 0.0 || input_bytes == 0) return 0.0;
      return static_cast<double>(input_bytes) / seconds / 1e6;
    }
  };

  std::array<Stage, kNumCodecStages> stages{};
  /// Shannon entropy (bits/symbol) of the stream handed to the entropy
  /// coder: per-group-weighted in classified mode, so it is the lower bound
  /// the multi-Huffman stage could reach. Zero on decompression.
  double code_entropy_bits = 0.0;
  /// Codes emitted by the prediction stage (== valid points).
  std::size_t code_count = 0;
  /// Points escaped to the outlier side stream.
  std::size_t outlier_count = 0;
  /// End-to-end wall time of the call that produced these stats.
  double total_seconds = 0.0;
  /// True when the stream was confirmed by an encode-side decode-and-check
  /// (ClizOptions::verify_encode).
  bool verified = false;
  /// Times the verifier rejected an attempt and the pipeline was degraded
  /// (periodicity and classification disabled) before this stream passed.
  std::size_t verify_downgrades = 0;
  /// Wall time spent in the post-encode verification decode(s).
  double verify_seconds = 0.0;
  /// Worker threads available to the parallel stages of this run
  /// (hardware_threads() at call time).
  int threads_used = 1;
  /// SIMD tier the predict/quantize kernels dispatched to (SimdTier value:
  /// 0=scalar, 1=sse42, 2=avx2) — active_simd_tier() at call time.
  std::uint8_t simd_tier = 0;
  /// Predictor-stage backend id for this stream (encode: the requested
  /// backend; decode: the id read from the stream's predictor byte).
  /// Matches PredictorBackend's wire values.
  std::uint8_t predictor_backend = 0;
  /// Entropy-stage backend id actually used for this stream (encode: the
  /// backend that wrote it, after any infeasibility fallback; decode: the id
  /// read from the stream). Matches EntropyBackend's wire values.
  std::uint8_t entropy_backend = 0;
  /// Lossless-stage backend id (LosslessBackend wire values): the requested
  /// backend on encode, the one implied by the frame's mode byte on decode.
  std::uint8_t lossless_backend = 0;
  /// True when the requested entropy backend could not represent the stream
  /// (tANS alphabet past 2^15 symbols) and the encoder fell back to Huffman.
  bool entropy_downgraded = false;
  /// True when the stream uses the per-pass framed entropy container
  /// (ClizOptions::frame_passes; bit 7 of the entropy byte on decode).
  bool frame_passes = false;
  /// Independently decodable entropy segments of the framed container
  /// (0 for serial streams).
  std::size_t frame_segments = 0;
  /// Chunked frames: chunks (or tiles) the caller asked for. Zero when the
  /// call was not chunked.
  std::size_t chunks_requested = 0;
  /// Chunked frames: chunks actually written after clamping (dims[0] can
  /// silently reduce the slab count below the request — the pair makes the
  /// clamp visible instead of silent).
  std::size_t chunks_effective = 0;
  /// Decoded-tile cache telemetry of the call (region reads through a
  /// TileCache); all zero when no cache was involved.
  std::size_t tile_cache_hits = 0;
  std::size_t tile_cache_misses = 0;
  std::size_t tile_cache_evictions = 0;

  [[nodiscard]] Stage& at(CodecStage s) {
    return stages[static_cast<unsigned>(s)];
  }
  [[nodiscard]] const Stage& at(CodecStage s) const {
    return stages[static_cast<unsigned>(s)];
  }

  void reset() { *this = StageStats{}; }

  /// Multi-line human-readable table (clizc --stats).
  [[nodiscard]] std::string to_text() const;

  /// Single JSON object, keys stable for the bench tooling.
  [[nodiscard]] std::string to_json() const;
};

}  // namespace cliz
