#include "src/core/stage_stats.hpp"

#include <cstdio>

#include "src/common/cpu_features.hpp"

namespace cliz {

const char* codec_stage_name(CodecStage stage) {
  switch (stage) {
    case CodecStage::kPeriodic:
      return "periodic";
    case CodecStage::kPredict:
      return "predict";
    case CodecStage::kClassify:
      return "classify";
    case CodecStage::kEncode:
      return "encode";
    case CodecStage::kLossless:
      return "lossless";
  }
  return "?";
}

namespace {

const char* predictor_backend_label(std::uint8_t id) {
  switch (id) {
    case 0:
      return "interp";
    case 1:
      return "lorenzo1";
    case 3:
      return "regression";
  }
  return "unknown";
}

const char* entropy_backend_label(std::uint8_t id) {
  switch (id) {
    case 0:
      return "huffman";
    case 1:
      return "tans";
  }
  return "unknown";
}

const char* lossless_backend_label(std::uint8_t id) {
  switch (id) {
    case 0:
      return "lz";
    case 1:
      return "store";
  }
  return "unknown";
}

}  // namespace

std::string StageStats::to_text() const {
  char buf[256];
  std::string out;
  std::snprintf(buf, sizeof(buf), "%-9s %10s %12s %12s %10s\n", "stage",
                "time (ms)", "in (bytes)", "out (bytes)", "MB/s");
  out += buf;
  for (std::size_t i = 0; i < kNumCodecStages; ++i) {
    const Stage& s = stages[i];
    std::snprintf(buf, sizeof(buf), "%-9s %10.3f %12zu %12zu %10.1f\n",
                  codec_stage_name(static_cast<CodecStage>(i)),
                  s.seconds * 1e3, s.input_bytes, s.output_bytes,
                  s.throughput_mbps());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "codes=%zu outliers=%zu entropy=%.3f bits/code total=%.3f ms "
                "threads=%d\n",
                code_count, outlier_count, code_entropy_bits,
                total_seconds * 1e3, threads_used);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "backends: predictor=%s entropy=%s%s lossless=%s simd=%s\n",
                predictor_backend_label(predictor_backend),
                entropy_backend_label(entropy_backend),
                entropy_downgraded ? " (downgraded)" : "",
                lossless_backend_label(lossless_backend),
                simd_tier_name(static_cast<SimdTier>(simd_tier)));
  out += buf;
  if (frame_passes) {
    std::snprintf(buf, sizeof(buf), "framing: per-pass (%zu segments)\n",
                  frame_segments);
    out += buf;
  }
  if (chunks_requested > 0) {
    std::snprintf(buf, sizeof(buf), "chunks: requested=%zu effective=%zu%s\n",
                  chunks_requested, chunks_effective,
                  chunks_effective != chunks_requested ? " (clamped)" : "");
    out += buf;
  }
  if (tile_cache_hits + tile_cache_misses + tile_cache_evictions > 0) {
    std::snprintf(buf, sizeof(buf),
                  "tile cache: hits=%zu misses=%zu evictions=%zu\n",
                  tile_cache_hits, tile_cache_misses, tile_cache_evictions);
    out += buf;
  }
  if (verified) {
    std::snprintf(buf, sizeof(buf),
                  "verified=yes downgrades=%zu verify=%.3f ms\n",
                  verify_downgrades, verify_seconds * 1e3);
    out += buf;
  }
  return out;
}

std::string StageStats::to_json() const {
  char buf[768];
  std::string out = "{\"stages\":{";
  for (std::size_t i = 0; i < kNumCodecStages; ++i) {
    const Stage& s = stages[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\":{\"seconds\":%.6f,\"input_bytes\":%zu,"
                  "\"output_bytes\":%zu,\"mbps\":%.3f}",
                  i == 0 ? "" : ",",
                  codec_stage_name(static_cast<CodecStage>(i)), s.seconds,
                  s.input_bytes, s.output_bytes, s.throughput_mbps());
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "},\"code_entropy_bits\":%.6f,\"code_count\":%zu,"
                "\"outlier_count\":%zu,\"total_seconds\":%.6f,"
                "\"verified\":%s,\"verify_downgrades\":%zu,"
                "\"verify_seconds\":%.6f,\"threads_used\":%d,"
                "\"predictor_backend\":\"%s\","
                "\"entropy_backend\":\"%s\",\"lossless_backend\":\"%s\","
                "\"entropy_downgraded\":%s,\"frame_passes\":%s,"
                "\"frame_segments\":%zu,\"chunks_requested\":%zu,"
                "\"chunks_effective\":%zu,\"tile_cache_hits\":%zu,"
                "\"tile_cache_misses\":%zu,\"tile_cache_evictions\":%zu,"
                "\"simd_tier\":\"%s\"}",
                code_entropy_bits, code_count, outlier_count, total_seconds,
                verified ? "true" : "false", verify_downgrades,
                verify_seconds, threads_used,
                predictor_backend_label(predictor_backend),
                entropy_backend_label(entropy_backend),
                lossless_backend_label(lossless_backend),
                entropy_downgraded ? "true" : "false",
                frame_passes ? "true" : "false", frame_segments,
                chunks_requested, chunks_effective, tile_cache_hits,
                tile_cache_misses, tile_cache_evictions,
                simd_tier_name(static_cast<SimdTier>(simd_tier)));
  out += buf;
  return out;
}

}  // namespace cliz
