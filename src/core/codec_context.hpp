#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/bitio.hpp"
#include "src/common/bytestream.hpp"
#include "src/common/census.hpp"
#include "src/common/governor.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/stage_backends.hpp"
#include "src/core/stage_stats.hpp"
#include "src/entropy/tans.hpp"
#include "src/huffman/huffman.hpp"
#include "src/lossless/lossless.hpp"
#include "src/predictor/interp_engine.hpp"
#include "src/predictor/lorenzo_nd.hpp"

namespace cliz {

/// Reusable scratch arena for the staged codec pipeline.
///
/// Every stage of compress/decompress reads and writes buffers owned here
/// instead of allocating locals, so repeated (de)compressions of same-shape
/// data through one context perform no steady-state heap allocations for
/// the hot buffers: the work copy, offset/code/outlier vectors, the
/// classification shift/group arrays, the per-group symbol censuses (flat
/// count arrays over the code alphabet), the Huffman and tANS tables, the
/// bit/byte stream staging, and the lossless backend's hash chains.
///
/// Ownership rules:
///  - A context may be reused across any sequence of compress/decompress
///    calls, with any shapes, sample types, and pipeline configs; each call
///    resets the state it needs. Streams produced through a reused context
///    are byte-identical to ones produced through a fresh context.
///  - A context must not be shared by two concurrent calls. For parallel
///    work (e.g. autotune trial compressions) use one context per thread.
///  - `stats` holds the telemetry of the most recent call.
///
/// The periodic-extraction stage compresses its template recursively; the
/// nested call runs on `child()`, a lazily created sub-context that is
/// itself reused across runs.
class CodecContext {
 public:
  CodecContext() = default;
  CodecContext(const CodecContext&) = delete;
  CodecContext& operator=(const CodecContext&) = delete;
  CodecContext(CodecContext&&) noexcept = default;
  CodecContext& operator=(CodecContext&&) noexcept = default;

  /// Per-stage telemetry of the most recent (de)compression run.
  StageStats stats;

  // --- resource governor ---
  /// Budgets checked against declared header values before the decoder
  /// allocates on their behalf. Defaults are generous; a caller tightens
  /// them (directly, or via ClizOptions::limits / ArchiveReader) to serve
  /// untrusted streams. Plain value members: stamping them is a POD copy,
  /// so the steady-state allocation budget is untouched.
  ResourceLimits limits;
  /// Cooperative cancellation for the call running on this context;
  /// nullptr = never cancelled. Checked at chunk/line/segment granularity.
  const CancelToken* cancel = nullptr;

  // --- prediction / quantization stage ---
  std::vector<std::uint64_t> offsets;   ///< linear offset per emitted code
  std::vector<std::uint32_t> codes;     ///< quantization bin codes
  std::vector<std::uint8_t> pass_fits;  ///< dynamic-fitting choice per pass
  InterpLineScratch interp;             ///< line-parallel engine scratch
  /// Decode: view into `raw` of the interp backend's pass-fit table (set by
  /// predictor_parse; valid until the next decode through this context).
  std::span<const std::uint8_t> pred_pass_fits;
  std::vector<LorenzoTerm> lorenzo_terms;  ///< Lorenzo stencil scratch
  /// Decode batch staging for the raster-scan predictor backends (Lorenzo,
  /// regression): all target offsets, then the fetched code batch.
  std::vector<std::uint64_t> pred_offs;
  std::vector<std::uint32_t> pred_codes;
  /// Regression backend: quantized plane coefficients parsed from the
  /// stream ((ndims + 1) per occupied block) and the stream's block side.
  std::vector<std::int64_t> reg_qcoeffs;
  std::size_t reg_block_side = 0;

  // --- classification / entropy-coding stage ---
  std::vector<std::uint32_t> shifted;  ///< per-point shifted symbols
  std::vector<std::uint8_t> group;     ///< per-point Huffman group id
  /// Per-group symbol census; index 0 doubles as the single-tree census
  /// (and the entropy histogram) in unclassified mode.
  std::vector<SymbolCensus> freq;
  /// Huffman codecs, rebuilt in place each run (capacity retained).
  std::vector<HuffmanCodec> trees;
  /// tANS codecs (EntropyBackend::kTans), rebuilt in place each run.
  std::vector<TansCodec> tans;
  /// Reverse-encode renormalization stack for the tANS backend.
  std::vector<std::uint32_t> tans_stack;
  ByteWriter tree_bytes;  ///< staging for one serialized tree
  BitWriter bits;         ///< entropy-coded payload staging

  /// Parsed segment table of a framed entropy container (decode only).
  std::vector<FramedSegment> frame_segments;

  // --- stream assembly ---
  ByteWriter raw_stream;  ///< the assembled pre-lossless stream
  /// Output of the recursive periodic-template compression.
  std::vector<std::uint8_t> template_stream;
  LosslessScratch lossless;  ///< LZ hash chains + section staging

  // --- decode-side scratch ---
  std::vector<std::uint8_t> raw;  ///< lossless-decompressed input stream
  /// Pipeline config parsed from the stream header (decode) or staged for
  /// serialization; its permutation/fusion vectors keep their capacity
  /// across calls via PipelineConfig::deserialize_into.
  PipelineConfig header_config;

  // --- layout scratch (shared by encode and decode) ---
  std::vector<AxisSpec> axes;          ///< fused logical axes of the shape
  std::vector<std::size_t> axis_order; ///< induced pass order over the axes

  /// Work copy of the data (mutated to the reconstruction during
  /// prediction, which it still holds after a compress call; the periodic
  /// stage reads the template's reconstruction from the child's), selected
  /// by sample type.
  template <typename T>
  [[nodiscard]] std::vector<T>& work();

  /// Outlier side stream, selected by sample type.
  template <typename T>
  [[nodiscard]] std::vector<T>& outliers();

  /// Decode-side reconstruction buffer for the recursive periodic template,
  /// selected by sample type.
  template <typename T>
  [[nodiscard]] std::vector<T>& tmpl_work();

  /// Chunk staging buffer for the chunked compressor (one slab copied out
  /// of the full array per call), selected by sample type.
  template <typename T>
  [[nodiscard]] std::vector<T>& slab();

  /// Nested context for the recursive periodic-template compression
  /// (created on first use, then reused).
  [[nodiscard]] CodecContext& child() {
    if (!child_) child_ = std::make_unique<CodecContext>();
    // The nested call must honour the same budgets and token.
    child_->limits = limits;
    child_->cancel = cancel;
    return *child_;
  }

  /// Ensures `freq` holds at least `n` censuses and empties the first `n`
  /// over the symbol alphabet [0, alphabet).
  void reset_freq(std::size_t n, std::size_t alphabet) {
    if (freq.size() < n) freq.resize(n);
    for (std::size_t g = 0; g < n; ++g) freq[g].reset(alphabet);
  }

  /// Ensures `trees` holds at least `n` codecs (existing codecs keep their
  /// internal storage for in-place rebuilds).
  void reserve_trees(std::size_t n) {
    if (trees.size() < n) trees.resize(n);
  }

  /// Same for the tANS codecs.
  void reserve_tans(std::size_t n) {
    if (tans.size() < n) tans.resize(n);
  }

 private:
  std::vector<float> work_f32_;
  std::vector<double> work_f64_;
  std::vector<float> outliers_f32_;
  std::vector<double> outliers_f64_;
  std::vector<float> tmpl_f32_;
  std::vector<double> tmpl_f64_;
  std::vector<float> slab_f32_;
  std::vector<double> slab_f64_;
  std::unique_ptr<CodecContext> child_;
};

template <>
[[nodiscard]] inline std::vector<float>& CodecContext::work<float>() {
  return work_f32_;
}
template <>
[[nodiscard]] inline std::vector<double>& CodecContext::work<double>() {
  return work_f64_;
}
template <>
[[nodiscard]] inline std::vector<float>& CodecContext::outliers<float>() {
  return outliers_f32_;
}
template <>
[[nodiscard]] inline std::vector<double>& CodecContext::outliers<double>() {
  return outliers_f64_;
}
template <>
[[nodiscard]] inline std::vector<float>& CodecContext::tmpl_work<float>() {
  return tmpl_f32_;
}
template <>
[[nodiscard]] inline std::vector<double>& CodecContext::tmpl_work<double>() {
  return tmpl_f64_;
}
template <>
[[nodiscard]] inline std::vector<float>& CodecContext::slab<float>() {
  return slab_f32_;
}
template <>
[[nodiscard]] inline std::vector<double>& CodecContext::slab<double>() {
  return slab_f64_;
}

}  // namespace cliz
