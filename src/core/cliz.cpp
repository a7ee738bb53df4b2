#include "src/core/cliz.hpp"

#include <bit>
#include <chrono>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <type_traits>

#include "src/common/cpu_features.hpp"
#include "src/core/bin_classify.hpp"
#include "src/core/codec_context.hpp"
#include "src/core/periodic.hpp"
#include "src/core/stage_backends.hpp"
#include "src/lossless/lossless.hpp"

namespace cliz {

namespace {

constexpr std::uint32_t kMagic = 0x434C495Au;  // "CLIZ"
/// Quantizer radius of every stream this encoder writes (codes span
/// [0, 2 * radius)). The header records it and the decoder accepts any
/// valid radius, so the format does not depend on this constant.
constexpr std::uint32_t kQuantRadius = 1u << 15;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Columns for bin classification: the trailing lat x lon plane (paper:
/// topography patterns live in the horizontal position, aggregated over
/// snapshots/heights). Classification needs >= 3 dims to have anything to
/// aggregate over.
std::size_t classification_plane(const Shape& shape) {
  if (shape.ndims() < 3) return 0;
  return shape.dim(shape.ndims() - 1) * shape.dim(shape.ndims() - 2);
}

/// Decode core, parameterized over how the destination buffer is obtained:
/// `bind_out(shape)` is called exactly once, after the header is parsed,
/// and must return a writable buffer of shape.size() elements. Returns the
/// decoded shape.
template <typename T, typename BindOut>
Shape decompress_core(std::span<const std::uint8_t> stream, CodecContext& ctx,
                      BindOut&& bind_out);

/// Output binder that resizes a caller-owned vector (capacity kept) — a
/// *fixed* functor type, so the recursive periodic-template decode inside
/// decompress_core instantiates decompress_core<T, VectorBind<T>&> rather
/// than a fresh lambda type per recursion level.
template <typename T>
struct VectorBind {
  std::vector<T>* buf;
  T* operator()(const Shape& shape) const {
    buf->resize(shape.size());
    return buf->data();
  }
};

template <typename T>
void compress_impl(const NdArray<T>& data, double abs_error_bound,
                   const MaskMap* mask, const PipelineConfig& config,
                   const ClizOptions& options, CodecContext& ctx,
                   std::vector<std::uint8_t>& out);

// ---------------------------------------------------------------------------
// Compression stages. Each stage reads/writes buffers owned by the
// CodecContext, appends its portion of the pre-lossless stream to `out`
// (ctx.raw_stream), and records wall time plus byte counts in ctx.stats.
// Stream layout is unchanged from the monolithic implementation — stage
// boundaries fall exactly on the original write order.
// ---------------------------------------------------------------------------

/// Fixed stream header: magic, sample type, shape, bound, quantizer radius,
/// fill value, pipeline config, and the optional validity mask.
template <typename T>
void write_header(const NdArray<T>& data, double abs_error_bound,
                  const MaskMap* mask, const PipelineConfig& config,
                  const ClizOptions& options, ByteWriter& out) {
  const Shape& shape = data.shape();
  out.put(kMagic);
  out.put_u8(static_cast<std::uint8_t>(sizeof(T)));  // 4 = f32, 8 = f64
  out.put_varint(shape.ndims());
  for (const std::size_t d : shape.dims()) out.put_varint(d);
  out.put(abs_error_bound);
  out.put_varint(kQuantRadius);
  out.put(static_cast<T>(options.fill_value));
  config.serialize(out);
  // Predictor byte: (backend id << 1) | has_mask. The interpolation id is
  // 0, so default streams keep the historical 0/1 mask-flag values
  // byte-for-byte (same trick as the entropy byte in stage_classify).
  out.put_u8(static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(options.predictor) << 1) |
      (mask != nullptr ? 1u : 0u)));
  if (mask != nullptr) mask->serialize(out);
}

/// Stage 1 (kPeriodic): extract the periodic component. The template is
/// compressed recursively (at half the bound, through ctx.child()), its
/// reconstruction subtracted from `work` (a copy of `data` on entry), and
/// the residual bound tightened by the float-rounding slack of the
/// add-back. Returns the residual quantizer bound.
template <typename T>
double stage_periodic(const NdArray<T>& data, NdArray<T>& work,
                      double abs_error_bound, const MaskMap* mask,
                      const PipelineConfig& config, const ClizOptions& options,
                      CodecContext& ctx, ByteWriter& out) {
  const auto t0 = Clock::now();
  auto& st = ctx.stats.at(CodecStage::kPeriodic);
  st.input_bytes = work.size() * sizeof(T);

  const auto tmpl =
      periodic_template(data, config.time_dim, config.period, mask);
  PipelineConfig tconfig = config;
  tconfig.period = 0;
  tconfig.classify_bins = false;
  if (mask != nullptr) {
    const MaskMap tmask =
        periodic_template_mask(*mask, config.time_dim, config.period);
    compress_impl<T>(tmpl, abs_error_bound / 2.0, &tmask, tconfig, options,
                     ctx.child(), ctx.template_stream);
  } else {
    compress_impl<T>(tmpl, abs_error_bound / 2.0, nullptr, tconfig, options,
                     ctx.child(), ctx.template_stream);
  }
  out.put_block(ctx.template_stream);
  // Code the residual against the *reconstructed* template so the
  // template's own error does not eat into the budget. The nested encode
  // leaves that reconstruction in the child's work buffer: prediction
  // rewrites every valid template point to exactly what the decoder
  // rebuilds, and every valid data point maps to a valid template point.
  subtract_template(work.data(), work.shape(), ctx.child().work<T>().data(),
                    tmpl.shape(), config.time_dim, mask);

  const std::uint8_t* valid = mask != nullptr ? mask->data() : nullptr;
  double max_abs = 0.0;
  double max_res = 0.0;
  for (std::size_t i = 0; i < work.size(); ++i) {
    if (valid != nullptr && valid[i] == 0) continue;
    max_abs = std::max(max_abs, std::abs(static_cast<double>(data[i])));
    max_res = std::max(max_res, std::abs(static_cast<double>(work[i])));
  }
  // The decoder computes data = template + residual in the sample type, so
  // two roundings at that precision ride on top of the quantizer's
  // guarantee; shave that slack off the residual bound to keep the
  // end-to-end promise exact.
  const double slack =
      4.0 * static_cast<double>(std::numeric_limits<T>::epsilon()) *
      (max_abs + max_res);

  st.output_bytes = ctx.template_stream.size();
  st.seconds = seconds_since(t0);
  return std::max(abs_error_bound / 2.0, abs_error_bound - slack);
}

/// Stage 2 (kPredict): mask-aware prediction + linear-scale quantization
/// through the predictor backend named by options.predictor (interpolation
/// over the permuted/fused logical axes by default). The backend fills
/// ctx.codes, ctx.outliers<T>(), ctx.offsets (the interpolation backend
/// only when classification reads them) and writes its side block
/// (pass-fit table, regression coefficients, ...); the stage frames the
/// shared tail: outlier side stream and code count.
template <typename T>
void stage_predict(NdArray<T>& work, double quant_eb, const MaskMap* mask,
                   const PipelineConfig& config, const ClizOptions& options,
                   CodecContext& ctx, ByteWriter& out) {
  const auto t0 = Clock::now();
  auto& st = ctx.stats.at(CodecStage::kPredict);
  st.input_bytes = work.size() * sizeof(T);
  const std::size_t base = out.size();

  const LinearQuantizer<T> quantizer(quant_eb, kQuantRadius);
  auto& offsets = ctx.offsets;
  auto& codes = ctx.codes;
  auto& outliers = ctx.outliers<T>();
  offsets.clear();
  offsets.reserve(work.size());
  codes.clear();
  codes.reserve(work.size());
  outliers.clear();
  const std::uint8_t* validity = mask != nullptr ? mask->data() : nullptr;
  predictor_encode(options.predictor, work.data(), work.shape(), config,
                   quantizer, validity, ctx, out);
  out.put_varint(outliers.size());
  for (const T v : outliers) out.put(v);
  out.put_varint(codes.size());

  ctx.stats.predictor_backend = static_cast<std::uint8_t>(options.predictor);
  ctx.stats.code_count = codes.size();
  ctx.stats.outlier_count = outliers.size();
  st.output_bytes =
      codes.size() * sizeof(std::uint32_t) + (out.size() - base);
  st.seconds = seconds_since(t0);
}

/// Stage 3 (kClassify): quantization-bin classification. In classified mode
/// builds the per-column shift/group tables, serializes them, and produces
/// the shifted symbol stream plus the per-group census; otherwise the
/// census of the raw codes lands in ctx.freq[0]. Either way the census
/// yields the symbol-stream entropy recorded in ctx.stats.
///
/// The stage opens with the entropy byte — (backend id << 1) | classified
/// — whose id drives the decoder's backend dispatch. The Huffman id is 0,
/// so default streams keep the historical 0/1 values byte-for-byte; bit 7
/// (the framed container) is read but never written. Returns the byte's
/// stream offset so stage_encode can patch the id if the requested
/// backend turns out to be infeasible for this census.
std::size_t stage_classify(const Shape& shape, const PipelineConfig& config,
                           const ClizOptions& options, CodecContext& ctx,
                           ByteWriter& out,
                           std::optional<BinClassification>& classification) {
  const auto t0 = Clock::now();
  auto& st = ctx.stats.at(CodecStage::kClassify);
  st.input_bytes = ctx.codes.size() * sizeof(std::uint32_t);
  const std::size_t base = out.size();

  const std::size_t plane = classification_plane(shape);
  const bool classify = config.classify_bins && plane > 0;
  out.put_u8(static_cast<std::uint8_t>(
      (static_cast<std::uint8_t>(options.entropy) << 1) |
      (classify ? 1u : 0u)));
  std::size_t n_groups = 1;

  if (classify) {
    classification.emplace(BinClassification::build(
        ctx.offsets, ctx.codes, plane, kQuantRadius, options.classify));
    classification->serialize(out);
    n_groups = options.classify.group_types();

    // Shift codes per column and split the census by group.
    const std::uint32_t escape =
        entropy_escape_symbol(kQuantRadius, options.classify.j);
    ctx.reset_freq(n_groups, std::size_t{escape} + 1);
    auto& shifted = ctx.shifted;
    auto& group = ctx.group;
    shifted.resize(ctx.codes.size());
    group.resize(ctx.codes.size());
    for (std::size_t i = 0; i < ctx.codes.size(); ++i) {
      const std::size_t col = ctx.offsets[i] % plane;
      const int shift = classification->shift_of(col);
      // Bias by +j so the shifted symbol stays positive for any shift.
      const std::uint32_t sym =
          ctx.codes[i] == 0
              ? escape
              : static_cast<std::uint32_t>(
                    static_cast<std::int64_t>(ctx.codes[i]) - shift +
                    static_cast<std::int64_t>(options.classify.j));
      shifted[i] = sym;
      group[i] = static_cast<std::uint8_t>(classification->group_of(col));
      ctx.freq[group[i]].add(sym);
    }
  } else {
    ctx.reset_freq(1, 2 * std::size_t{kQuantRadius});
    for (const std::uint32_t c : ctx.codes) ctx.freq[0].add(c);
  }

  // Per-group-weighted Shannon entropy of the stream the entropy coder will
  // see: sum_g (n_g/n) * H_g, the lower bound for the multi-Huffman stage.
  double entropy_num = 0.0;
  for (std::size_t g = 0; g < n_groups; ++g) {
    const auto census = ctx.freq[g].counts();
    std::uint64_t n_g = 0;
    for (const auto& [sym, f] : census) n_g += f;
    for (const auto& [sym, f] : census) {
      entropy_num += static_cast<double>(f) *
                     std::log2(static_cast<double>(n_g) /
                               static_cast<double>(f));
    }
  }
  ctx.stats.code_entropy_bits =
      ctx.codes.empty() ? 0.0
                        : entropy_num / static_cast<double>(ctx.codes.size());

  st.output_bytes =
      ctx.codes.size() * sizeof(std::uint32_t) + (out.size() - base);
  st.seconds = seconds_since(t0);
  return base;
}

/// Stage 4 (kEncode): entropy coding of the symbol stream through the
/// entropy backend (multi-Huffman by default, tANS on request). Tables are
/// rebuilt in place from the stage-3 censuses (one per group, or the single
/// table in unclassified mode), serialized, and the symbol stream is
/// bit-packed. When the requested backend cannot represent the census (tANS
/// with an alphabet past 2^15 symbols) the stage falls back to Huffman and
/// patches the entropy byte stage_classify wrote at `entropy_byte_pos`.
void stage_encode(const ClizOptions& options,
                  const std::optional<BinClassification>& classification,
                  std::size_t entropy_byte_pos, CodecContext& ctx,
                  ByteWriter& out) {
  const auto t0 = Clock::now();
  auto& st = ctx.stats.at(CodecStage::kEncode);
  st.input_bytes = ctx.codes.size() * sizeof(std::uint32_t);
  const std::size_t base = out.size();

  const bool classified = classification.has_value();
  const std::size_t n_groups =
      classified ? options.classify.group_types() : 1;
  EntropyBackend backend = options.entropy;
  if (!entropy_encodable(backend, ctx, n_groups)) {
    backend = EntropyBackend::kHuffman;
    out.overwrite_u8(entropy_byte_pos,
                     static_cast<std::uint8_t>(
                         (static_cast<std::uint8_t>(backend) << 1) |
                         (classified ? 1u : 0u)));
    ctx.stats.entropy_downgraded = true;
  }
  entropy_encode(backend, classified, n_groups, ctx, out);
  ctx.stats.entropy_backend = static_cast<std::uint8_t>(backend);

  st.output_bytes = out.size() - base;
  st.seconds = seconds_since(t0);
}

/// Stage 5 (kLossless): byte-stream backend over the assembled stream.
void stage_lossless(CodecContext& ctx, std::vector<std::uint8_t>& out) {
  const auto t0 = Clock::now();
  auto& st = ctx.stats.at(CodecStage::kLossless);
  st.input_bytes = ctx.raw_stream.size();
  lossless_compress_into(ctx.raw_stream.bytes(), ctx.lossless, out);
  st.output_bytes = out.size();
  st.seconds = seconds_since(t0);
}

template <typename T>
void compress_impl(const NdArray<T>& data, double abs_error_bound,
                   const MaskMap* mask, const PipelineConfig& config,
                   const ClizOptions& options, CodecContext& ctx,
                   std::vector<std::uint8_t>& out) {
  const auto t_all = Clock::now();
  ctx.stats.reset();
  ctx.stats.threads_used = hardware_threads();
  ctx.stats.simd_tier = static_cast<std::uint8_t>(active_simd_tier());
  // The options are the governor's source of truth on the encode side; the
  // decode side reads the same fields straight off the context (its entry
  // points have no options), so both paths converge on ctx.
  ctx.limits = options.limits;
  ctx.cancel = options.cancel;
  if (ctx.cancel != nullptr) ctx.cancel->check();
  // An infinite bound leaves the quantizer no usable bin width; refuse it
  // like a non-positive one.
  CLIZ_REQUIRE_CODE(std::isfinite(abs_error_bound) && abs_error_bound > 0,
                    kBadArgument, "error bound must be positive and finite");
  const Shape& shape = data.shape();
  CLIZ_REQUIRE_CODE(config.permutation.size() == shape.ndims(), kBadArgument,
                    "pipeline arity does not match data");
  if (mask != nullptr) {
    CLIZ_REQUIRE_CODE(mask->shape() == shape, kBadArgument,
                      "mask shape does not match data");
  }

  ByteWriter& raw = ctx.raw_stream;
  raw.clear();
  write_header(data, abs_error_bound, mask, config, options, raw);

  // Work copy (mutated to the reconstruction during prediction), drawn from
  // the context so steady-state reuse does not reallocate it.
  auto& wbuf = ctx.work<T>();
  wbuf.assign(data.flat().begin(), data.flat().end());
  NdArray<T> work(shape, std::move(wbuf));

  const bool periodic =
      config.period >= 2 && config.time_dim < shape.ndims() &&
      config.period < shape.dim(config.time_dim);
  double quant_eb = abs_error_bound;
  if (periodic) {
    quant_eb = stage_periodic(data, work, abs_error_bound, mask, config,
                              options, ctx, raw);
  }
  raw.put(quant_eb);

  stage_predict(work, quant_eb, mask, config, options, ctx, raw);
  if (ctx.cancel != nullptr) ctx.cancel->check();
  std::optional<BinClassification> classification;
  const std::size_t entropy_byte_pos =
      stage_classify(shape, config, options, ctx, raw, classification);
  stage_encode(options, classification, entropy_byte_pos, ctx, raw);
  if (ctx.cancel != nullptr) ctx.cancel->check();
  stage_lossless(ctx, out);

  // Return the work buffer to the context for the next run.
  ctx.work<T>() = std::move(work).take_flat();
  ctx.stats.total_seconds = seconds_since(t_all);
}

// ---------------------------------------------------------------------------
// Decompression. The inverse stages run bottom-up; entropy decoding is
// interleaved with prediction (the predictor pulls each batch of codes
// through entropy_fetch, serial or framed), so kPredict's time covers both
// and kEncode's covers parsing the classification block, coding tables and
// framing only.
// ---------------------------------------------------------------------------

template <typename T, typename BindOut>
Shape decompress_core(std::span<const std::uint8_t> stream, CodecContext& ctx,
                      BindOut&& bind_out) {
  const auto t_all = Clock::now();
  ctx.stats.reset();
  ctx.stats.threads_used = hardware_threads();
  ctx.stats.simd_tier = static_cast<std::uint8_t>(active_simd_tier());
  if (ctx.cancel != nullptr) ctx.cancel->check();
  {
    const auto t0 = Clock::now();
    auto& st = ctx.stats.at(CodecStage::kLossless);
    st.input_bytes = stream.size();
    lossless_decompress_into(stream, ctx.lossless, ctx.raw, ctx.limits);
    st.output_bytes = ctx.raw.size();
    st.seconds = seconds_since(t0);
  }
  ByteReader in(ctx.raw);
  CLIZ_REQUIRE(in.get<std::uint32_t>() == kMagic, "not a CliZ stream");
  CLIZ_REQUIRE(in.get_u8() == sizeof(T),
               "stream sample type does not match the decompress variant");
  const std::size_t ndims = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(ndims >= 1 && ndims <= kMaxAxes, "corrupt dimensionality");
  DimVec dims(ndims);
  for (auto& d : dims) d = static_cast<std::size_t>(in.get_varint());
  // Governor: the declared extents bound every allocation downstream (the
  // output buffer, the work copy, the mask), so reject a hostile header
  // here — before Shape's own validation and before any of them are sized.
  {
    std::uint64_t declared = 1;
    bool within = true;
    for (const std::size_t d : dims) {
      within = within &&
               detail::checked_mul_within(declared, d, ctx.limits.max_extents);
      if (!within) break;
    }
    CLIZ_REQUIRE_CODE(within, kLimitExceeded,
                      "declared extents exceed ResourceLimits::max_extents "
                      "(header offset " +
                          std::to_string(in.pos()) + ")");
    CLIZ_REQUIRE_CODE(
        declared <= ctx.limits.max_output_bytes / sizeof(T), kLimitExceeded,
        "declared output size exceeds ResourceLimits::max_output_bytes "
        "(header offset " +
            std::to_string(in.pos()) + ")");
  }
  const Shape shape(std::move(dims));
  const auto eb = in.get<double>();
  CLIZ_REQUIRE(eb > 0, "corrupt error bound");
  // Validate before any arithmetic: a corrupt radius would overflow the
  // code/escape-symbol math downstream.
  const std::uint64_t radius64 = in.get_varint();
  CLIZ_REQUIRE(radius64 >= 2 && radius64 <= LinearQuantizer<T>::kMaxRadius,
               "corrupt quantizer radius");
  const auto radius = static_cast<std::uint32_t>(radius64);
  const auto fill_value = in.get<T>();
  PipelineConfig::deserialize_into(in, ctx.header_config);
  const PipelineConfig& config = ctx.header_config;
  CLIZ_REQUIRE(config.permutation.size() == ndims, "pipeline arity mismatch");

  // Predictor byte: (backend id << 1) | has_mask. Dispatch is driven purely
  // by the stored id; an id this build does not know (e.g. a stream from a
  // future version) is a clean error, never UB.
  const std::uint8_t predictor_byte = in.get_u8();
  const bool has_mask = (predictor_byte & 1u) != 0;
  const PredictorBackend predictor = predictor_backend_from_wire(
      static_cast<std::uint8_t>(predictor_byte >> 1));
  ctx.stats.predictor_backend = static_cast<std::uint8_t>(predictor);
  std::unique_ptr<MaskMap> mask;
  if (has_mask) {
    mask = std::make_unique<MaskMap>(MaskMap::deserialize(in));
    CLIZ_REQUIRE(mask->shape() == shape, "mask shape mismatch");
  }
  const std::uint8_t* validity = mask != nullptr ? mask->data() : nullptr;

  const bool periodic =
      config.period >= 2 && config.time_dim < ndims &&
      config.period < shape.dim(config.time_dim);
  Shape tmpl_shape;
  auto& tmpl_recon = ctx.tmpl_work<T>();
  if (periodic) {
    const auto t0 = Clock::now();
    // The nested stream decodes through the child context into this
    // context's template scratch; ctx.header_config is re-read below via
    // `config` only, which the child call never touches.
    tmpl_shape = decompress_core<T>(in.get_block(), ctx.child(),
                                    VectorBind<T>{&tmpl_recon});
    ctx.stats.at(CodecStage::kPeriodic).seconds += seconds_since(t0);
  }
  const auto quant_eb = in.get<double>();
  CLIZ_REQUIRE(quant_eb > 0 && quant_eb <= eb, "corrupt residual bound");

  // The predictor backend's side block (kPredict's encode-side framing):
  // the interp pass-fit table, regression block side + coefficients, ...
  predictor_parse(predictor, in, shape, config, validity, ctx);

  const std::size_t n_outliers = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(n_outliers <= shape.size(), "corrupt outlier count");
  auto& outliers = ctx.outliers<T>();
  outliers.resize(n_outliers);
  for (auto& v : outliers) v = in.get<T>();
  const std::size_t n_codes = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(n_codes <= shape.size(), "corrupt code count");
  // Entropy byte: (backend id << 1) | classified, bit 7 = per-pass framed
  // container. Dispatch is driven purely by the stored id; an id this build
  // does not know (e.g. a stream from a future version) is a clean error,
  // never UB.
  const std::uint8_t entropy_byte = in.get_u8();
  const bool classify = (entropy_byte & 1u) != 0;
  EntropyDecodeState entropy_state;
  entropy_state.ctx = &ctx;
  entropy_state.backend = entropy_backend_from_wire(
      static_cast<std::uint8_t>((entropy_byte >> 1) & 0x3Fu));
  entropy_state.framed = (entropy_byte & 0x80u) != 0;
  ctx.stats.entropy_backend = static_cast<std::uint8_t>(entropy_state.backend);
  ctx.stats.frame_passes = entropy_state.framed;
  ctx.stats.code_count = n_codes;
  ctx.stats.outlier_count = n_outliers;

  const LinearQuantizer<T> quantizer(quant_eb, radius);

  // Everything the destination depends on is now validated; hand the shape
  // to the caller and decode straight into whatever buffer it supplies.
  T* const out = bind_out(shape);
  std::size_t cursor = 0;
  std::size_t decoded = 0;

  // Symbol source for the quantization codes, classified or plain. The
  // classification block is backend-independent; the coding tables behind
  // it are parsed by the backend named in the entropy byte (kEncode's
  // inverse), into the context's codec pools.
  const auto t_tables = Clock::now();
  std::optional<BinClassification> classification;
  std::size_t n_trees = 1;
  if (classify) {
    const std::size_t plane = classification_plane(shape);
    CLIZ_REQUIRE(plane > 0, "classified stream with < 3 dims");
    // The predictors build target offsets for classified streams only.
    CLIZ_REQUIRE(config.classify_bins,
                 "classified codes on an unclassified pipeline");
    classification = BinClassification::deserialize(in);
    CLIZ_REQUIRE(classification->plane_size() == plane,
                 "classification plane mismatch");
    n_trees = classification->params().group_types();
    entropy_state.classification = &*classification;
    entropy_state.plane = plane;
    entropy_state.escape =
        entropy_escape_symbol(radius, classification->params().j);
  }
  entropy_parse(in, n_trees, n_codes, entropy_state);
  ctx.stats.at(CodecStage::kEncode).seconds = seconds_since(t_tables);
  // Batched symbol source for the quantization codes: the line-parallel
  // decoder hands over a whole pass of target offsets at once, and
  // entropy_fetch drains the serial bitstream or fans the fetch's framed
  // segments out to parallel workers.
  auto fetch_impl = [&](const std::uint64_t* offs, std::uint32_t* dst,
                        std::size_t n) {
    // Cancellation checkpoint at fetch (= pass/line-batch) granularity, so
    // even the serial entropy path aborts within one decode batch.
    if (ctx.cancel != nullptr) ctx.cancel->check();
    decoded += n;
    entropy_fetch(entropy_state, offs, dst, n);
  };
  const PredictorFetch fetch{
      &fetch_impl,
      [](void* self, const std::uint64_t* offs, std::uint32_t* dst,
         std::size_t n) {
        (*static_cast<decltype(fetch_impl)*>(self))(offs, dst, n);
      }};

  const auto t_decode = Clock::now();
  predictor_decode(predictor, out, shape, config, quantizer,
                   std::span<const T>(outliers), cursor, validity, ctx, fetch);
  CLIZ_REQUIRE(decoded == n_codes, "code count mismatch after decode");
  {
    auto& st = ctx.stats.at(CodecStage::kPredict);
    st.seconds = seconds_since(t_decode);
    st.input_bytes = n_codes * sizeof(std::uint32_t);
    st.output_bytes = shape.size() * sizeof(T);
  }

  if (periodic) {
    const auto t0 = Clock::now();
    add_template(out, shape, tmpl_recon.data(), tmpl_shape, config.time_dim,
                 mask.get());
    ctx.stats.at(CodecStage::kPeriodic).seconds += seconds_since(t0);
  }
  if (mask != nullptr) {
    for (std::size_t i = 0; i < shape.size(); ++i) {
      if (!mask->valid(i)) out[i] = fill_value;
    }
  }
  ctx.stats.total_seconds = seconds_since(t_all);
  return shape;
}

/// Entry-point wrapper implementing ClizOptions::verify_encode: compresses,
/// decodes the candidate stream back, and checks the bound point by point.
/// A failed attempt (verifier rejection or a throwing stage) is retried
/// once with the conservative pipeline; a stream only leaves this function
/// confirmed. Internal recursive calls (the periodic template) go straight
/// to compress_impl and are covered by the outer verification decode.
template <typename T>
void compress_checked(const NdArray<T>& data, double abs_error_bound,
                      const MaskMap* mask, const PipelineConfig& config,
                      const ClizOptions& options, CodecContext& ctx,
                      std::vector<std::uint8_t>& out) {
  if (!options.verify_encode) {
    compress_impl(data, abs_error_bound, mask, config, options, ctx, out);
    return;
  }

  double verify_seconds = 0.0;
  using Bits =
      std::conditional_t<sizeof(T) == 4, std::uint32_t, std::uint64_t>;
  const auto bound_holds = [&]() -> bool {
    const auto t0 = Clock::now();
    // The decode path never touches a context's `work` buffer, so the
    // child's serves as reconstruction scratch without disturbing the
    // decode state below it.
    auto& recon = ctx.child().work<T>();
    const Shape shape =
        decompress_core<T>(out, ctx.child(), VectorBind<T>{&recon});
    bool ok = shape == data.shape();
    const auto flat = data.flat();
    for (std::size_t i = 0; ok && i < flat.size(); ++i) {
      if (mask != nullptr && !mask->valid(i)) continue;
      // |x - x̂| is NaN for a NaN or ±Inf input, so those points must come
      // back bit for bit instead.
      if (!std::isfinite(flat[i])) {
        ok = std::bit_cast<Bits>(recon[i]) == std::bit_cast<Bits>(flat[i]);
        continue;
      }
      const double err = std::abs(static_cast<double>(recon[i]) -
                                  static_cast<double>(flat[i]));
      ok = err <= abs_error_bound;
    }
    verify_seconds += seconds_since(t0);
    return ok;
  };

  bool first_ok = false;
  try {
    compress_impl(data, abs_error_bound, mask, config, options, ctx, out);
    first_ok = bound_holds();
  } catch (const Error&) {
    first_ok = false;
  }
  if (!first_ok) {
    PipelineConfig safe = config;
    safe.period = 0;
    safe.classify_bins = false;
    compress_impl(data, abs_error_bound, mask, safe, options, ctx, out);
    CLIZ_REQUIRE(bound_holds(),
                 "verified encode failed even with the degraded pipeline");
  }
  ctx.stats.verified = true;
  ctx.stats.verify_downgrades = first_ok ? 0 : 1;
  ctx.stats.verify_seconds = verify_seconds;
}

/// Output binder for the returning decompress variants: rebinds the
/// destination NdArray to the decoded shape in place (capacity kept).
template <typename T>
struct ReshapeBind {
  NdArray<T>* out;
  T* operator()(const Shape& shape) const {
    out->reshape(shape);
    return out->data();
  }
};

/// Output binder for decompress_into(NdArray&): the caller's array must
/// already carry the stream's shape — no silent reallocation.
template <typename T>
struct MatchShapeBind {
  NdArray<T>* out;
  T* operator()(const Shape& shape) const {
    CLIZ_REQUIRE(out->shape() == shape,
                 "output buffer shape does not match stream");
    return out->data();
  }
};

/// Output binder for decompress_into(span): the flat element count must
/// match the stream exactly (a larger buffer is almost always a caller
/// bug, so it is rejected rather than partially filled).
template <typename T>
struct SpanBind {
  std::span<T> out;
  T* operator()(const Shape& shape) const {
    CLIZ_REQUIRE(out.size() == shape.size(),
                 "output span size does not match stream");
    return out.data();
  }
};

}  // namespace

template <Sample T>
std::vector<std::uint8_t> ClizCompressor::compress(
    const NdArray<T>& data, double abs_error_bound,
    const MaskMap* mask) const {
  CodecContext ctx;
  std::vector<std::uint8_t> out;
  compress_checked(data, abs_error_bound, mask, config_, options_, ctx, out);
  return out;
}

template <Sample T>
std::vector<std::uint8_t> ClizCompressor::compress(const NdArray<T>& data,
                                                   double abs_error_bound,
                                                   const MaskMap* mask,
                                                   CodecContext& ctx) const {
  std::vector<std::uint8_t> out;
  compress_checked(data, abs_error_bound, mask, config_, options_, ctx, out);
  return out;
}

template <Sample T>
void ClizCompressor::compress_into(const NdArray<T>& data,
                                   double abs_error_bound,
                                   const MaskMap* mask, CodecContext& ctx,
                                   std::vector<std::uint8_t>& out) const {
  compress_checked(data, abs_error_bound, mask, config_, options_, ctx, out);
}

template <Sample T>
NdArray<T> ClizCompressor::decompress(std::span<const std::uint8_t> stream) {
  CodecContext ctx;
  return decompress<T>(stream, ctx);
}

template <Sample T>
NdArray<T> ClizCompressor::decompress(std::span<const std::uint8_t> stream,
                                      CodecContext& ctx) {
  NdArray<T> out;
  decompress_core<T>(stream, ctx, ReshapeBind<T>{&out});
  return out;
}

template <Sample T>
void ClizCompressor::decompress_into(std::span<const std::uint8_t> stream,
                                     NdArray<T>& out) {
  CodecContext ctx;
  decompress_core<T>(stream, ctx, MatchShapeBind<T>{&out});
}

template <Sample T>
void ClizCompressor::decompress_into(std::span<const std::uint8_t> stream,
                                     CodecContext& ctx, NdArray<T>& out) {
  decompress_core<T>(stream, ctx, MatchShapeBind<T>{&out});
}

template <Sample T>
Shape ClizCompressor::decompress_into(std::span<const std::uint8_t> stream,
                                      CodecContext& ctx, std::span<T> out) {
  return decompress_core<T>(stream, ctx, SpanBind<T>{out});
}

#define CLIZ_INSTANTIATE(T)                                                  \
  template std::vector<std::uint8_t> ClizCompressor::compress<T>(            \
      const NdArray<T>&, double, const MaskMap*) const;                      \
  template std::vector<std::uint8_t> ClizCompressor::compress<T>(            \
      const NdArray<T>&, double, const MaskMap*, CodecContext&) const;       \
  template void ClizCompressor::compress_into<T>(                            \
      const NdArray<T>&, double, const MaskMap*, CodecContext&,              \
      std::vector<std::uint8_t>&) const;                                     \
  template NdArray<T> ClizCompressor::decompress<T>(                         \
      std::span<const std::uint8_t>);                                        \
  template NdArray<T> ClizCompressor::decompress<T>(                         \
      std::span<const std::uint8_t>, CodecContext&);                         \
  template void ClizCompressor::decompress_into<T>(                          \
      std::span<const std::uint8_t>, NdArray<T>&);                           \
  template void ClizCompressor::decompress_into<T>(                          \
      std::span<const std::uint8_t>, CodecContext&, NdArray<T>&);            \
  template Shape ClizCompressor::decompress_into<T>(                         \
      std::span<const std::uint8_t>, CodecContext&, std::span<T>);
CLIZ_INSTANTIATE(float)
CLIZ_INSTANTIATE(double)
#undef CLIZ_INSTANTIATE

unsigned detect_sample_bytes(std::span<const std::uint8_t> stream,
                             const ResourceLimits& limits) {
  const auto raw = lossless_decompress(stream, limits);
  ByteReader r(raw);
  CLIZ_REQUIRE(r.get<std::uint32_t>() == kMagic, "not a CliZ stream");
  const unsigned width = r.get_u8();
  CLIZ_REQUIRE(width == 4 || width == 8, "corrupt sample width");
  return width;
}

}  // namespace cliz
