#include "src/core/stage_backends.hpp"

#include <algorithm>
#include <iterator>
#include <span>
#include <unordered_map>

#include "src/common/status.hpp"
#include "src/core/codec_context.hpp"
#include "src/entropy/tans.hpp"
#include "src/predictor/interp_engine.hpp"
#include "src/predictor/lorenzo_nd.hpp"
#include "src/predictor/regression.hpp"

namespace cliz {

namespace {

std::size_t census_alphabet(
    const std::unordered_map<std::uint32_t, std::uint64_t>& freq) {
  std::size_t n = 0;
  for (const auto& [sym, f] : freq) {
    if (f != 0) ++n;  // zeroed nodes kept alive by reset_freq
  }
  return n;
}

// --- Huffman (id 0) --------------------------------------------------------
// Byte-identical to the pre-registry direct calls: same table order, same
// per-symbol encode calls, same block framing. The serial hooks are built
// from the segment-restartable pieces — a Huffman payload is byte-aligned
// and stateless between symbols, so a "segment" is just a symbol range.

bool huffman_encodable(const CodecContext&, std::size_t) { return true; }

void huffman_encode_tables(std::size_t n_groups, CodecContext& ctx,
                           ByteWriter& out) {
  ctx.reserve_trees(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    ctx.trees[g].rebuild_from_frequencies(ctx.freq[g]);
    ctx.tree_bytes.clear();
    ctx.trees[g].serialize(ctx.tree_bytes);
    out.put_block(ctx.tree_bytes.bytes());
  }
}

void huffman_encode_segment(bool classified, std::size_t lo, std::size_t hi,
                            CodecContext& ctx) {
  if (classified) {
    for (std::size_t i = lo; i < hi; ++i) {
      ctx.trees[ctx.group[i]].encode(
          std::span<const std::uint32_t>(&ctx.shifted[i], 1), ctx.bits);
    }
  } else {
    ctx.trees[0].encode(
        std::span<const std::uint32_t>(ctx.codes.data() + lo, hi - lo),
        ctx.bits);
  }
}

void huffman_encode(bool classified, std::size_t n_groups, CodecContext& ctx,
                    ByteWriter& out) {
  huffman_encode_tables(n_groups, ctx, out);
  ctx.bits.reset();
  huffman_encode_segment(
      classified, 0, classified ? ctx.shifted.size() : ctx.codes.size(), ctx);
  out.put_block(ctx.bits.finish_view());
}

void huffman_parse_tables(ByteReader& in, std::size_t n_tables,
                          EntropyDecodeState& state) {
  CodecContext& ctx = *state.ctx;
  ctx.reserve_trees(n_tables);
  for (std::size_t g = 0; g < n_tables; ++g) {
    ByteReader table_reader(in.get_block());
    ctx.trees[g].parse(table_reader);
  }
}

void huffman_parse(ByteReader& in, std::size_t n_tables,
                   EntropyDecodeState& state) {
  huffman_parse_tables(in, n_tables, state);
  state.bits.emplace(in.get_block());
}

void huffman_decode_segment(const EntropyDecodeState& state,
                            std::span<const std::uint8_t> payload,
                            const std::uint64_t* offs, std::uint32_t* dst,
                            std::size_t n) {
  const CodecContext& ctx = *state.ctx;
  BitReader bits(payload);
  if (state.classification == nullptr) {
    ctx.trees[0].decode_batch(bits, dst, n);
    return;
  }
  const BinClassification& cls = *state.classification;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t col =
        static_cast<std::size_t>(offs[i]) % state.plane;
    const HuffmanCodec& tree = ctx.trees[cls.group_of(col)];
    const std::uint32_t sym = tree.decode_one(bits);
    if (sym == state.escape) {
      dst[i] = 0;
      continue;
    }
    const int shift = cls.shift_of(col);
    dst[i] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(sym) + shift -
        static_cast<std::int64_t>(cls.params().j));
  }
}

void huffman_fetch(EntropyDecodeState& state, const std::uint64_t* offs,
                   std::uint32_t* dst, std::size_t n) {
  CodecContext& ctx = *state.ctx;
  if (state.classification == nullptr) {
    ctx.trees[0].decode_batch(*state.bits, dst, n);
    return;
  }
  const BinClassification& cls = *state.classification;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t col =
        static_cast<std::size_t>(offs[i]) % state.plane;
    const HuffmanCodec& tree = ctx.trees[cls.group_of(col)];
    const std::uint32_t sym = tree.decode_one(*state.bits);
    if (sym == state.escape) {
      dst[i] = 0;
      continue;
    }
    const int shift = cls.shift_of(col);
    dst[i] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(sym) + shift -
        static_cast<std::int64_t>(cls.params().j));
  }
}

// --- tANS (id 1) -----------------------------------------------------------
// Stream layout after the classification block:
//   u8 table_log                  (shared by every group's table)
//   n_tables x block              (normalized count tables)
//   block payload: [final encoder state: table_log bits][refill bits...]
// One interleaved state walks all groups (ANS is LIFO: encode runs in
// reverse, so the decoder reads the stream strictly forward).

bool tans_encodable(const CodecContext& ctx, std::size_t n_groups) {
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (census_alphabet(ctx.freq[g]) >
        (std::size_t{1} << TansCodec::kMaxTableLog)) {
      return false;
    }
  }
  return true;
}

void tans_encode_tables(std::size_t n_groups, CodecContext& ctx,
                        ByteWriter& out) {
  std::size_t max_alphabet = 0;
  for (std::size_t g = 0; g < n_groups; ++g) {
    max_alphabet = std::max(max_alphabet, census_alphabet(ctx.freq[g]));
  }
  const unsigned table_log = TansCodec::pick_table_log(max_alphabet);

  ctx.reserve_tans(n_groups);
  out.put_u8(static_cast<std::uint8_t>(table_log));
  for (std::size_t g = 0; g < n_groups; ++g) {
    const bool ok = ctx.tans[g].rebuild_from_frequencies(ctx.freq[g],
                                                         table_log);
    CLIZ_REQUIRE(ok, "tANS alphabet exceeds the table");
    ctx.tree_bytes.clear();
    ctx.tans[g].serialize(ctx.tree_bytes);
    out.put_block(ctx.tree_bytes.bytes());
  }
}

// One self-contained segment: [final state - L in table_log bits][refill
// bits], the serial payload layout restarted at `lo`. Encoding still runs
// in reverse, but only within the segment, so segments decode forward
// independently of each other.
void tans_encode_segment(bool classified, std::size_t lo, std::size_t hi,
                         CodecContext& ctx) {
  const unsigned table_log = ctx.tans[0].table_log();
  auto& stack = ctx.tans_stack;
  stack.clear();
  std::uint32_t state = 1u << table_log;
  if (classified) {
    for (std::size_t i = hi; i-- > lo;) {
      ctx.tans[ctx.group[i]].encode_symbol(ctx.shifted[i], state, stack);
    }
  } else {
    for (std::size_t i = hi; i-- > lo;) {
      ctx.tans[0].encode_symbol(ctx.codes[i], state, stack);
    }
  }
  ctx.bits.put_bits(state - (1u << table_log), static_cast<int>(table_log));
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    ctx.bits.put_bits(*it & 0xFFFFu, static_cast<int>(*it >> 16));
  }
}

void tans_encode(bool classified, std::size_t n_groups, CodecContext& ctx,
                 ByteWriter& out) {
  tans_encode_tables(n_groups, ctx, out);
  ctx.bits.reset();
  tans_encode_segment(
      classified, 0, classified ? ctx.shifted.size() : ctx.codes.size(), ctx);
  out.put_block(ctx.bits.finish_view());
}

void tans_parse_tables(ByteReader& in, std::size_t n_tables,
                       EntropyDecodeState& state) {
  CodecContext& ctx = *state.ctx;
  const unsigned table_log = in.get_u8();
  CLIZ_REQUIRE(table_log >= TansCodec::kMinTableLog &&
                   table_log <= TansCodec::kMaxTableLog,
               "corrupt tANS table log");
  ctx.reserve_tans(n_tables);
  for (std::size_t g = 0; g < n_tables; ++g) {
    ByteReader table_reader(in.get_block());
    ctx.tans[g].parse(table_reader, table_log);
  }
  state.table_log = table_log;
}

void tans_parse(ByteReader& in, std::size_t n_tables,
                EntropyDecodeState& state) {
  tans_parse_tables(in, n_tables, state);
  state.bits.emplace(in.get_block());
  state.tans_state =
      (1u << state.table_log) +
      static_cast<std::uint32_t>(state.bits->get_bits(
          static_cast<int>(state.table_log)));
}

void tans_decode_segment(const EntropyDecodeState& state,
                         std::span<const std::uint8_t> payload,
                         const std::uint64_t* offs, std::uint32_t* dst,
                         std::size_t n) {
  const CodecContext& ctx = *state.ctx;
  BitReader bits(payload);
  std::uint32_t walk =
      (1u << state.table_log) +
      static_cast<std::uint32_t>(
          bits.get_bits(static_cast<int>(state.table_log)));
  if (state.classification == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = ctx.tans[0].decode_symbol(walk, bits);
    }
    return;
  }
  const BinClassification& cls = *state.classification;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t col =
        static_cast<std::size_t>(offs[i]) % state.plane;
    const TansCodec& codec = ctx.tans[cls.group_of(col)];
    const std::uint32_t sym = codec.decode_symbol(walk, bits);
    if (sym == state.escape) {
      dst[i] = 0;
      continue;
    }
    const int shift = cls.shift_of(col);
    dst[i] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(sym) + shift -
        static_cast<std::int64_t>(cls.params().j));
  }
}

void tans_fetch(EntropyDecodeState& state, const std::uint64_t* offs,
                std::uint32_t* dst, std::size_t n) {
  CodecContext& ctx = *state.ctx;
  if (state.classification == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = ctx.tans[0].decode_symbol(state.tans_state, *state.bits);
    }
    return;
  }
  const BinClassification& cls = *state.classification;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t col =
        static_cast<std::size_t>(offs[i]) % state.plane;
    const TansCodec& codec = ctx.tans[cls.group_of(col)];
    const std::uint32_t sym =
        codec.decode_symbol(state.tans_state, *state.bits);
    if (sym == state.escape) {
      dst[i] = 0;
      continue;
    }
    const int shift = cls.shift_of(col);
    dst[i] = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(sym) + shift -
        static_cast<std::int64_t>(cls.params().j));
  }
}

// Dense by wire id: kOps[id] is the backend the entropy byte names.
const EntropyBackendOps kOps[] = {
    {EntropyBackend::kHuffman, "huffman", huffman_encodable, huffman_encode,
     huffman_parse, huffman_fetch, huffman_encode_tables,
     huffman_encode_segment, huffman_parse_tables, huffman_decode_segment},
    {EntropyBackend::kTans, "tans", tans_encodable, tans_encode, tans_parse,
     tans_fetch, tans_encode_tables, tans_encode_segment, tans_parse_tables,
     tans_decode_segment},
};

// --- framed container (entropy byte bit 7) ---------------------------------

/// Version byte of the framed container layout; anything else is a stream
/// from a future build and rejected cleanly.
constexpr std::uint8_t kFramingLayoutId = 1;

/// Target symbols per segment. Fetch intervals (interp passes, or the whole
/// stream for the raster predictors) are sub-split into
/// max(1, len / kFrameSegmentSyms) near-equal pieces — deterministic and
/// thread-count invariant, sized so table/offset overhead stays small while
/// big passes still fan out across workers.
constexpr std::size_t kFrameSegmentSyms = std::size_t{1} << 15;

// --- predictor backends ----------------------------------------------------

// --- interpolation (id 0) --------------------------------------------------
// The original engine behind the registry: byte-identical to the
// pre-registry direct calls — the side block is the pass-fit table in its
// historical position, written with the same varint + raw bytes framing.

template <typename T>
void interp_predict_encode(T* work, const Shape& shape,
                           const PipelineConfig& config,
                           const LinearQuantizer<T>& quantizer,
                           const std::uint8_t* validity, CodecContext& ctx,
                           ByteWriter& out) {
  fused_axes_into(shape, config.fusion, ctx.axes);
  induced_axis_order_into(config.fusion, config.permutation, ctx.axis_order);
  auto& pass_fits = ctx.pass_fits;  // 1 = cubic, one entry per pass
  pass_fits.clear();
  interp_encode_lines(work, ctx.axes, ctx.axis_order, config.dynamic_fitting,
                      config.fitting, quantizer, validity, ctx.offsets,
                      ctx.codes, ctx.outliers<T>(), pass_fits, ctx.interp,
                      &ctx.fetch_marks);
  out.put_varint(pass_fits.size());
  out.put_bytes(pass_fits);
}

void interp_predict_parse(ByteReader& in, const Shape& /*shape*/,
                          const PipelineConfig& config,
                          const std::uint8_t* /*validity*/,
                          CodecContext& ctx) {
  const std::size_t n_passes = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(n_passes <= 64 * kMaxAxes, "corrupt pass count");
  ctx.pred_pass_fits = in.get_bytes(n_passes);
  CLIZ_REQUIRE(config.dynamic_fitting || n_passes == 0,
               "pass-fit table on a static-fitting stream");
}

template <typename T>
void interp_predict_decode(T* out, const Shape& shape,
                           const PipelineConfig& config,
                           const LinearQuantizer<T>& quantizer,
                           std::span<const T> outliers, std::size_t& cursor,
                           const std::uint8_t* validity, CodecContext& ctx,
                           const PredictorFetch& fetch) {
  fused_axes_into(shape, config.fusion, ctx.axes);
  induced_axis_order_into(config.fusion, config.permutation, ctx.axis_order);
  interp_decode_lines(out, ctx.axes, ctx.axis_order, config.dynamic_fitting,
                      config.fitting, ctx.pred_pass_fits, quantizer, outliers,
                      cursor, validity, ctx.interp, fetch);
}

// --- Lorenzo (id 1) ---------------------------------------------------------
// No side block: the first-order stencil is derived from the shape. The
// pipeline's permutation/fusion axes do not apply — the raster scan is its
// own traversal.

template <typename T>
void lorenzo_predict_encode(T* work, const Shape& shape,
                            const PipelineConfig& /*config*/,
                            const LinearQuantizer<T>& quantizer,
                            const std::uint8_t* validity, CodecContext& ctx,
                            ByteWriter& /*out*/) {
  lorenzo_encode(work, shape, quantizer, validity, ctx.offsets, ctx.codes,
                 ctx.outliers<T>(), ctx.lorenzo_terms, ctx.cancel);
  // The decode side fetches the whole code stream in one batch.
  if (!ctx.codes.empty()) ctx.fetch_marks.push_back(ctx.codes.size());
}

void lorenzo_predict_parse(ByteReader& /*in*/, const Shape& /*shape*/,
                           const PipelineConfig& /*config*/,
                           const std::uint8_t* /*validity*/,
                           CodecContext& /*ctx*/) {}

template <typename T>
void lorenzo_predict_decode(T* out, const Shape& shape,
                            const PipelineConfig& /*config*/,
                            const LinearQuantizer<T>& quantizer,
                            std::span<const T> outliers, std::size_t& cursor,
                            const std::uint8_t* validity, CodecContext& ctx,
                            const PredictorFetch& fetch) {
  lorenzo_decode(out, shape, quantizer, outliers, cursor, validity,
                 ctx.pred_offs, ctx.pred_codes, ctx.lorenzo_terms, fetch,
                 ctx.cancel);
}

// --- block regression (id 3) -----------------------------------------------
// Side block: varint block side, then one zigzag-varint coefficient tuple
// (intercept + one slope per dim) per occupied block in raster order.

template <typename T>
void regression_predict_encode(T* work, const Shape& shape,
                               const PipelineConfig& /*config*/,
                               const LinearQuantizer<T>& quantizer,
                               const std::uint8_t* validity, CodecContext& ctx,
                               ByteWriter& out) {
  regression_encode(work, shape, quantizer, validity, ctx.offsets, ctx.codes,
                    ctx.outliers<T>(), out);
  // The decode side fetches the whole code stream in one batch.
  if (!ctx.codes.empty()) ctx.fetch_marks.push_back(ctx.codes.size());
}

void regression_predict_parse(ByteReader& in, const Shape& shape,
                              const PipelineConfig& /*config*/,
                              const std::uint8_t* validity,
                              CodecContext& ctx) {
  regression_parse(in, shape, validity, ctx.reg_block_side, ctx.reg_qcoeffs,
                   ctx.limits.max_side_block_bytes);
}

template <typename T>
void regression_predict_decode(T* out, const Shape& shape,
                               const PipelineConfig& /*config*/,
                               const LinearQuantizer<T>& quantizer,
                               std::span<const T> outliers,
                               std::size_t& cursor,
                               const std::uint8_t* validity, CodecContext& ctx,
                               const PredictorFetch& fetch) {
  regression_decode(out, shape, quantizer, ctx.reg_block_side,
                    std::span<const std::int64_t>(ctx.reg_qcoeffs), outliers,
                    cursor, validity, ctx.pred_offs, ctx.pred_codes, fetch);
}

// Keyed by PredictorBackendOps::id, the wire id the predictor byte names.
// Not dense: retired id 2 has no entry, so streams naming it are refused.
const PredictorBackendOps kPredictorOps[] = {
    {PredictorBackend::kInterp, "interp", &interp_predict_encode<float>,
     &interp_predict_encode<double>, interp_predict_parse,
     &interp_predict_decode<float>, &interp_predict_decode<double>},
    {PredictorBackend::kLorenzo1, "lorenzo1", &lorenzo_predict_encode<float>,
     &lorenzo_predict_encode<double>, lorenzo_predict_parse,
     &lorenzo_predict_decode<float>, &lorenzo_predict_decode<double>},
    {PredictorBackend::kRegression, "regression",
     &regression_predict_encode<float>, &regression_predict_encode<double>,
     regression_predict_parse, &regression_predict_decode<float>,
     &regression_predict_decode<double>},
};

}  // namespace

const EntropyBackendOps* find_entropy_backend(std::uint8_t id) {
  if (id >= std::size(kOps)) return nullptr;
  return &kOps[id];
}

const EntropyBackendOps& entropy_backend_ops(EntropyBackend backend) {
  const EntropyBackendOps* ops =
      find_entropy_backend(static_cast<std::uint8_t>(backend));
  CLIZ_REQUIRE(ops != nullptr, "unregistered entropy backend");
  return *ops;
}

void framed_entropy_encode(const EntropyBackendOps& ops, bool classified,
                           std::size_t n_groups, CodecContext& ctx,
                           ByteWriter& out) {
  const std::size_t n_syms =
      classified ? ctx.shifted.size() : ctx.codes.size();

  // Segment boundaries: sub-split each recorded fetch interval so no
  // segment straddles a decode-side fetch call.
  auto& segs = ctx.frame_segments;
  segs.clear();
  std::size_t prev = 0;
  for (const std::size_t mark : ctx.fetch_marks) {
    CLIZ_REQUIRE(mark > prev && mark <= n_syms, "corrupt fetch marks");
    const std::size_t len = mark - prev;
    const std::size_t pieces =
        std::max<std::size_t>(1, len / kFrameSegmentSyms);
    for (std::size_t p = 0; p < pieces; ++p) {
      const std::size_t lo = prev + len * p / pieces;
      const std::size_t hi = prev + len * (p + 1) / pieces;
      segs.push_back({lo, hi - lo, 0, 0});
    }
    prev = mark;
  }
  CLIZ_REQUIRE(prev == n_syms, "fetch marks do not cover the code stream");

  // Tables are staged: the container's segment table precedes them in the
  // stream, but the segment byte lengths are only known after encoding.
  ctx.frame_tables.clear();
  ops.encode_tables(n_groups, ctx, ctx.frame_tables);

  auto& payload = ctx.frame_payload;
  payload.clear();
  for (auto& seg : segs) {
    seg.byte_off = payload.size();
    ctx.bits.reset();
    ops.encode_segment(classified, seg.sym_base, seg.sym_base + seg.n_syms,
                       ctx);
    const auto bytes = ctx.bits.finish_view();
    payload.insert(payload.end(), bytes.begin(), bytes.end());
    seg.n_bytes = payload.size() - seg.byte_off;
  }

  out.put_u8(kFramingLayoutId);
  out.put_varint(segs.size());
  for (const auto& seg : segs) {
    out.put_varint(seg.n_syms);
    out.put_varint(seg.n_bytes);
  }
  out.put_bytes(ctx.frame_tables.bytes());
  out.put_block(payload);
  ctx.stats.frame_segments = segs.size();
}

void framed_entropy_parse(const EntropyBackendOps& ops, ByteReader& in,
                          std::size_t n_tables, std::size_t n_codes,
                          EntropyDecodeState& state) {
  CodecContext& ctx = *state.ctx;
  CLIZ_REQUIRE(in.get_u8() == kFramingLayoutId,
               "unknown entropy framing layout");
  const std::uint64_t n_segments = in.get_varint();
  // Governor first: the declared count sizes the segment table (and one
  // decode task per entry) — an inflated declaration is a limit refusal
  // even when it would also fail the structural cross-check below.
  CLIZ_REQUIRE_CODE(n_segments <= ctx.limits.max_frame_segments,
                    kLimitExceeded,
                    "declared framing segment count exceeds "
                    "ResourceLimits::max_frame_segments (stream offset " +
                        std::to_string(in.pos()) + ")");
  // Every segment holds >= 1 symbol, so the count is bounded by the code
  // count the predict stage recorded (validated against the shape already).
  CLIZ_REQUIRE(n_segments <= n_codes, "corrupt framing segment count");
  auto& segs = ctx.frame_segments;
  segs.clear();
  segs.reserve(static_cast<std::size_t>(n_segments));
  std::size_t sym_base = 0;
  std::size_t byte_off = 0;
  for (std::uint64_t i = 0; i < n_segments; ++i) {
    const std::uint64_t nsym = in.get_varint();
    const std::uint64_t nbyte = in.get_varint();
    CLIZ_REQUIRE(nsym >= 1 && nsym <= n_codes - sym_base,
                 "framing segment bounds out of range");
    CLIZ_REQUIRE(nbyte <= in.remaining(),
                 "framing segment bounds out of range");
    segs.push_back({sym_base, static_cast<std::size_t>(nsym), byte_off,
                    static_cast<std::size_t>(nbyte)});
    sym_base += static_cast<std::size_t>(nsym);
    byte_off += static_cast<std::size_t>(nbyte);
  }
  CLIZ_REQUIRE(sym_base == n_codes, "framing segment bounds out of range");
  ops.parse_tables(in, n_tables, state);
  state.payload = in.get_block();
  // The per-segment lengths must tile the payload exactly; anything else
  // (truncated table, overlapping or dangling slices) is corruption.
  CLIZ_REQUIRE(byte_off == state.payload.size(),
               "framing segment bounds out of range");
  state.segments = segs;
}

const PredictorBackendOps* find_predictor_backend(std::uint8_t id) {
  for (const PredictorBackendOps& ops : kPredictorOps) {
    if (static_cast<std::uint8_t>(ops.id) == id) return &ops;
  }
  return nullptr;
}

const PredictorBackendOps& predictor_backend_ops(PredictorBackend backend) {
  const PredictorBackendOps* ops =
      find_predictor_backend(static_cast<std::uint8_t>(backend));
  CLIZ_REQUIRE(ops != nullptr, "unregistered predictor backend");
  return *ops;
}

}  // namespace cliz
