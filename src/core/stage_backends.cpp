#include "src/core/stage_backends.hpp"

#include <algorithm>
#include <span>
#include <string>

#include "src/common/parallel.hpp"
#include "src/common/status.hpp"
#include "src/core/codec_context.hpp"
#include "src/entropy/tans.hpp"
#include "src/predictor/interp_engine.hpp"
#include "src/predictor/lorenzo_nd.hpp"
#include "src/predictor/regression.hpp"

namespace cliz {

namespace {

/// Reached only when a caller casts an unlisted value into a backend enum;
/// stored ids are validated by the *_backend_from_wire functions first.
[[noreturn]] void unregistered_backend(const char* stage) {
  throw Error(std::string("cliz: unregistered ") + stage + " backend");
}

// --- Huffman (id 0) --------------------------------------------------------
// A Huffman payload is byte-aligned and stateless between symbols.

void huffman_encode_tables(std::size_t n_groups, CodecContext& ctx,
                           ByteWriter& out) {
  ctx.reserve_trees(n_groups);
  for (std::size_t g = 0; g < n_groups; ++g) {
    ctx.trees[g].rebuild_from_frequencies(ctx.freq[g].counts());
    ctx.tree_bytes.clear();
    ctx.trees[g].serialize(ctx.tree_bytes);
    out.put_block(ctx.tree_bytes.bytes());
  }
}

void huffman_encode_segment(bool classified, CodecContext& ctx) {
  if (classified) {
    for (std::size_t i = 0; i < ctx.shifted.size(); ++i) {
      ctx.trees[ctx.group[i]].encode(
          std::span<const std::uint32_t>(&ctx.shifted[i], 1), ctx.bits);
    }
  } else {
    ctx.trees[0].encode(ctx.codes, ctx.bits);
  }
}

void huffman_parse_tables(ByteReader& in, std::size_t n_tables,
                          CodecContext& ctx) {
  ctx.reserve_trees(n_tables);
  for (std::size_t g = 0; g < n_tables; ++g) {
    ByteReader table_reader(in.get_block());
    ctx.trees[g].parse(table_reader);
  }
}

// --- tANS (id 1) -----------------------------------------------------------
// Tables: u8 table_log (shared by every group's table), then one block of
// normalized counts per group. A segment payload is [final encoder state
// - L: table_log bits][refill bits...]. One interleaved state walks all
// groups (ANS is LIFO: encode runs in reverse over the stream, so the
// decoder reads each segment strictly forward).

bool tans_encodable(const CodecContext& ctx, std::size_t n_groups) {
  for (std::size_t g = 0; g < n_groups; ++g) {
    if (ctx.freq[g].size() >
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
    max_alphabet = std::max(max_alphabet, ctx.freq[g].size());
  }
  const unsigned table_log = TansCodec::pick_table_log(max_alphabet);

  ctx.reserve_tans(n_groups);
  out.put_u8(static_cast<std::uint8_t>(table_log));
  for (std::size_t g = 0; g < n_groups; ++g) {
    const bool ok =
        ctx.tans[g].rebuild_from_frequencies(ctx.freq[g].counts(), table_log);
    CLIZ_REQUIRE(ok, "tANS alphabet exceeds the table");
    ctx.tree_bytes.clear();
    ctx.tans[g].serialize(ctx.tree_bytes);
    out.put_block(ctx.tree_bytes.bytes());
  }
}

void tans_encode_segment(bool classified, CodecContext& ctx) {
  const unsigned table_log = ctx.tans[0].table_log();
  auto& stack = ctx.tans_stack;
  stack.clear();
  std::uint32_t state = 1u << table_log;
  if (classified) {
    for (std::size_t i = ctx.shifted.size(); i-- > 0;) {
      ctx.tans[ctx.group[i]].encode_symbol(ctx.shifted[i], state, stack);
    }
  } else {
    for (std::size_t i = ctx.codes.size(); i-- > 0;) {
      ctx.tans[0].encode_symbol(ctx.codes[i], state, stack);
    }
  }
  ctx.bits.put_bits(state - (1u << table_log), static_cast<int>(table_log));
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    ctx.bits.put_bits(*it & 0xFFFFu, static_cast<int>(*it >> 16));
  }
}

unsigned tans_parse_tables(ByteReader& in, std::size_t n_tables,
                           CodecContext& ctx) {
  const unsigned table_log = in.get_u8();
  CLIZ_REQUIRE(table_log >= TansCodec::kMinTableLog &&
                   table_log <= TansCodec::kMaxTableLog,
               "corrupt tANS table log");
  ctx.reserve_tans(n_tables);
  for (std::size_t g = 0; g < n_tables; ++g) {
    ByteReader table_reader(in.get_block());
    ctx.tans[g].parse(table_reader, table_log);
  }
  return table_log;
}

// --- symbol decoding --------------------------------------------------------

/// Classified resolution shared by every coder: each point's column picks
/// the group whose table decodes its symbol (`decode_sym(group)`), then the
/// escape maps back to code 0 and any other symbol to sym + shift - j.
template <typename DecodeSym>
inline void decode_classified(const EntropyDecodeState& state,
                              const std::uint64_t* offs, std::uint32_t* dst,
                              std::size_t n, DecodeSym&& decode_sym) {
  const BinClassification& cls = *state.classification;
  const std::size_t plane = state.plane;
  const std::uint32_t escape = state.escape;
  const auto j = static_cast<std::int64_t>(cls.params().j);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t col = static_cast<std::size_t>(offs[i]) % plane;
    const std::uint32_t sym = decode_sym(cls.group_of(col));
    if (sym == escape) {
      dst[i] = 0;
      continue;
    }
    dst[i] = static_cast<std::uint32_t>(static_cast<std::int64_t>(sym) +
                                        cls.shift_of(col) - j);
  }
}

void huffman_decode(const EntropyDecodeState& state, EntropyCursor& cur,
                    const std::uint64_t* offs, std::uint32_t* dst,
                    std::size_t n) {
  const auto& trees = state.ctx->trees;
  if (state.classification == nullptr) {
    trees[0].decode_batch(cur.bits, dst, n);
    return;
  }
  decode_classified(state, offs, dst, n, [&](std::size_t g) {
    return trees[g].decode_one(cur.bits);
  });
}

void tans_decode(const EntropyDecodeState& state, EntropyCursor& cur,
                 const std::uint64_t* offs, std::uint32_t* dst,
                 std::size_t n) {
  const auto& tans = state.ctx->tans;
  if (state.classification == nullptr) {
    for (std::size_t i = 0; i < n; ++i) {
      dst[i] = tans[0].decode_symbol(cur.walk, cur.bits);
    }
    return;
  }
  decode_classified(state, offs, dst, n, [&](std::size_t g) {
    return tans[g].decode_symbol(cur.walk, cur.bits);
  });
}

// --- backend dispatch -------------------------------------------------------

void encode_tables(EntropyBackend backend, std::size_t n_groups,
                   CodecContext& ctx, ByteWriter& out) {
  switch (backend) {
    case EntropyBackend::kHuffman:
      return huffman_encode_tables(n_groups, ctx, out);
    case EntropyBackend::kTans:
      return tans_encode_tables(n_groups, ctx, out);
  }
  unregistered_backend("entropy");
}

/// Encodes the whole symbol stream into ctx.bits as one segment. The
/// caller resets ctx.bits first.
void encode_segment(EntropyBackend backend, bool classified,
                    CodecContext& ctx) {
  switch (backend) {
    case EntropyBackend::kHuffman:
      return huffman_encode_segment(classified, ctx);
    case EntropyBackend::kTans:
      return tans_encode_segment(classified, ctx);
  }
  unregistered_backend("entropy");
}

void parse_tables(ByteReader& in, std::size_t n_tables,
                  EntropyDecodeState& state) {
  switch (state.backend) {
    case EntropyBackend::kHuffman:
      return huffman_parse_tables(in, n_tables, *state.ctx);
    case EntropyBackend::kTans:
      state.table_log = tans_parse_tables(in, n_tables, *state.ctx);
      return;
  }
  unregistered_backend("entropy");
}

/// Starts a cursor at the head of a payload: the serial block or one
/// framed segment's slice.
EntropyCursor start_cursor(const EntropyDecodeState& state,
                           std::span<const std::uint8_t> payload) {
  EntropyCursor cur{BitReader(payload)};
  if (state.backend == EntropyBackend::kTans) {
    cur.walk = (1u << state.table_log) +
               static_cast<std::uint32_t>(
                   cur.bits.get_bits(static_cast<int>(state.table_log)));
  }
  return cur;
}

/// Decodes the next `n` symbols at `cur`. Reads `state` and the context's
/// codecs const-only, so framed segments decode concurrently, each with
/// its own cursor.
void decode_symbols(const EntropyDecodeState& state, EntropyCursor& cur,
                    const std::uint64_t* offs, std::uint32_t* dst,
                    std::size_t n) {
  switch (state.backend) {
    case EntropyBackend::kHuffman:
      return huffman_decode(state, cur, offs, dst, n);
    case EntropyBackend::kTans:
      return tans_decode(state, cur, offs, dst, n);
  }
  unregistered_backend("entropy");
}

// --- framed container (entropy byte bit 7) ---------------------------------
// Read, never written: earlier writers split each decode-fetch interval
// into independently decodable segments. The decoder keeps reading them.

/// Version byte of the framed container layout; anything else is a stream
/// from a future build and rejected cleanly.
constexpr std::uint8_t kFramingLayoutId = 1;

void framed_parse(ByteReader& in, std::size_t n_tables, std::size_t n_codes,
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
  parse_tables(in, n_tables, state);
  state.payload = in.get_block();
  // The per-segment lengths must tile the payload exactly; anything else
  // (truncated table, overlapping or dangling slices) is corruption.
  CLIZ_REQUIRE(byte_off == state.payload.size(),
               "framing segment bounds out of range");
  state.segments = segs;
  state.fetch_pos = 0;
  state.next_segment = 0;
  ctx.stats.frame_segments = segs.size();
}

/// Splits one fetch into the segments it covers — they must start exactly
/// at the fetch position and end exactly at its last symbol — and decodes
/// them on parallel workers over disjoint offs/dst ranges.
void framed_fetch(EntropyDecodeState& state, const std::uint64_t* offs,
                  std::uint32_t* dst, std::size_t n) {
  const auto segs = state.segments;
  const std::size_t first = state.next_segment;
  std::size_t covered = 0;
  while (covered < n) {
    CLIZ_REQUIRE(state.next_segment < segs.size() &&
                     segs[state.next_segment].sym_base ==
                         state.fetch_pos + covered,
                 "entropy framing misaligned with fetch");
    covered += segs[state.next_segment].n_syms;
    ++state.next_segment;
  }
  CLIZ_REQUIRE(covered == n, "entropy framing misaligned with fetch");
  parallel_for_cancellable(
      first, state.next_segment, state.ctx->cancel, [&](std::size_t si) {
        const FramedSegment& seg = segs[si];
        const std::size_t rel = seg.sym_base - state.fetch_pos;
        EntropyCursor cur = start_cursor(
            state, state.payload.subspan(seg.byte_off, seg.n_bytes));
        decode_symbols(state, cur, offs != nullptr ? offs + rel : nullptr,
                       dst + rel, seg.n_syms);
      });
  state.fetch_pos += n;
}

}  // namespace

EntropyBackend entropy_backend_from_wire(std::uint8_t id) {
  const auto backend = static_cast<EntropyBackend>(id);
  switch (backend) {
    case EntropyBackend::kHuffman:
    case EntropyBackend::kTans:
      return backend;
  }
  throw Error("cliz: unknown entropy backend id " + std::to_string(id));
}

bool entropy_encodable(EntropyBackend backend, const CodecContext& ctx,
                       std::size_t n_groups) {
  switch (backend) {
    case EntropyBackend::kHuffman:
      return true;
    case EntropyBackend::kTans:
      return tans_encodable(ctx, n_groups);
  }
  unregistered_backend("entropy");
}

void entropy_encode(EntropyBackend backend, bool classified,
                    std::size_t n_groups, CodecContext& ctx,
                    ByteWriter& out) {
  // The tables, then the whole stream as one segment in one block.
  encode_tables(backend, n_groups, ctx, out);
  ctx.bits.reset();
  encode_segment(backend, classified, ctx);
  out.put_block(ctx.bits.finish_view());
}

void entropy_parse(ByteReader& in, std::size_t n_tables, std::size_t n_codes,
                   EntropyDecodeState& state) {
  if (state.framed) {
    framed_parse(in, n_tables, n_codes, state);
    return;
  }
  parse_tables(in, n_tables, state);
  state.serial.emplace(start_cursor(state, in.get_block()));
}

void entropy_fetch(EntropyDecodeState& state, const std::uint64_t* offs,
                   std::uint32_t* dst, std::size_t n) {
  if (state.framed) {
    framed_fetch(state, offs, dst, n);
    return;
  }
  decode_symbols(state, *state.serial, offs, dst, n);
}

// --- predictor stage --------------------------------------------------------

PredictorBackend predictor_backend_from_wire(std::uint8_t id) {
  CLIZ_REQUIRE_CODE(id != kRetiredLorenzo2Id, kUnsupported,
                    "predictor backend id 2 (2nd-order Lorenzo) is retired "
                    "and no longer decodable");
  const auto backend = static_cast<PredictorBackend>(id);
  switch (backend) {
    case PredictorBackend::kInterp:
    case PredictorBackend::kLorenzo1:
    case PredictorBackend::kRegression:
      return backend;
  }
  throw Error("cliz: unknown predictor backend id " + std::to_string(id));
}

// Side blocks: interpolation (id 0) writes its pass-fit table (varint
// count + one byte per pass, 1 = cubic); block regression (id 3) writes a
// varint block side, then one zigzag-varint coefficient tuple (intercept +
// one slope per dim) per occupied block in raster order; Lorenzo (id 1)
// writes nothing — its first-order stencil follows from the shape, and the
// pipeline's permutation/fusion axes do not apply to either raster scan.

template <typename T>
void predictor_encode(PredictorBackend backend, T* work, const Shape& shape,
                      const PipelineConfig& config,
                      const LinearQuantizer<T>& quantizer,
                      const std::uint8_t* validity, CodecContext& ctx,
                      ByteWriter& out) {
  switch (backend) {
    case PredictorBackend::kInterp:
      fused_axes_into(shape, config.fusion, ctx.axes);
      induced_axis_order_into(config.fusion, config.permutation,
                              ctx.axis_order);
      ctx.pass_fits.clear();
      interp_encode_lines(work, ctx.axes, ctx.axis_order,
                          config.dynamic_fitting, config.fitting, quantizer,
                          validity,
                          config.classify_bins ? &ctx.offsets : nullptr,
                          ctx.codes, ctx.outliers<T>(), ctx.pass_fits,
                          ctx.interp);
      out.put_varint(ctx.pass_fits.size());
      out.put_bytes(ctx.pass_fits);
      return;
    case PredictorBackend::kLorenzo1:
      lorenzo_encode(work, shape, quantizer, validity, ctx.offsets, ctx.codes,
                     ctx.outliers<T>(), ctx.lorenzo_terms, ctx.cancel);
      return;
    case PredictorBackend::kRegression:
      regression_encode(work, shape, quantizer, validity, ctx.offsets,
                        ctx.codes, ctx.outliers<T>(), out);
      return;
  }
  unregistered_backend("predictor");
}

void predictor_parse(PredictorBackend backend, ByteReader& in,
                     const Shape& shape, const PipelineConfig& config,
                     const std::uint8_t* validity, CodecContext& ctx) {
  switch (backend) {
    case PredictorBackend::kInterp: {
      const std::size_t n_passes = static_cast<std::size_t>(in.get_varint());
      CLIZ_REQUIRE(n_passes <= 64 * kMaxAxes, "corrupt pass count");
      ctx.pred_pass_fits = in.get_bytes(n_passes);
      CLIZ_REQUIRE(config.dynamic_fitting || n_passes == 0,
                   "pass-fit table on a static-fitting stream");
      return;
    }
    case PredictorBackend::kLorenzo1:
      return;
    case PredictorBackend::kRegression:
      regression_parse(in, shape, validity, ctx.reg_block_side,
                       ctx.reg_qcoeffs, ctx.limits.max_side_block_bytes);
      return;
  }
  unregistered_backend("predictor");
}

template <typename T>
void predictor_decode(PredictorBackend backend, T* out, const Shape& shape,
                      const PipelineConfig& config,
                      const LinearQuantizer<T>& quantizer,
                      std::span<const T> outliers, std::size_t& cursor,
                      const std::uint8_t* validity, CodecContext& ctx,
                      const PredictorFetch& fetch) {
  switch (backend) {
    case PredictorBackend::kInterp:
      fused_axes_into(shape, config.fusion, ctx.axes);
      induced_axis_order_into(config.fusion, config.permutation,
                              ctx.axis_order);
      interp_decode_lines(out, ctx.axes, ctx.axis_order,
                          config.dynamic_fitting, config.fitting,
                          ctx.pred_pass_fits, quantizer, outliers, cursor,
                          validity, config.classify_bins, ctx.interp, fetch);
      return;
    case PredictorBackend::kLorenzo1:
      lorenzo_decode(out, shape, quantizer, outliers, cursor, validity,
                     ctx.pred_offs, ctx.pred_codes, ctx.lorenzo_terms, fetch,
                     ctx.cancel);
      return;
    case PredictorBackend::kRegression:
      regression_decode(out, shape, quantizer, ctx.reg_block_side,
                        std::span<const std::int64_t>(ctx.reg_qcoeffs),
                        outliers, cursor, validity, ctx.pred_offs,
                        ctx.pred_codes, fetch);
      return;
  }
  unregistered_backend("predictor");
}

template void predictor_encode<float>(PredictorBackend, float*, const Shape&,
                                      const PipelineConfig&,
                                      const LinearQuantizer<float>&,
                                      const std::uint8_t*, CodecContext&,
                                      ByteWriter&);
template void predictor_encode<double>(PredictorBackend, double*,
                                       const Shape&, const PipelineConfig&,
                                       const LinearQuantizer<double>&,
                                       const std::uint8_t*, CodecContext&,
                                       ByteWriter&);
template void predictor_decode<float>(PredictorBackend, float*, const Shape&,
                                      const PipelineConfig&,
                                      const LinearQuantizer<float>&,
                                      std::span<const float>, std::size_t&,
                                      const std::uint8_t*, CodecContext&,
                                      const PredictorFetch&);
template void predictor_decode<double>(PredictorBackend, double*,
                                       const Shape&, const PipelineConfig&,
                                       const LinearQuantizer<double>&,
                                       std::span<const double>, std::size_t&,
                                       const std::uint8_t*, CodecContext&,
                                       const PredictorFetch&);

}  // namespace cliz
