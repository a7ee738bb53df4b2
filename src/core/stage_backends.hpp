#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "src/common/bitio.hpp"
#include "src/common/bytestream.hpp"
#include "src/core/bin_classify.hpp"
#include "src/core/pipeline.hpp"
#include "src/entropy/backend.hpp"
#include "src/ndarray/shape.hpp"
#include "src/predictor/backend.hpp"
#include "src/quantizer/linear_quantizer.hpp"

namespace cliz {

class CodecContext;

/// In classified mode, shifted symbols (biased by +j) occupy
/// [1, 2*radius-1+2j]; the outlier escape is remapped above that range so a
/// shift can never collide with it. Shared by every entropy backend — the
/// bin-classification layer is backend-independent.
inline std::uint32_t entropy_escape_symbol(std::uint32_t radius, unsigned j) {
  return 2 * radius + 2 * j + 2;
}

/// One independently decodable slice of a framed entropy payload (entropy
/// byte bit 7, read but no longer written): `n_syms` symbols starting at
/// stream position `sym_base`, byte-aligned at `byte_off` in the
/// concatenated payload block. A segment must not straddle a decode fetch
/// call, so whole segments can decode on parallel_for workers.
struct FramedSegment {
  std::size_t sym_base = 0;  ///< cumulative symbol index of the first symbol
  std::size_t n_syms = 0;    ///< symbols in this segment (>= 1)
  std::size_t byte_off = 0;  ///< byte offset into the payload block
  std::size_t n_bytes = 0;   ///< payload bytes of this segment
};

/// Read position in one entropy payload: the bit reader plus the tANS
/// walking state (unused by Huffman). A serial stream is one cursor over
/// the whole payload block that persists across fetch calls; a framed
/// segment starts a fresh cursor over its own slice. Both start the same
/// way: a tANS cursor reads its initial state from the first table_log
/// bits.
struct EntropyCursor {
  BitReader bits;
  std::uint32_t walk = 0;  ///< tANS walking state in [L, 2L)
};

/// Decode-side state of one entropy stream, shared across fetch calls. The
/// backend, framing and classification fields are filled by the caller
/// from the entropy byte and the classification block (which is
/// backend-independent); entropy_parse fills the rest.
struct EntropyDecodeState {
  CodecContext* ctx = nullptr;
  EntropyBackend backend = EntropyBackend::kHuffman;
  bool framed = false;  ///< entropy byte bit 7
  /// Non-null in classified mode; drives per-point group/shift resolution.
  const BinClassification* classification = nullptr;
  std::size_t plane = 0;       ///< classification column period
  std::uint32_t escape = 0;    ///< outlier escape symbol
  unsigned table_log = 0;      ///< tANS table log (each cursor start reads it)
  /// Serial streams: the one cursor over the payload block.
  std::optional<EntropyCursor> serial;
  // --- framed container only ---
  /// Parsed segment table (backed by ctx.frame_segments).
  std::span<const FramedSegment> segments;
  /// The concatenated per-segment payload block.
  std::span<const std::uint8_t> payload;
  std::size_t fetch_pos = 0;     ///< symbols consumed by earlier fetches
  std::size_t next_segment = 0;  ///< segments consumed by earlier fetches
};

// --- entropy stage ----------------------------------------------------------
// Each backend (Huffman id 0, tANS id 1) has one table writer/reader, one
// stream encoder and one symbol decoder; the functions below dispatch on
// the backend id and own the container around them. The serial layout
// after the classification block, the only one written:
//   coding tables, then block: the symbol payload (one segment)
// The framed container (entropy byte bit 7) is still read, in its place:
//   u8 layout id (currently 1)
//   varint n_segments
//   n_segments x (varint n_syms, varint n_bytes)
//   coding tables (byte-identical to the serial prefix)
//   block: concatenated byte-aligned per-segment payloads
// Its writers split each decode-fetch interval into segments, so a fetch
// decodes whole segments on parallel workers.

/// Validates a stored entropy backend id (the entropy byte's bits 1..6);
/// an id this build does not know is a clean kCorruptStream Error.
[[nodiscard]] EntropyBackend entropy_backend_from_wire(std::uint8_t id);

/// True when the stage-3 census in ctx.freq can be represented by
/// `backend`. When false the encoder falls back to Huffman (always
/// encodable) and patches the stream's entropy byte.
[[nodiscard]] bool entropy_encodable(EntropyBackend backend,
                                     const CodecContext& ctx,
                                     std::size_t n_groups);

/// Builds the per-group codecs from the stage-3 censuses and writes the
/// coding tables and the symbol payload (ctx.shifted/ctx.group when
/// classified, ctx.codes otherwise) in the serial layout.
void entropy_encode(EntropyBackend backend, bool classified,
                    std::size_t n_groups, CodecContext& ctx,
                    ByteWriter& out);

/// Parses a serial or framed entropy container and positions `state` for
/// fetches.
/// Framing errors — unknown layout ids, segment counts/bounds that do not
/// tile [0, n_codes), payload-size mismatches — are clean cliz::Errors; a
/// declared segment count past ResourceLimits::max_frame_segments is
/// kLimitExceeded.
void entropy_parse(ByteReader& in, std::size_t n_tables, std::size_t n_codes,
                   EntropyDecodeState& state);

/// Decodes the next `n` symbols into `dst`; in classified mode `offs`
/// locates each point's column for group/shift resolution. A framed
/// stream requires the fetch to cover whole segments (else a clean Error)
/// and decodes them on parallel workers, checking ctx.cancel.
void entropy_fetch(EntropyDecodeState& state, const std::uint64_t* offs,
                   std::uint32_t* dst, std::size_t n);

/// Type-erased symbol source handed to predictor_decode (plain function
/// pointer + state), so the predictor engines need no template parameter
/// for the entropy source. `fn` must fill `dst` with the next `n`
/// quantization codes in stream order; `offs` identifies the target of
/// each code for classified entropy sources.
struct PredictorFetch {
  void* self = nullptr;
  void (*fn)(void* self, const std::uint64_t* offs, std::uint32_t* dst,
             std::size_t n) = nullptr;
  void operator()(const std::uint64_t* offs, std::uint32_t* dst,
                  std::size_t n) const {
    fn(self, offs, dst, n);
  }
};

// --- predictor stage ------------------------------------------------------
// Dispatch on the wire id in the high bits of the stream's predictor byte;
// scratch lives in the CodecContext. The templates are explicitly
// instantiated for float and double in stage_backends.cpp.

/// Validates a stored predictor backend id: the retired id 2 is
/// kUnsupported, any other id this build does not know is kCorruptStream.
[[nodiscard]] PredictorBackend predictor_backend_from_wire(std::uint8_t id);

/// Predicts and quantizes `work` in place (it becomes the reconstruction),
/// filling ctx.codes / ctx.outliers<T>() (cleared by the caller) and
/// ctx.offsets (the interpolation backend fills the offsets only when
/// config.classify_bins is set). Writes the backend's side block ahead of
/// the generic outlier stream: the interpolation pass-fit table, the
/// regression block side + quantized plane coefficients, nothing for
/// Lorenzo.
template <typename T>
void predictor_encode(PredictorBackend backend, T* work, const Shape& shape,
                      const PipelineConfig& config,
                      const LinearQuantizer<T>& quantizer,
                      const std::uint8_t* validity, CodecContext& ctx,
                      ByteWriter& out);

/// Reads the side block predictor_encode wrote (state into the context).
void predictor_parse(PredictorBackend backend, ByteReader& in,
                     const Shape& shape, const PipelineConfig& config,
                     const std::uint8_t* validity, CodecContext& ctx);

/// Reconstructs every valid point, pulling codes through `fetch`.
template <typename T>
void predictor_decode(PredictorBackend backend, T* out, const Shape& shape,
                      const PipelineConfig& config,
                      const LinearQuantizer<T>& quantizer,
                      std::span<const T> outliers, std::size_t& cursor,
                      const std::uint8_t* validity, CodecContext& ctx,
                      const PredictorFetch& fetch);

}  // namespace cliz
