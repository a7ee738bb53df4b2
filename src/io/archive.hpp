#pragma once

// CLZA archive: a minimal NetCDF-flavoured container for compressed climate
// variables — the deployment vehicle the paper lists as future work
// ("integrate CliZ into HDF5 and NetCDF"). An archive holds any number of
// named variables, each stored as an error-bounded CliZ stream (single or
// chunked frame), with free-form string attributes (units, model name, ...)
// and the validity mask embedded in the stream.
//
// Layout: [magic "CLZA"] [version=2] [framed records...]
//            [index block + CRC32C] [index offset u64] [magic]
// where each record is self-describing:
//            [record magic "CLZV"] [info block] [info CRC32C]
//            [payload CRC32C] [payload]
// The index is written last so archives stream to disk without seeks; the
// strict reader locates it from the fixed-size trailer, while the tolerant
// reader can rebuild it from the record frames alone when the trailer or
// index is damaged (see ArchiveOpenMode::kTolerant). Retired version-1
// archives (checksum-less, unframed records) are refused with
// ErrorCode::kUnsupported in both open modes.

#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/core/chunked.hpp"
#include "src/core/chunked_reader.hpp"
#include "src/core/mask.hpp"
#include "src/core/pipeline.hpp"
#include "src/core/tile_cache.hpp"
#include "src/ndarray/ndarray.hpp"

namespace cliz {

/// Metadata of one archived variable.
struct VariableInfo {
  std::string name;
  DimVec dims;
  /// Always "cliz" when written; records naming any other codec are listed
  /// but refused by the decoding reads with ErrorCode::kUnsupported.
  std::string codec;
  double error_bound = 0.0;
  std::uint64_t compressed_bytes = 0;
  /// Bytes per sample: 4 = float32, 8 = float64.
  std::uint32_t sample_bytes = 4;
  std::map<std::string, std::string> attributes;
};

/// Outcome of a tolerant archive open: which variables are readable, which
/// record sites were damaged, and whether the trailer-located index itself
/// survived. Returned by ArchiveReader::salvage().
struct SalvageReport {
  /// True when the trailer and index parsed and the index CRC verified;
  /// false when variables were recovered by scanning records.
  bool index_intact = false;
  /// Names readable through read()/read_raw(), in file order.
  std::vector<std::string> recovered;
  struct Quarantined {
    std::string name;          ///< empty when the name itself was damaged
    std::uint64_t offset = 0;  ///< file offset of the damaged record site
    std::string reason;
  };
  std::vector<Quarantined> quarantined;
  /// True when a record scan stopped at ResourceLimits::max_salvage_records;
  /// `recovered` then holds the verified prefix and later record sites were
  /// never examined. Always false when the index was intact.
  bool truncated = false;
  [[nodiscard]] std::string to_text() const;
};

enum class ArchiveOpenMode {
  kStrict,    ///< throw cliz::Error on any structural damage (default)
  kTolerant,  ///< recover every variable the record CRCs vouch for
};

/// Streaming archive writer. Variables are compressed and appended in call
/// order; finish() (or the destructor) writes the index and trailer.
///
/// All CliZ variables of one writer compress through a single shared
/// ChunkedScratch (context pool + staging), so a multi-variable archive
/// reaches the steady-state allocation profile of a reused context after
/// the first variable. Variables whose raw size reaches the chunk
/// threshold are stored as chunked frames — compressed slab-parallel and
/// decodable slab-parallel by the reader — while small ones stay single
/// CliZ streams.
class ArchiveWriter {
 public:
  explicit ArchiveWriter(const std::string& path);
  ~ArchiveWriter();

  ArchiveWriter(const ArchiveWriter&) = delete;
  ArchiveWriter& operator=(const ArchiveWriter&) = delete;

  /// Raw-byte size at or above which a CliZ variable is stored as a
  /// chunked frame of one slab per `bytes` of raw data, rounded up
  /// (default kDefaultChunkBytes). 0 disables chunking. Takes effect for
  /// variables added after the call; arrays whose dim 0 extent is 1 are
  /// never chunked (nothing to slice). Test hook: the Archive and
  /// ArchiveRegion suites in tests/test_archive.cpp build small chunked
  /// variables with it, which the 8 MiB default would store single-stream.
  void set_chunk_threshold(std::size_t bytes) { chunk_threshold_ = bytes; }

  /// Requests the tile-indexed "CLK3" layout for subsequent CliZ variables
  /// whose dimensionality matches the tile vector's arity (a zero entry
  /// means "full extent along this dim"). Tiled variables are written
  /// regardless of the chunk threshold and become cheap region reads
  /// through ArchiveReader::read_region. Variables of a different rank
  /// fall back to the threshold/slab rules; an empty vector (default)
  /// restores them for everything.
  void set_tile(DimVec tile) { tile_ = std::move(tile); }

  /// Compresses `data` with CliZ under `pipeline` and appends it, recording
  /// its sample type in the index. `options` carries the codec knobs —
  /// notably the predictor/entropy backend choice (e.g. autotune's
  /// best_predictor/best_entropy) and encode verification.
  template <Sample T>
  void add_variable(const std::string& name, const NdArray<T>& data,
                    double abs_error_bound, const PipelineConfig& pipeline,
                    const MaskMap* mask = nullptr,
                    std::map<std::string, std::string> attributes = {},
                    const ClizOptions& options = {});

  /// Writes index + trailer and closes the file. Idempotent.
  void finish();

 private:
  struct Entry {
    VariableInfo info;
    std::uint64_t offset = 0;        ///< payload offset (after record frame)
    std::uint32_t payload_crc = 0;
  };

  void append_stream(const std::string& name, const Shape& shape, double eb,
                     std::map<std::string, std::string> attributes,
                     const std::vector<std::uint8_t>& stream,
                     std::uint32_t sample_bytes);

  std::string path_;
  std::ofstream out_;
  std::vector<Entry> entries_;
  std::uint64_t cursor_ = 0;
  bool finished_ = false;
  /// Shared across all variables of this writer: context pool + chunk
  /// staging for the chunked path, context lease for the single-stream one.
  ChunkedScratch scratch_;
  std::vector<std::uint8_t> stream_buf_;  ///< compressed-stream staging
  std::size_t chunk_threshold_ = kDefaultChunkBytes;
  DimVec tile_;  ///< non-empty: CLK3 tiling for rank-matching variables
};

/// Random-access archive reader. The index is parsed on construction; each
/// read() seeks to and decompresses one variable. In kTolerant mode a
/// damaged trailer or index does not throw: the reader scans the file for
/// CRC-verified record frames and exposes whatever survives, with the
/// details in salvage().
class ArchiveReader {
 public:
  /// `limits` caps what declared index/record sizes the reader will honour
  /// (ErrorCode::kLimitExceeded past them, checked before the matching
  /// allocation) and `cancel` aborts long opens/reads cooperatively —
  /// together the per-request governor for serving untrusted archives. The
  /// defaults are generous and the token optional, so trusted use reads
  /// exactly as before. `cancel` must outlive the reader.
  explicit ArchiveReader(const std::string& path,
                         ArchiveOpenMode mode = ArchiveOpenMode::kStrict,
                         const ResourceLimits& limits = {},
                         const CancelToken* cancel = nullptr);

  ArchiveReader(const ArchiveReader&) = delete;
  ArchiveReader& operator=(const ArchiveReader&) = delete;

  [[nodiscard]] const std::vector<VariableInfo>& variables() const noexcept {
    return variables_;
  }
  [[nodiscard]] bool contains(const std::string& name) const;
  [[nodiscard]] const VariableInfo& info(const std::string& name) const;

  /// Decompresses one variable stored with sample type T (kBadArgument
  /// otherwise; VariableInfo::sample_bytes tells which T to ask for).
  /// Every decoding read refuses a non-"cliz" record with kUnsupported.
  /// Full reads decode through the reader's one warm scratch (the one
  /// read_region uses), so repeated reads reuse its contexts; like every
  /// read, not safe to call concurrently on the same reader.
  template <Sample T = float>
  [[nodiscard]] NdArray<T> read(const std::string& name) const;

  /// Raw compressed stream of one variable (for retransmission). Verifies
  /// the payload CRC for v2 archives.
  [[nodiscard]] std::vector<std::uint8_t> read_raw(
      const std::string& name) const;

  /// Decompresses one N-D window `[origin, origin+extent)` of a variable stored
  /// with sample type T without decoding the rest of it. For chunked variables
  /// the first call parses and validates the frame's tile index (from a bounded
  /// header prefix) and keeps it; every call then seeks straight to the
  /// intersecting tile payloads — compressed bytes touched scale with the
  /// window, not the variable. Per variable the reader keeps only the parsed
  /// tile records, never the header bytes, and one decode scratch serves all
  /// variables; an index that fails validation is never kept, so it is refused
  /// on every call. Non-chunked variables fall back to a full decode followed
  /// by a crop. `cache`, when given, serves repeated windows from decoded tiles
  /// (keyed by frame content, so the same variable bytes hit from any reader or
  /// path); `stats` reports tiles touched and compressed bytes read. Not safe
  /// to call concurrently with other reads on the same reader (they share the
  /// file stream, the kept views and the scratch), but region decode itself is
  /// tile-parallel internally.
  template <Sample T = float>
  [[nodiscard]] NdArray<T> read_region(const std::string& name,
                                       std::span<const std::size_t> origin,
                                       std::span<const std::size_t> extent,
                                       TileCache* cache = nullptr,
                                       RegionStats* stats = nullptr) const;

  /// What a tolerant open recovered. For a strict open (or a tolerant open
  /// of a clean archive) index_intact is true and nothing is quarantined.
  [[nodiscard]] const SalvageReport& salvage() const noexcept {
    return report_;
  }

 private:
  void open_strict();
  void scan_records();
  void verify_payloads();
  [[nodiscard]] std::size_t index_of(const std::string& name) const;
  /// index_of() for the decoding reads: refuses non-CliZ records, and
  /// records whose sample width is not `sample_bytes`.
  [[nodiscard]] std::size_t decodable_index(const std::string& name,
                                            std::size_t sample_bytes) const;
  /// Reads and CRC-checks the record at position `i` into `stream`.
  void read_record_into(std::size_t i,
                        std::vector<std::uint8_t>& stream) const;
  /// Full decode of the variable at position `i`, already type-checked.
  template <Sample T>
  [[nodiscard]] NdArray<T> decode_record(std::size_t i) const;
  /// Tile index of one variable, parsed by its first read_region call;
  /// nullptr when the variable is not a chunked frame.
  [[nodiscard]] const ChunkedReader* region_view(std::size_t i) const;

  mutable std::ifstream in_;
  ResourceLimits limits_;
  const CancelToken* cancel_ = nullptr;
  std::vector<VariableInfo> variables_;
  std::vector<std::uint64_t> offsets_;
  std::vector<std::uint32_t> payload_crcs_;
  SalvageReport report_;
  /// Region views by variable position; filled only once an index has
  /// validated.
  mutable std::vector<std::optional<std::unique_ptr<ChunkedReader>>> views_;
  /// Decode scratch of every read, warm across calls; its pool carries the
  /// reader's governor (set once, at construction).
  mutable ChunkedScratch scratch_;
  /// Read buffer of small records, reused across full reads.
  mutable std::vector<std::uint8_t> record_;
  mutable std::mutex io_mu_;  ///< serialises tile fetches on in_
};

}  // namespace cliz
