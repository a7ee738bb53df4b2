#include "src/io/archive.hpp"

#include <algorithm>
#include <cstring>
#include <sstream>

#include "src/common/bytestream.hpp"
#include "src/common/crc32c.hpp"
#include "src/core/cliz.hpp"

namespace cliz {

namespace {

constexpr std::uint32_t kMagic = 0x434C5A41u;        // "CLZA"
constexpr std::uint32_t kRecordMagic = 0x434C5A56u;  // "CLZV"
constexpr std::uint32_t kVersionV1 = 1;              // retired, refused
constexpr std::uint32_t kVersion = 2;
// Trailer: index offset (8 bytes) + magic (4 bytes).
constexpr std::size_t kTrailerBytes = 12;
// Tolerant-open scanning stops recording damage sites past this count (it
// still keeps looking for recoverable records) so a hostile file cannot
// grow the report without bound.
constexpr std::size_t kMaxQuarantined = 64;
// Largest record whose read buffer a reader keeps across full reads
// (glibc's default mmap threshold).
constexpr std::uint64_t kKeptRecordBytes = 128 << 10;

/// Info serialization: no offset — the record frame is self-contained and
/// the index carries the payload offset beside the info block.
void serialize_info(ByteWriter& w, const VariableInfo& info) {
  w.put_string(info.name);
  w.put_varint(info.dims.size());
  for (const std::size_t d : info.dims) w.put_varint(d);
  w.put_string(info.codec);
  w.put(info.error_bound);
  w.put_varint(info.compressed_bytes);
  w.put_varint(info.sample_bytes);
  w.put_varint(info.attributes.size());
  for (const auto& [key, value] : info.attributes) {
    w.put_string(key);
    w.put_string(value);
  }
}

void validate_info(const VariableInfo& info, std::size_t nd) {
  CLIZ_REQUIRE(nd >= 1 && nd <= 8, "corrupt archive dims");
  CLIZ_REQUIRE(info.sample_bytes == 4 || info.sample_bytes == 8,
               "corrupt sample width");
}

VariableInfo deserialize_info(ByteReader& r) {
  VariableInfo info;
  info.name = r.get_string();
  const std::size_t nd = static_cast<std::size_t>(r.get_varint());
  CLIZ_REQUIRE(nd >= 1 && nd <= 8, "corrupt archive dims");
  info.dims.resize(nd);
  for (auto& d : info.dims) d = static_cast<std::size_t>(r.get_varint());
  info.codec = r.get_string();
  info.error_bound = r.get<double>();
  info.compressed_bytes = r.get_varint();
  info.sample_bytes = static_cast<std::uint32_t>(r.get_varint());
  const std::size_t nattr = static_cast<std::size_t>(r.get_varint());
  CLIZ_REQUIRE(nattr <= 4096, "implausible attribute count");
  for (std::size_t i = 0; i < nattr; ++i) {
    std::string key = r.get_string();
    info.attributes[std::move(key)] = r.get_string();
  }
  validate_info(info, nd);
  return info;
}

}  // namespace

std::string SalvageReport::to_text() const {
  std::ostringstream os;
  os << (index_intact ? "index: intact" : "index: damaged (scanned records)")
     << "\nrecovered: " << recovered.size();
  for (const auto& name : recovered) os << "\n  + " << name;
  os << "\nquarantined: " << quarantined.size();
  for (const auto& q : quarantined) {
    os << "\n  - " << (q.name.empty() ? "<unnamed>" : q.name) << " @"
       << q.offset << ": " << q.reason;
  }
  if (truncated) {
    os << "\nscan truncated at ResourceLimits::max_salvage_records";
  }
  os << "\n";
  return os.str();
}

ArchiveWriter::ArchiveWriter(const std::string& path)
    : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
  CLIZ_REQUIRE(out_.good(), "cannot open archive for writing: " + path);
  ByteWriter header;
  header.put(kMagic);
  header.put(kVersion);
  out_.write(reinterpret_cast<const char*>(header.bytes().data()),
             static_cast<std::streamsize>(header.size()));
  cursor_ = header.size();
}

ArchiveWriter::~ArchiveWriter() {
  try {
    finish();
  } catch (...) {
    // Destructors must not throw; an archive that failed to finalize is
    // detectable by its missing trailer.
  }
}

template <Sample T>
void ArchiveWriter::add_variable(const std::string& name,
                                 const NdArray<T>& data,
                                 double abs_error_bound,
                                 const PipelineConfig& pipeline,
                                 const MaskMap* mask,
                                 std::map<std::string, std::string> attributes,
                                 const ClizOptions& options) {
  const std::size_t raw_bytes = data.size() * sizeof(T);
  // set_tile is an explicit opt-in to the tile-indexed layout and applies
  // regardless of the size threshold (the point is addressability, not
  // parallelism); it only binds to variables of the matching rank.
  const bool tiled = tile_.size() == data.shape().ndims();
  if (tiled || (chunk_threshold_ != 0 && raw_bytes >= chunk_threshold_ &&
                data.shape().dim(0) >= 2)) {
    // Large variable: chunked frame, compressed slab-parallel through the
    // writer's shared pool; the reader decodes it the same way.
    ChunkedOptions opts;
    opts.scratch = &scratch_;
    opts.codec = options;
    if (tiled) {
      opts.tile = tile_;
    } else {
      opts.chunks = (raw_bytes + chunk_threshold_ - 1) / chunk_threshold_;
    }
    chunked_compress_into(data, abs_error_bound, pipeline, mask, opts,
                          stream_buf_);
  } else {
    const ClizCompressor codec(pipeline, options);
    auto lease = scratch_.pool.acquire();
    codec.compress_into(data, abs_error_bound, mask, lease.ctx(),
                        stream_buf_);
  }
  append_stream(name, data.shape(), abs_error_bound, std::move(attributes),
                stream_buf_, sizeof(T));
}

void ArchiveWriter::append_stream(
    const std::string& name, const Shape& shape, double eb,
    std::map<std::string, std::string> attributes,
    const std::vector<std::uint8_t>& stream, std::uint32_t sample_bytes) {
  CLIZ_REQUIRE(!finished_, "archive already finished");
  CLIZ_REQUIRE(!name.empty(), "variable name must not be empty");
  for (const auto& e : entries_) {
    CLIZ_REQUIRE(e.info.name != name, "duplicate variable name: " + name);
  }
  Entry entry;
  entry.info.name = name;
  entry.info.dims = shape.dims();
  entry.info.codec = "cliz";
  entry.info.error_bound = eb;
  entry.info.compressed_bytes = stream.size();
  entry.info.sample_bytes = sample_bytes;
  entry.info.attributes = std::move(attributes);
  entry.payload_crc = crc32c(stream);

  // Self-describing record frame ahead of the payload, so a tolerant
  // reader can rebuild the archive from records alone.
  ByteWriter info_block;
  serialize_info(info_block, entry.info);
  ByteWriter frame;
  frame.put(kRecordMagic);
  frame.put_block(info_block.bytes());
  frame.put(crc32c(info_block.bytes()));
  frame.put(entry.payload_crc);
  entry.offset = cursor_ + frame.size();  // payload offset

  out_.write(reinterpret_cast<const char*>(frame.bytes().data()),
             static_cast<std::streamsize>(frame.size()));
  out_.write(reinterpret_cast<const char*>(stream.data()),
             static_cast<std::streamsize>(stream.size()));
  CLIZ_REQUIRE(out_.good(), "archive write failed: " + path_);
  cursor_ += frame.size() + stream.size();
  entries_.push_back(std::move(entry));
}

void ArchiveWriter::finish() {
  if (finished_) return;
  finished_ = true;

  ByteWriter index;
  index.put_varint(entries_.size());
  for (const auto& e : entries_) {
    serialize_info(index, e.info);
    index.put_varint(e.offset);
    index.put(e.payload_crc);
  }
  index.put(crc32c(index.bytes()));  // index CRC over everything above

  const std::uint64_t index_offset = cursor_;
  out_.write(reinterpret_cast<const char*>(index.bytes().data()),
             static_cast<std::streamsize>(index.size()));

  ByteWriter trailer;
  trailer.put(index_offset);
  trailer.put(kMagic);
  out_.write(reinterpret_cast<const char*>(trailer.bytes().data()),
             static_cast<std::streamsize>(trailer.size()));
  out_.flush();
  CLIZ_REQUIRE(out_.good(), "archive finalize failed: " + path_);
  out_.close();
}

ArchiveReader::ArchiveReader(const std::string& path, ArchiveOpenMode mode,
                             const ResourceLimits& limits,
                             const CancelToken* cancel)
    : in_(path, std::ios::binary), limits_(limits), cancel_(cancel) {
  CLIZ_REQUIRE_CODE(in_.good(), kIo, "cannot open archive: " + path);
  scratch_.pool.set_governor(limits_, cancel_);
  if (cancel_ != nullptr) cancel_->check();
  if (mode == ArchiveOpenMode::kStrict) {
    open_strict();
    report_.index_intact = true;
    for (const auto& v : variables_) report_.recovered.push_back(v.name);
    return;
  }
  try {
    open_strict();
    report_.index_intact = true;
  } catch (const Error& e) {
    // Tolerance is for *damage*. A governor refusal (over-limit header),
    // cancellation, or an I/O failure is not something a record scan can
    // salvage around — honouring it matters more than recovering data.
    if (e.code() != ErrorCode::kCorruptStream) throw;
    variables_.clear();
    offsets_.clear();
    payload_crcs_.clear();
    report_.index_intact = false;
    scan_records();
  }
  verify_payloads();
  for (const auto& v : variables_) report_.recovered.push_back(v.name);
}

void ArchiveReader::open_strict() {
  in_.clear();
  in_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in_.tellg());
  CLIZ_REQUIRE(file_size >= 8 + kTrailerBytes, "archive too small");

  // Header magic and version. The checksum-less v1 layout is retired and
  // refused before the trailer or index is read, so a tolerant open does
  // not fall through to a record scan (kUnsupported is not damage).
  in_.seekg(0);
  std::uint8_t header[8];
  in_.read(reinterpret_cast<char*>(header), 8);
  ByteReader hr(header);
  CLIZ_REQUIRE(hr.get<std::uint32_t>() == kMagic,
               "not a CLZA archive (bad header)");
  const std::uint32_t version = hr.get<std::uint32_t>();
  CLIZ_REQUIRE_CODE(version != kVersionV1, kUnsupported,
                    "retired CLZA version 1 archive (no CRCs) is no longer "
                    "readable");
  CLIZ_REQUIRE(version == kVersion, "unsupported archive version");

  // Trailer: index offset + magic.
  in_.seekg(static_cast<std::streamoff>(file_size - kTrailerBytes));
  std::uint8_t trailer[kTrailerBytes];
  in_.read(reinterpret_cast<char*>(trailer), kTrailerBytes);
  ByteReader tr(trailer);
  const auto index_offset = tr.get<std::uint64_t>();
  CLIZ_REQUIRE(tr.get<std::uint32_t>() == kMagic,
               "not a CLZA archive (bad trailer)");
  CLIZ_REQUIRE(index_offset >= 8 && index_offset < file_size - kTrailerBytes,
               "corrupt index offset");

  // Index block.
  const std::size_t index_size =
      static_cast<std::size_t>(file_size - kTrailerBytes - index_offset);
  std::vector<std::uint8_t> index_bytes(index_size);
  in_.seekg(static_cast<std::streamoff>(index_offset));
  in_.read(reinterpret_cast<char*>(index_bytes.data()),
           static_cast<std::streamsize>(index_size));
  CLIZ_REQUIRE(in_.good(), "archive index read failed");

  // The index CRC is the last 4 bytes; everything before it is covered.
  CLIZ_REQUIRE(index_size >= sizeof(std::uint32_t) + 1,
               "archive index too small");
  std::uint32_t expected = 0;
  std::memcpy(&expected, index_bytes.data() + index_size - sizeof(expected),
              sizeof(expected));
  const auto index_view = std::span<const std::uint8_t>(index_bytes).first(
      index_size - sizeof(expected));
  CLIZ_REQUIRE(crc32c(index_view) == expected, "archive index CRC mismatch");

  ByteReader ir(index_view);
  const std::size_t count = static_cast<std::size_t>(ir.get_varint());
  // Every entry consumes at least one index byte, so a count beyond the
  // index size is hostile: reject before reserving anything.
  CLIZ_REQUIRE(count <= index_size, "implausible variable count");
  // Governor: the declared count sizes three parallel tables — cap it
  // before the reserves below.
  CLIZ_REQUIRE_CODE(count <= limits_.max_archive_variables, kLimitExceeded,
                    "declared variable count exceeds "
                    "ResourceLimits::max_archive_variables");
  variables_.reserve(count);
  offsets_.reserve(count);
  payload_crcs_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    variables_.push_back(deserialize_info(ir));
    const std::uint64_t offset = ir.get_varint();
    payload_crcs_.push_back(ir.get<std::uint32_t>());
    // Governor: the declared record size is what read_raw/verify_payloads
    // will allocate — cap it here so an over-limit record is refused at
    // open, long before any read touches it.
    CLIZ_REQUIRE_CODE(
        variables_.back().compressed_bytes <= limits_.max_record_bytes,
        kLimitExceeded,
        "declared record size exceeds ResourceLimits::max_record_bytes for '" +
            variables_.back().name + "'");
    // Overflow-safe containment: offset and length are both untrusted.
    CLIZ_REQUIRE(offset >= 8 && offset <= index_offset &&
                     variables_.back().compressed_bytes <=
                         index_offset - offset,
                 "variable stream overlaps index");
    offsets_.push_back(offset);
  }
}

void ArchiveReader::scan_records() {
  in_.clear();
  in_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(in_.tellg());
  std::vector<std::uint8_t> file(static_cast<std::size_t>(file_size));
  in_.seekg(0);
  in_.read(reinterpret_cast<char*>(file.data()),
           static_cast<std::streamsize>(file.size()));
  CLIZ_REQUIRE(in_.good(), "archive read failed during salvage");

  std::uint8_t magic_bytes[sizeof(kRecordMagic)];
  std::memcpy(magic_bytes, &kRecordMagic, sizeof(kRecordMagic));

  const auto quarantine = [&](std::string name, std::uint64_t offset,
                              std::string reason) {
    if (report_.quarantined.size() < kMaxQuarantined) {
      report_.quarantined.push_back(
          {std::move(name), offset, std::move(reason)});
    }
  };

  std::size_t pos = 0;
  while (pos + sizeof(kRecordMagic) <= file.size()) {
    if (cancel_ != nullptr) cancel_->check();
    // Governor: a hostile file stuffed with valid-looking records must not
    // grow the recovered set without bound. Salvage keeps the verified
    // prefix rather than aborting the whole tolerant open — the cap is a
    // bound on recovery, not a reason to recover nothing — and the report
    // records that the scan stopped early.
    if (variables_.size() >= limits_.max_salvage_records) {
      report_.truncated = true;
      break;
    }
    const auto it = std::search(file.begin() + pos, file.end(),
                                std::begin(magic_bytes),
                                std::end(magic_bytes));
    if (it == file.end()) break;
    const std::size_t site = static_cast<std::size_t>(it - file.begin());
    std::string name;
    try {
      ByteReader r(std::span<const std::uint8_t>(file).subspan(
          site + sizeof(kRecordMagic)));
      const auto info_block = r.get_block();
      const auto info_crc = r.get<std::uint32_t>();
      const auto payload_crc = r.get<std::uint32_t>();
      CLIZ_REQUIRE(crc32c(info_block) == info_crc,
                   "record header CRC mismatch");
      ByteReader info_reader(info_block);
      VariableInfo info = deserialize_info(info_reader);
      name = info.name;
      CLIZ_REQUIRE_CODE(
          info.compressed_bytes <= limits_.max_record_bytes, kLimitExceeded,
          "declared record size exceeds ResourceLimits::max_record_bytes");
      const std::size_t payload_at = site + sizeof(kRecordMagic) + r.pos();
      CLIZ_REQUIRE(info.compressed_bytes <= file.size() - payload_at,
                   "record payload truncated");
      const auto payload = std::span<const std::uint8_t>(file).subspan(
          payload_at, static_cast<std::size_t>(info.compressed_bytes));
      CLIZ_REQUIRE(crc32c(payload) == payload_crc,
                   "record payload CRC mismatch");
      if (contains(info.name)) {
        quarantine(info.name, site, "duplicate record name");
        pos = site + sizeof(kRecordMagic);
        continue;
      }
      variables_.push_back(std::move(info));
      offsets_.push_back(payload_at);
      payload_crcs_.push_back(payload_crc);
      pos = payload_at + payload.size();  // skip the verified payload
    } catch (const Error& e) {
      quarantine(std::move(name), site, e.what());
      pos = site + 1;
    }
  }
}

void ArchiveReader::verify_payloads() {
  // Eager CRC sweep so a tolerant open's `recovered` list is a promise:
  // every name in it reads back bit-exact framing.
  for (std::size_t i = variables_.size(); i-- > 0;) {
    if (cancel_ != nullptr) cancel_->check();
    CLIZ_REQUIRE_CODE(
        variables_[i].compressed_bytes <= limits_.max_record_bytes,
        kLimitExceeded,
        "declared record size exceeds ResourceLimits::max_record_bytes for '" +
            variables_[i].name + "'");
    std::vector<std::uint8_t> payload(
        static_cast<std::size_t>(variables_[i].compressed_bytes));
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(offsets_[i]));
    in_.read(reinterpret_cast<char*>(payload.data()),
             static_cast<std::streamsize>(payload.size()));
    if (in_.good() && crc32c(payload) == payload_crcs_[i]) continue;
    if (report_.quarantined.size() < kMaxQuarantined) {
      report_.quarantined.push_back({variables_[i].name, offsets_[i],
                                     "record payload CRC mismatch"});
    }
    variables_.erase(variables_.begin() + static_cast<std::ptrdiff_t>(i));
    offsets_.erase(offsets_.begin() + static_cast<std::ptrdiff_t>(i));
    payload_crcs_.erase(payload_crcs_.begin() +
                        static_cast<std::ptrdiff_t>(i));
  }
}

bool ArchiveReader::contains(const std::string& name) const {
  return std::any_of(variables_.begin(), variables_.end(),
                     [&](const VariableInfo& v) { return v.name == name; });
}

std::size_t ArchiveReader::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < variables_.size(); ++i) {
    if (variables_[i].name == name) return i;
  }
  throw Error(ErrorCode::kBadArgument,
              "cliz: archive has no variable '" + name + "'");
}

const VariableInfo& ArchiveReader::info(const std::string& name) const {
  return variables_[index_of(name)];
}

std::vector<std::uint8_t> ArchiveReader::read_raw(
    const std::string& name) const {
  std::vector<std::uint8_t> stream;
  read_record_into(index_of(name), stream);
  return stream;
}

void ArchiveReader::read_record_into(std::size_t i,
                                     std::vector<std::uint8_t>& stream) const {
  const VariableInfo& v = variables_[i];
  if (cancel_ != nullptr) cancel_->check();
  CLIZ_REQUIRE_CODE(
      v.compressed_bytes <= limits_.max_record_bytes, kLimitExceeded,
      "declared record size exceeds ResourceLimits::max_record_bytes for '" +
          v.name + "'");
  stream.resize(static_cast<std::size_t>(v.compressed_bytes));
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(offsets_[i]));
  in_.read(reinterpret_cast<char*>(stream.data()),
           static_cast<std::streamsize>(stream.size()));
  CLIZ_REQUIRE(in_.good(), "archive stream read failed");
  CLIZ_REQUIRE(crc32c(stream) == payload_crcs_[i],
               "archive payload CRC mismatch for '" + v.name + "'");
}

std::size_t ArchiveReader::decodable_index(const std::string& name,
                                           std::size_t sample_bytes) const {
  const std::size_t i = index_of(name);
  const VariableInfo& v = variables_[i];
  CLIZ_REQUIRE_CODE(v.codec == "cliz", kUnsupported,
                    "archive variable '" + name + "' uses codec '" + v.codec +
                        "'; only cliz records decode");
  CLIZ_REQUIRE_CODE(v.sample_bytes == sample_bytes, kBadArgument,
                    "archive variable '" + name + "' holds float" +
                        std::to_string(8 * v.sample_bytes) +
                        " samples, not float" +
                        std::to_string(8 * sample_bytes));
  return i;
}

template <Sample T>
NdArray<T> ArchiveReader::decode_record(std::size_t i) const {
  const VariableInfo& v = variables_[i];
  // A small record reuses the reader's buffer, since its allocation is a
  // fixed cost of every read. A large one gets a fresh buffer that dies
  // with the read: keeping a 1.4 MB record alive between reads moved
  // glibc's mmap threshold and raised tiled_windows' peak RSS 45 -> 53 MB.
  std::vector<std::uint8_t> fresh;
  std::vector<std::uint8_t>& stream =
      v.compressed_bytes <= kKeptRecordBytes ? record_ : fresh;
  read_record_into(i, stream);
  // Decode through the reader's warm scratch, whose pool carries this
  // reader's governor to the chunked path and to a single stream's context.
  NdArray<T> data;
  if (is_chunked_stream(stream)) {
    data = chunked_decompress<T>(stream, &scratch_);
  } else {
    const ContextPool::Lease lease = scratch_.pool.acquire();
    data = ClizCompressor::decompress<T>(stream, *lease);
  }
  CLIZ_REQUIRE(data.shape().dims() == v.dims,
               "decoded shape disagrees with archive index");
  return data;
}

template <Sample T>
NdArray<T> ArchiveReader::read(const std::string& name) const {
  return decode_record<T>(decodable_index(name, sizeof(T)));
}

const ChunkedReader* ArchiveReader::region_view(std::size_t i) const {
  if (views_.empty()) views_.resize(variables_.size());
  if (views_[i]) return views_[i]->get();
  const VariableInfo& v = variables_[i];
  const std::uint64_t base = offsets_[i];
  const std::uint64_t frame_bytes = v.compressed_bytes;

  // Serves byte ranges of this record to the parallel tile-decode workers
  // for as long as the view lives; the shared ifstream makes seek+read one
  // critical section.
  const auto fetch = [this, base, name = v.name](std::uint64_t off,
                                                 std::uint64_t n,
                                                 std::uint8_t* dst) {
    const std::lock_guard<std::mutex> lock(io_mu_);
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(base + off));
    in_.read(reinterpret_cast<char*>(dst), static_cast<std::streamsize>(n));
    CLIZ_REQUIRE_CODE(in_.good(), kIo,
                      "archive region read failed for '" + name + "'");
  };

  // Sniff the stream kind from the magic alone; single-stream variables
  // have no tile index and fall back to full decode + crop.
  std::vector<std::uint8_t> header(
      static_cast<std::size_t>(std::min<std::uint64_t>(frame_bytes, 4)));
  if (!header.empty()) fetch(0, header.size(), header.data());
  std::unique_ptr<ChunkedReader> view;
  if (is_chunked_stream(header)) {
    // Chunked frame: parse the index from a bounded header prefix, growing
    // it only when the parser reports truncation (kCorruptStream) — never
    // past the record itself, so genuinely corrupt indexes still surface.
    // The index settles within a few KiB per thousand tiles.
    // The file-backed reader reads `header` only while constructing, so the
    // prefix is dropped once the index has validated.
    std::size_t prefix = static_cast<std::size_t>(
        std::min<std::uint64_t>(frame_bytes, std::uint64_t{64} << 10));
    for (;;) {
      header.resize(prefix);
      fetch(0, prefix, header.data());
      try {
        view = std::make_unique<ChunkedReader>(
            std::span<const std::uint8_t>(header), frame_bytes, fetch, limits_,
            cancel_);
        break;
      } catch (const Error& e) {
        if (e.code() != ErrorCode::kCorruptStream || prefix >= frame_bytes) {
          throw;
        }
        prefix = static_cast<std::size_t>(
            std::min<std::uint64_t>(frame_bytes, std::uint64_t{prefix} * 4));
      }
    }
    CLIZ_REQUIRE(view->shape().dims() == v.dims,
                 "chunked frame shape disagrees with archive index");
  }
  return views_[i].emplace(std::move(view)).get();
}

template <Sample T>
NdArray<T> ArchiveReader::read_region(const std::string& name,
                                      std::span<const std::size_t> origin,
                                      std::span<const std::size_t> extent,
                                      TileCache* cache,
                                      RegionStats* stats) const {
  const std::size_t i = decodable_index(name, sizeof(T));
  const VariableInfo& v = variables_[i];
  if (cancel_ != nullptr) cancel_->check();
  const std::size_t nd = v.dims.size();
  CLIZ_REQUIRE_CODE(origin.size() == nd && extent.size() == nd, kBadArgument,
                    "region arity does not match variable dimensionality");
  // Governor: the window sizes the output array allocated below, so its
  // budget is checked here rather than only inside the tile decode.
  std::uint64_t window = 1;
  bool within = true;
  for (std::size_t d = 0; d < nd; ++d) {
    CLIZ_REQUIRE_CODE(extent[d] >= 1 && origin[d] <= v.dims[d] &&
                          extent[d] <= v.dims[d] - origin[d],
                      kBadArgument, "region out of bounds");
    within = within && detail::checked_mul_within(
                           window, extent[d],
                           limits_.max_output_bytes / sizeof(T));
  }
  CLIZ_REQUIRE_CODE(within, kLimitExceeded,
                    "region window exceeds ResourceLimits::max_output_bytes");
  CLIZ_REQUIRE_CODE(
      v.compressed_bytes <= limits_.max_record_bytes, kLimitExceeded,
      "declared record size exceeds ResourceLimits::max_record_bytes for '" +
          name + "'");

  const ChunkedReader* view = region_view(i);
  NdArray<T> out{Shape(DimVec(extent.begin(), extent.end()))};
  if (view == nullptr) {
    NdArray<T> full = decode_record<T>(i);
    DimVec zeros(nd, 0);
    DimVec hi(nd);
    for (std::size_t d = 0; d < nd; ++d) hi[d] = origin[d] + extent[d];
    detail::copy_tile_box(reinterpret_cast<std::uint8_t*>(full.data()), zeros,
                          v.dims, reinterpret_cast<std::uint8_t*>(out.data()),
                          origin, extent, origin, hi, sizeof(T),
                          /*gather=*/false);
    if (stats != nullptr) {
      *stats = RegionStats{};
      stats->tiles_total = 1;
      stats->tiles_intersecting = 1;
      stats->tiles_decoded = 1;
      stats->compressed_bytes_touched = v.compressed_bytes;
      stats->frame_compressed_bytes = v.compressed_bytes;
    }
    return out;
  }

  RegionOptions ropts;
  ropts.cache = cache;
  ropts.scratch = &scratch_;
  const RegionStats rs = view->decompress_region(
      origin, extent, std::span<T>(out.data(), out.size()), ropts);
  if (stats != nullptr) *stats = rs;
  return out;
}

#define CLIZ_INSTANTIATE(T)                                                  \
  template void ArchiveWriter::add_variable<T>(                              \
      const std::string&, const NdArray<T>&, double, const PipelineConfig&,  \
      const MaskMap*, std::map<std::string, std::string>,                    \
      const ClizOptions&);                                                   \
  template NdArray<T> ArchiveReader::read<T>(const std::string&) const;      \
  template NdArray<T> ArchiveReader::read_region<T>(                         \
      const std::string&, std::span<const std::size_t>,                      \
      std::span<const std::size_t>, TileCache*, RegionStats*) const;
CLIZ_INSTANTIATE(float)
CLIZ_INSTANTIATE(double)
#undef CLIZ_INSTANTIATE

}  // namespace cliz
