#pragma once

// Hand-assembled CLZA archives whose records may name any codec, in the
// current v2 layout or the retired checksum-less v1 one. The library's
// ArchiveWriter writes v2 CliZ records only, so this is how tests build the
// archives older releases could produce (baseline-codec records beside
// CliZ ones, v1 files) and check that readers refuse them cleanly. The
// layouts mirror docs/FORMAT.md; test-only, lives beside the tests.

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "src/common/bytestream.hpp"
#include "src/common/crc32c.hpp"
#include "src/ndarray/shape.hpp"

namespace cliz::test {

struct ArchiveRecord {
  std::string name;
  std::string codec;  ///< written verbatim into the record and the index
  DimVec dims;
  std::vector<std::uint8_t> payload;
  double error_bound = 1e-3;
  std::uint32_t sample_bytes = 4;
};

inline void write_archive(const std::string& path,
                          const std::vector<ArchiveRecord>& records) {
  constexpr std::uint32_t kMagic = 0x434C5A41u;        // "CLZA"
  constexpr std::uint32_t kRecordMagic = 0x434C5A56u;  // "CLZV"
  ByteWriter file;
  file.put(kMagic);
  file.put(std::uint32_t{2});
  ByteWriter index;
  index.put_varint(records.size());
  for (const ArchiveRecord& r : records) {
    ByteWriter info;
    info.put_string(r.name);
    info.put_varint(r.dims.size());
    for (const std::size_t d : r.dims) info.put_varint(d);
    info.put_string(r.codec);
    info.put(r.error_bound);
    info.put_varint(r.payload.size());
    info.put_varint(r.sample_bytes);
    info.put_varint(0);  // no attributes
    const std::uint32_t payload_crc = crc32c(r.payload);
    file.put(kRecordMagic);
    file.put_block(info.bytes());
    file.put(crc32c(info.bytes()));
    file.put(payload_crc);
    index.put_bytes(info.bytes());
    index.put_varint(file.size());  // payload offset
    index.put(payload_crc);
    file.put_bytes(r.payload);
  }
  index.put(crc32c(index.bytes()));
  const std::uint64_t index_offset = file.size();
  file.put_bytes(index.bytes());
  file.put(index_offset);
  file.put(kMagic);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(file.bytes().data()),
            static_cast<std::streamsize>(file.size()));
}

/// Writes `records` in the retired v1 layout: unframed payloads, a plain
/// index with the payload offset after the compressed size, no checksums.
inline void write_v1_archive(const std::string& path,
                             const std::vector<ArchiveRecord>& records) {
  constexpr std::uint32_t kMagic = 0x434C5A41u;  // "CLZA"
  ByteWriter file;
  file.put(kMagic);
  file.put(std::uint32_t{1});
  ByteWriter index;
  index.put_varint(records.size());
  for (const ArchiveRecord& r : records) {
    index.put_string(r.name);
    index.put_varint(r.dims.size());
    for (const std::size_t d : r.dims) index.put_varint(d);
    index.put_string(r.codec);
    index.put(r.error_bound);
    index.put_varint(r.payload.size());
    index.put_varint(file.size());  // payload offset
    index.put_varint(r.sample_bytes);
    index.put_varint(0);  // no attributes
    file.put_bytes(r.payload);
  }
  const std::uint64_t index_offset = file.size();
  file.put_bytes(index.bytes());
  file.put(index_offset);
  file.put(kMagic);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(file.bytes().data()),
            static_cast<std::streamsize>(file.size()));
}

}  // namespace cliz::test
