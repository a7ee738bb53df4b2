// libFuzzer target over ArchiveReader: each input becomes an on-disk
// archive candidate opened strictly and tolerantly, with every variable
// the tolerant pass claims to have recovered read back at the sample width
// its index entry records. cliz::Error is the only acceptable failure;
// tight reader limits keep hostile declarations from stalling the fuzzer
// in the allocator.
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <unistd.h>

#include "src/common/status.hpp"
#include "src/io/archive.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  // One scratch file per process; libFuzzer runs inputs sequentially.
  static const std::string path = [] {
    return "/tmp/cliz_fuzz_archive_" + std::to_string(::getpid()) + ".clza";
  }();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data),
              static_cast<std::streamsize>(size));
  }
  cliz::ResourceLimits limits;
  limits.max_output_bytes = std::uint64_t{1} << 26;
  limits.max_extents = std::uint64_t{1} << 24;
  limits.max_archive_variables = 1u << 10;
  limits.max_salvage_records = 1u << 10;
  limits.max_record_bytes = std::uint64_t{1} << 26;
  try {
    cliz::ArchiveReader strict(path, cliz::ArchiveOpenMode::kStrict, limits);
    for (const auto& v : strict.variables()) {
      cliz::with_sample_type(v.sample_bytes, [&]<typename T>() {
        (void)strict.read<T>(v.name);
      });
    }
  } catch (const cliz::Error&) {
  }
  try {
    cliz::ArchiveReader tolerant(path, cliz::ArchiveOpenMode::kTolerant,
                                 limits);
    for (const auto& name : tolerant.salvage().recovered) {
      cliz::with_sample_type(tolerant.info(name).sample_bytes,
                             [&]<typename T>() {
                               (void)tolerant.read<T>(name);
                             });
    }
  } catch (const cliz::Error&) {
  }
  return 0;
}
