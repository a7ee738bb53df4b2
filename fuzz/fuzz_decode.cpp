// libFuzzer target over the decode surface: every input is thrown at the
// stream dispatcher (plain CliZ and chunked frames, both sample widths).
// The only acceptable outcomes are a decoded array or a cliz::Error —
// crashes, sanitizer reports, and unbounded allocations are findings. The
// resource governor runs with tight budgets so the fuzzer spends its time
// in parser logic rather than waiting on the allocator.
#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/status.hpp"
#include "src/core/chunked.hpp"
#include "src/core/chunked_reader.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::span<const std::uint8_t> stream(data, size);
  cliz::ResourceLimits limits;
  limits.max_output_bytes = std::uint64_t{1} << 26;  // 64 MiB
  limits.max_extents = std::uint64_t{1} << 24;
  limits.max_chunks = 1u << 12;
  limits.max_frame_segments = 1u << 14;
  limits.max_side_block_bytes = std::uint64_t{1} << 24;
  try {
    // Probe the sample width the stream records, then decode at that width.
    const bool chunked = cliz::is_chunked_stream(stream);
    const unsigned width =
        chunked ? cliz::ChunkedReader(stream, limits).sample_bytes()
                : cliz::detect_sample_bytes(stream, limits);
    cliz::with_sample_type(width, [&]<typename T>() {
      if (chunked) {
        cliz::ChunkedScratch scratch;
        scratch.pool.set_governor(limits, nullptr);
        (void)cliz::chunked_decompress<T>(stream, &scratch);
      } else {
        cliz::CodecContext ctx;
        ctx.limits = limits;
        (void)cliz::ClizCompressor::decompress<T>(stream, ctx);
      }
    });
  } catch (const cliz::Error&) {
    // Clean rejection: the contract for hostile bytes.
  }
  return 0;
}
