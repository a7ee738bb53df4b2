#pragma once

// CRC32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78): the
// checksum threaded through every v2 frame in the library (lossless
// container payloads, chunked slab headers, CLZA variable records and index
// blocks). Chosen over CRC32/Adler because the Castagnoli polynomial has
// hardware support (SSE4.2 crc32 instruction) and better error-detection
// properties at the block sizes we frame.
//
// Two kernels share one entry point:
//  - a portable slice-by-8 software path (tables built once, thread-safe),
//  - an SSE4.2 path selected by a one-time runtime CPU check on x86-64.
// Both produce identical digests; streams are portable across machines.

#include <cstddef>
#include <cstdint>
#include <span>

#include "src/common/cpu_features.hpp"

#if defined(__x86_64__) || defined(__i386__)
#include <nmmintrin.h>
#define CLIZ_CRC32C_HW_X86 1
#endif

namespace cliz {

namespace detail_crc32c {

/// Slice-by-8 lookup tables: table[0] is the classic byte-at-a-time table,
/// table[k] advances a byte through k additional zero bytes.
struct Tables {
  std::uint32_t t[8][256];

  constexpr Tables() : t{} {
    constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = i;
      for (int b = 0; b < 8; ++b) {
        crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
      }
      t[0][i] = crc;
    }
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t crc = t[0][i];
      for (int k = 1; k < 8; ++k) {
        crc = t[0][crc & 0xFFu] ^ (crc >> 8);
        t[k][i] = crc;
      }
    }
  }
};

inline constexpr Tables kTables{};

inline std::uint32_t update_sw(std::uint32_t crc, const std::uint8_t* p,
                               std::size_t n) {
  const auto& t = kTables.t;
  while (n >= 8) {
    std::uint32_t lo;
    std::uint32_t hi;
    __builtin_memcpy(&lo, p, 4);
    __builtin_memcpy(&hi, p + 4, 4);
    lo ^= crc;
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = t[0][(crc ^ *p++) & 0xFFu] ^ (crc >> 8);
  }
  return crc;
}

#ifdef CLIZ_CRC32C_HW_X86
__attribute__((target("sse4.2"))) inline std::uint32_t update_hw(
    std::uint32_t crc, const std::uint8_t* p, std::size_t n) {
#if defined(__x86_64__)
  std::uint64_t c = crc;
  while (n >= 8) {
    std::uint64_t v;
    __builtin_memcpy(&v, p, 8);
    c = _mm_crc32_u64(c, v);
    p += 8;
    n -= 8;
  }
  crc = static_cast<std::uint32_t>(c);
#endif
  while (n >= 4) {
    std::uint32_t v;
    __builtin_memcpy(&v, p, 4);
    crc = _mm_crc32_u32(crc, v);
    p += 4;
    n -= 4;
  }
  while (n-- > 0) crc = _mm_crc32_u8(crc, *p++);
  return crc;
}

/// Hardware path gate: the shared cpu_features tier, so CLIZ_SIMD=scalar
/// also exercises the software CRC (the forced-scalar CI job covers the
/// non-x86 behavior end to end).
inline bool hw_available() {
  return active_simd_tier() >= SimdTier::kSse42;
}
#endif  // CLIZ_CRC32C_HW_X86

}  // namespace detail_crc32c

/// CRC32C digest of `data` (standard init/finalize: ~0 in, ~ out — matches
/// RFC 3720 / iSCSI test vectors).
[[nodiscard]] inline std::uint32_t crc32c(std::span<const std::uint8_t> data) {
  std::uint32_t state = ~0u;
#ifdef CLIZ_CRC32C_HW_X86
  if (detail_crc32c::hw_available()) {
    state = detail_crc32c::update_hw(state, data.data(), data.size());
  } else {
    state = detail_crc32c::update_sw(state, data.data(), data.size());
  }
#else
  state = detail_crc32c::update_sw(state, data.data(), data.size());
#endif
  return ~state;
}

}  // namespace cliz
