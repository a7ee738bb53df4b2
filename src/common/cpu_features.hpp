#pragma once

// Runtime ISA detection shared by every SIMD-dispatched kernel in the
// library (CRC32C, the predict/quantize gather kernels, the periodic
// template accumulators). Detection runs once per process; the active tier
// can only be lowered from the detected one — via the CLIZ_SIMD environment
// variable (scalar|sse42|avx2, read once at first use) or programmatically
// by set_active_simd_tier (tests force tiers in-process with it). Every
// kernel family produces identical results at every tier, so the tier is a
// pure speed knob and streams stay portable across machines.

#include <cstdint>

namespace cliz {

/// ISA tiers the dispatched kernels are compiled for, in ascending order —
/// comparisons ("tier >= kSse42") are meaningful.
enum class SimdTier : std::uint8_t {
  kScalar = 0,  ///< portable C++ (the reference implementation)
  kSse42 = 1,   ///< hardware CRC32C; predict/periodic kernels stay scalar
  kAvx2 = 2,    ///< AVX2: 4-wide f64 lanes + vector gathers (+ CRC32C)
};
inline constexpr std::size_t kNumSimdTiers = 3;

/// Lower-case tier name ("scalar", "sse42", "avx2") — the same spelling
/// CLIZ_SIMD accepts and StageStats/--version report.
const char* simd_tier_name(SimdTier tier);

/// Parses a tier name; returns false (leaving `out` untouched) for unknown
/// spellings.
bool parse_simd_tier(const char* name, SimdTier& out);

/// Best tier this CPU supports (one-time CPUID probe; kScalar off x86).
SimdTier detected_simd_tier();

/// Tier the dispatched kernels currently run at: detection clamped by the
/// CLIZ_SIMD override and any set_active_simd_tier call. A relaxed atomic
/// load — cheap enough for per-line dispatch.
SimdTier active_simd_tier();

/// Forces the active tier (clamped to the detected one, so requesting an
/// unsupported tier can never select illegal instructions). Used by the
/// kernel-equivalence tests and the tier-sweep benchmarks; production code
/// should rely on detection + CLIZ_SIMD.
void set_active_simd_tier(SimdTier tier);

}  // namespace cliz
