#pragma once

// Host record of the google-benchmark binaries: SIMD tier, compiler and
// build type land in the report's "context" (google-benchmark adds
// num_cpus itself), where tools/bench_compare.py --write-baseline reads
// them.

#include <benchmark/benchmark.h>

#include "src/common/cpu_features.hpp"

namespace cliz::bench {

inline void add_host_context() {
  benchmark::AddCustomContext("simd_tier", simd_tier_name(active_simd_tier()));
#if defined(__clang__)
  benchmark::AddCustomContext("compiler", "clang " __clang_version__);
#elif defined(__GNUC__)
  benchmark::AddCustomContext("compiler", "gcc " __VERSION__);
#endif
  benchmark::AddCustomContext("build_type", CLIZ_BENCH_BUILD_TYPE);
}

}  // namespace cliz::bench
