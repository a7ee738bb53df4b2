// Beyond the paper: float64 compression. Climate archives frequently store
// double precision; this bench compares f32 vs f64 streams of the same
// field at matching relative bounds, and shows f64-only bounds (below
// float32 resolution) staying error-bounded.
#include <cstdio>

#include "bench/bench_util.hpp"
#include "src/core/autotune.hpp"
#include "src/baselines/compressor.hpp"

namespace cliz {
namespace {

void run() {
  std::printf("== float64 support: f32 vs f64 streams (SSH, CliZ) ==\n");
  const auto field = make_ssh(0.15);
  NdArray<double> data64(field.data.shape());
  for (std::size_t i = 0; i < field.data.size(); ++i) {
    data64[i] = static_cast<double>(field.data[i]);
  }

  AutotuneOptions opts;
  opts.time_dim = field.time_dim;
  opts.sampling_rate = 0.01;
  const double range_eb =
      abs_bound_from_relative(field.data.flat(), 1.0, field.mask_ptr());
  const auto tuned =
      autotune(field.data, range_eb * 1e-3, field.mask_ptr(), opts);
  const ClizCompressor codec(tuned.best);

  bench::Table t({"Rel. bound", "f32 bytes", "f32 CR", "f64 bytes", "f64 CR",
                  "f64/f32 size"});
  for (const double rel : {1e-2, 1e-3, 1e-4, 1e-6, 1e-9}) {
    const double eb = range_eb * rel;
    std::size_t s32 = 0;
    if (rel >= 1e-6) {  // below float32 resolution the f32 path cannot go
      s32 = codec.compress(field.data, eb, field.mask_ptr()).size();
    }
    const auto stream64 = codec.compress(data64, eb, field.mask_ptr());
    const auto recon = ClizCompressor::decompress<double>(stream64);
    double max_err = 0.0;
    for (std::size_t i = 0; i < data64.size(); ++i) {
      if (!field.mask->valid(i)) continue;
      max_err = std::max(max_err, std::abs(recon[i] - data64[i]));
    }
    const bool ok = max_err <= eb;
    t.add_row({bench::fmt_sci(rel),
               s32 > 0 ? std::to_string(s32) : "n/a (sub-f32)",
               s32 > 0 ? bench::fmt(
                             compression_ratio(field.data.size() * 4, s32), 1)
                       : "-",
               std::to_string(stream64.size()) + (ok ? "" : " VIOLATED"),
               bench::fmt(
                   compression_ratio(data64.size() * 8, stream64.size()), 1),
               s32 > 0 ? bench::fmt(static_cast<double>(stream64.size()) /
                                        static_cast<double>(s32),
                                    2) + "x"
                       : "-"});
  }
  t.print();
  std::printf("\n(f64 streams carry the extra significand bits only where\n"
              " the bound demands them; at loose bounds the two stream sizes\n"
              " converge, and sub-float32 bounds remain strictly honoured)\n");
}

}  // namespace
}  // namespace cliz

int main() {
  cliz::run();
  return 0;
}
