#pragma once

// Shared helpers for the paper-reproduction benchmark binaries: fixed-width
// table printing, timed codec invocation, and bisection on the error bound
// to hit a target PSNR or compression ratio (the paper's iso-quality /
// iso-ratio comparisons).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/climate/datasets.hpp"
#include "src/common/timer.hpp"
#include "src/baselines/compressor.hpp"
#include "src/metrics/metrics.hpp"

namespace cliz::bench {

/// One timed compress/decompress run with quality metrics.
struct RunResult {
  std::size_t original_bytes = 0;
  std::size_t compressed_bytes = 0;
  double compress_seconds = 0.0;
  double decompress_seconds = 0.0;
  double psnr = 0.0;
  double ssim = 0.0;
  double max_abs_error = 0.0;
  /// Per-stage breakdown of the compression, when the codec reports one
  /// (CliZ's staged pipeline does; the baselines do not).
  StageStats stage_stats;
  bool has_stage_stats = false;

  [[nodiscard]] double ratio() const {
    return compression_ratio(original_bytes, compressed_bytes);
  }
  [[nodiscard]] double bitrate() const {
    return bit_rate(original_bytes / sizeof(float), compressed_bytes);
  }
};

/// Runs one compressor on one field at an absolute bound, with metrics
/// restricted to valid points.
inline RunResult run_codec(Compressor& comp, const ClimateField& field,
                           double abs_eb, bool with_ssim = true) {
  RunResult r;
  r.original_bytes = field.data.size() * sizeof(float);
  Timer tc;
  const auto stream = comp.compress(field.data, abs_eb);
  r.compress_seconds = tc.seconds();
  r.compressed_bytes = stream.size();
  if (const StageStats* s = comp.stage_stats(); s != nullptr) {
    r.stage_stats = *s;
    r.has_stage_stats = true;
  }
  Timer td;
  const auto recon = comp.decompress(stream);
  r.decompress_seconds = td.seconds();
  const auto stats =
      error_stats(field.data.flat(), recon.flat(), field.mask_ptr());
  r.psnr = stats.psnr;
  r.max_abs_error = stats.max_abs_error;
  if (with_ssim) {
    r.ssim = mean_ssim(field.data, recon, field.mask_ptr());
  }
  return r;
}

/// Appends one JSON line ({bench, label, metrics, optional stage stats}) to
/// the file named by the CLIZ_BENCH_JSON environment variable. No-op when
/// the variable is unset, so benches can always call it unconditionally.
inline void record_json(const std::string& bench, const std::string& label,
                        const RunResult& r) {
  const char* path = std::getenv("CLIZ_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::ofstream out(path, std::ios::app);
  if (!out.good()) return;
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"bench\":\"%s\",\"label\":\"%s\",\"original_bytes\":%zu,"
                "\"compressed_bytes\":%zu,\"ratio\":%.4f,"
                "\"compress_seconds\":%.6f,\"decompress_seconds\":%.6f,"
                "\"psnr\":%.4f,\"max_abs_error\":%.6g",
                bench.c_str(), label.c_str(), r.original_bytes,
                r.compressed_bytes, r.ratio(), r.compress_seconds,
                r.decompress_seconds, r.psnr, r.max_abs_error);
  out << buf;
  if (r.has_stage_stats) {
    out << ",\"stage_stats\":" << r.stage_stats.to_json();
  }
  out << "}\n";
}

/// Bisects the relative error bound until metric(result) lands within
/// `tolerance` (relative) of `target`. `increasing` says whether the metric
/// grows with the bound (compression ratio: yes; PSNR: no).
inline RunResult bisect_to_target(
    const std::function<RunResult(double)>& run, double target,
    const std::function<double(const RunResult&)>& metric, bool increasing,
    double lo = 1e-7, double hi = 0.3, int max_iter = 18,
    double tolerance = 0.03) {
  RunResult best{};
  double best_gap = 1e300;
  for (int i = 0; i < max_iter; ++i) {
    const double mid = std::sqrt(lo * hi);  // geometric bisection
    const RunResult r = run(mid);
    const double m = metric(r);
    const double gap = std::abs(m - target) / target;
    if (gap < best_gap) {
      best_gap = gap;
      best = r;
    }
    if (gap <= tolerance) break;
    const bool too_low = m < target;
    if (too_low == increasing) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return best;
}

/// Minimal fixed-width table printer (markdown-flavoured).
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void print() const {
    std::vector<std::size_t> width(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      width[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (std::size_t c = 0; c < row.size() && c < width.size(); ++c) {
        width[c] = std::max(width[c], row[c].size());
      }
    }
    const auto print_row = [&](const std::vector<std::string>& cells) {
      std::printf("|");
      for (std::size_t c = 0; c < headers_.size(); ++c) {
        const std::string& v = c < cells.size() ? cells[c] : std::string();
        std::printf(" %-*s |", static_cast<int>(width[c]), v.c_str());
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      std::printf("%s|", std::string(width[c] + 2, '-').c_str());
    }
    std::printf("\n");
    for (const auto& row : rows_) print_row(row);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, int precision = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

/// Signed percentage, e.g. "+4.39%" / "-0.34%".
inline std::string fmt_pct(double v, int precision = 2) {
  std::string out = v >= 0.0 ? "+" : "";
  out += fmt(v, precision);
  out += "%";
  return out;
}

inline std::string fmt_sci(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1e", v);
  return buf;
}

}  // namespace cliz::bench
