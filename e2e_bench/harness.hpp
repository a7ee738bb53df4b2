#pragma once

// Measurement plumbing for the end-to-end benchmark: wall clock, in-memory
// trace spans around library calls, getrusage deltas, honest percentiles,
// the output-correctness checks and the host stamp. Nothing here reaches
// into the library's internals; every number is taken from outside its
// public API.

#include <sys/resource.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/climate/datasets.hpp"
#include "src/common/cpu_features.hpp"
#include "src/core/mask.hpp"

namespace e2e {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One interval recorded around a call into a library layer. `tag` marks a
/// workload-specific property of the call (1 = the variable is stored as a
/// chunked frame).
struct Span {
  const char* name;
  double t0;
  double t1;
  int tag;
};

/// In-memory span recorder. While disabled, begin/end cost one branch, so
/// untraced passes time the bare calls.
class Tracer {
 public:
  void set_enabled(bool on) { enabled_ = on; }

  int begin(const char* name, int tag = 0) {
    if (!enabled_) return -1;
    spans_.push_back({name, now_s(), 0.0, tag});
    return static_cast<int>(spans_.size()) - 1;
  }

  void end(int id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].t1 = now_s();
  }

  /// Summed duration (seconds) of the spans called `name`; `tag` >= 0
  /// restricts the sum to spans carrying that tag.
  [[nodiscard]] double total(std::string_view name, int tag = -1) const {
    double s = 0.0;
    for (const auto& sp : spans_) {
      if (name == sp.name && (tag < 0 || sp.tag == tag)) s += sp.t1 - sp.t0;
    }
    return s;
  }

  [[nodiscard]] std::size_t count(std::string_view name, int tag = -1) const {
    std::size_t n = 0;
    for (const auto& sp : spans_) {
      if (name == sp.name && (tag < 0 || sp.tag == tag)) ++n;
    }
    return n;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tr, const char* name, int tag = 0)
      : tr_(tr), id_(tr.begin(name, tag)) {}
  ~ScopedSpan() { tr_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tr_;
  int id_;
};

struct Usage {
  double cpu_s = 0.0;
  long minflt = 0;
};

inline Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return {secs(ru.ru_utime) + secs(ru.ru_stime), ru.ru_minflt};
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;  // KiB -> MB
}

/// Nearest-rank percentile of `samples` (p in (0, 1]) and how many samples
/// lie strictly above its rank. A percentile is only meaningful when at
/// least ten samples lie above it; callers check `above`.
struct Percentile {
  double value = 0.0;
  std::size_t n = 0;
  std::size_t above = 0;
};

inline Percentile percentile(std::vector<double> samples, double p) {
  Percentile r;
  r.n = samples.size();
  if (samples.empty()) return r;
  std::sort(samples.begin(), samples.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(samples.size())));
  const std::size_t idx = std::max<std::size_t>(rank, 1) - 1;
  r.value = samples[idx];
  r.above = samples.size() - 1 - idx;
  return r;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Pooled PSNR over the valid points of every decoded output: squared
/// errors are normalised by each field's own valid value range, so fields
/// of different units pool into one figure.
struct Quality {
  double sum_sq = 0.0;
  std::size_t n = 0;
  [[nodiscard]] double psnr_db() const {
    if (n == 0 || sum_sq <= 0.0) return 0.0;
    return -10.0 * std::log10(sum_sq / static_cast<double>(n));
  }
};

/// The pointwise contract of the codec: every valid point within `eb` of
/// the original, every masked point decoded to the CESM fill value.
/// Returns false on any violation; feeds the valid points into `q`.
inline bool check_decode(const cliz::ClimateField& f, double eb, double range,
                         std::span<const float> recon, Quality& q) {
  const auto orig = f.data.flat();
  if (recon.size() != orig.size()) return false;
  const cliz::MaskMap* mask = f.mask_ptr();
  const auto fill = std::bit_cast<std::uint32_t>(cliz::kFillValue);
  bool ok = true;
  double sum = 0.0;
  std::size_t n = 0;
  for (std::size_t i = 0; i < orig.size(); ++i) {
    if (mask != nullptr && !mask->valid(i)) {
      ok &= std::bit_cast<std::uint32_t>(recon[i]) == fill;
      continue;
    }
    const double e = static_cast<double>(recon[i]) - static_cast<double>(orig[i]);
    ok &= std::abs(e) <= eb;
    sum += (e / range) * (e / range);
    ++n;
  }
  q.sum_sq += sum;
  q.n += n;
  return ok;
}

/// Filesystem type of `dir`: "tmpfs" when memory-backed, else the magic.
inline std::string fs_kind(const std::string& dir) {
  struct statfs st{};
  if (statfs(dir.c_str(), &st) != 0) return "unknown";
  if (static_cast<unsigned long>(st.f_type) == 0x01021994UL) return "tmpfs";
  char buf[32];
  std::snprintf(buf, sizeof buf, "0x%lx",
                static_cast<unsigned long>(st.f_type));
  return buf;
}

/// Host stamp printed with every result, so two runs from different hosts
/// or builds are recognisable as such.
inline std::string host_json(int threads, const std::string& commit,
                             const std::string& workdir) {
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  char buf[768];
  std::snprintf(
      buf, sizeof buf,
      "{\"nproc\":%ld,\"threads\":%d,\"simd_tier\":\"%s\",\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"llc_bytes\":%ld,\"commit\":\"%s\","
      "\"workdir\":\"%s\",\"workdir_fs\":\"%s\"}",
      nproc, threads, cliz::simd_tier_name(cliz::active_simd_tier()),
#if defined(__clang__)
      "clang " __clang_version__,
#elif defined(__GNUC__)
      "gcc " __VERSION__,
#else
      "unknown",
#endif
      CLIZ_E2E_BUILD_TYPE, llc, commit.c_str(), workdir.c_str(),
      fs_kind(workdir).c_str());
  return buf;
}

}  // namespace e2e
