#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/mask.hpp"
#include "src/core/stage_stats.hpp"
#include "src/ndarray/ndarray.hpp"

namespace cliz {

/// Uniform interface over every codec in the library; the rate-distortion
/// and transfer benchmarks iterate compressors through this.
class Compressor {
 public:
  virtual ~Compressor() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Compresses under an absolute error bound. Implementations guarantee
  /// |reconstructed - original| <= bound at every (valid) point.
  virtual std::vector<std::uint8_t> compress(const NdArray<float>& data,
                                             double abs_error_bound) = 0;

  virtual NdArray<float> decompress(std::span<const std::uint8_t> stream) = 0;

  /// Supplies a validity mask for codecs that understand one (CliZ). The
  /// pointer must stay valid for subsequent compress() calls. Default:
  /// ignored, like the real SZ3/ZFP/SPERR/QoZ.
  virtual void set_mask(const MaskMap* mask) { (void)mask; }

  /// Hints which dimension is time (periodicity probing). Default: ignored.
  virtual void set_time_dim(std::size_t dim) { (void)dim; }

  /// Per-stage telemetry of the most recent compress() call, for codecs
  /// with a staged pipeline (CliZ). nullptr: the codec does not report
  /// stage stats.
  [[nodiscard]] virtual const StageStats* stage_stats() const {
    return nullptr;
  }
};

/// Factory for "cliz", "sz3", "qoz", "zfp", "sperr". Throws Error on an
/// unknown name. The CliZ instance auto-tunes its pipeline on the first
/// compress() per shape and reuses it afterwards (the paper's
/// offline-tune-once, compress-many contract).
std::unique_ptr<Compressor> make_compressor(std::string_view name);

/// All registry names, CliZ first.
std::vector<std::string> compressor_names();

}  // namespace cliz
