#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

namespace cliz {

/// Predictor-stage backends. The enumerator value is the wire id stored in
/// the high bits of the CliZ stream's predictor byte (see docs/FORMAT.md);
/// ids are append-only so old readers fail cleanly on streams from newer
/// writers. Id 2 (the retired 2nd-order Lorenzo predictor) is refused on
/// decode and never reassigned.
enum class PredictorBackend : std::uint8_t {
  kInterp = 0,      ///< dynamic-fitting interpolation (default, golden-locked)
  kLorenzo1 = 1,    ///< 1st-order N-D Lorenzo (raster-scan corner stencil)
  kRegression = 3,  ///< per-block least-squares plane fit, coeffs in stream
};

inline const char* predictor_backend_name(PredictorBackend backend) {
  switch (backend) {
    case PredictorBackend::kInterp:
      return "interp";
    case PredictorBackend::kLorenzo1:
      return "lorenzo1";
    case PredictorBackend::kRegression:
      return "regression";
  }
  return "unknown";
}

inline std::optional<PredictorBackend> parse_predictor_backend(
    std::string_view name) {
  if (name == "interp") return PredictorBackend::kInterp;
  if (name == "lorenzo1") return PredictorBackend::kLorenzo1;
  if (name == "regression") return PredictorBackend::kRegression;
  return std::nullopt;
}

}  // namespace cliz
