#pragma once

// N-dimensional 1st-order Lorenzo predictor over the shared linear
// quantizer: the SZ-family raster-scan corner stencil (Tao et al.), the
// standalone codec in src/sz3/lorenzo.cpp generalized to masks and to the
// pipeline's stage backends. Encode mutates the data to the reconstruction
// (prediction parity with the decoder); masked points are skipped entirely
// and masked/out-of-range stencil terms contribute nothing, so fill-value
// garbage never leaks into a prediction.

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "src/common/governor.hpp"
#include "src/ndarray/shape.hpp"
#include "src/predictor/interp_traversal.hpp"
#include "src/predictor/predict_kernels.hpp"
#include "src/quantizer/linear_quantizer.hpp"

namespace cliz {

/// One stencil term: the neighbour at x - back (per-dim backward offsets)
/// contributes `weight * f(x - back)` to the prediction sum.
struct LorenzoTerm {
  std::array<std::uint8_t, kMaxAxes> back{};  ///< i_d per dim, each 0 or 1
  std::size_t delta = 0;                      ///< sum_d back[d] * stride_d
  double weight = 0.0;                        ///< (-1)^(|back| + 1)
};

/// Builds the first-order Lorenzo stencil for `shape` into `terms` (cleared
/// first): the classic inclusion-exclusion corner stencil, pred(x) =
/// sum_{i in {0,1}^nd, i != 0} (-1)^(|i| + 1) f(x - i), i.e. the expansion
/// of (1 - S) per dimension with the target's own term removed.
inline void lorenzo_stencil(const Shape& shape,
                            std::vector<LorenzoTerm>& terms) {
  const std::size_t nd = shape.ndims();
  CLIZ_REQUIRE(nd >= 1 && nd <= kMaxAxes, "unsupported dimensionality");
  terms.clear();
  std::array<std::uint8_t, kMaxAxes> i{};
  for (;;) {
    // Advance the odometer over {0,1}^nd; the all-zero tuple (the target
    // itself) is skipped below.
    std::size_t d = nd;
    bool done = true;
    while (d-- > 0) {
      if (++i[d] <= 1) {
        done = false;
        break;
      }
      i[d] = 0;
    }
    if (done) break;
    LorenzoTerm t;
    t.back = i;
    double w = 1.0;
    for (std::size_t j = 0; j < nd; ++j) {
      t.delta += static_cast<std::size_t>(i[j]) * shape.stride(j);
      if (i[j] != 0) w = -w;
    }
    t.weight = -w;
    terms.push_back(t);
  }
}

namespace detail {

/// Prediction at the point with coordinates `c` (linear offset `off`) from
/// already-reconstructed values. A term is dropped when its neighbour lies
/// outside the array or is masked; `interior` short-circuits the range
/// checks for points off every low border.
template <typename T>
T lorenzo_predict_at(const T* data, std::span<const LorenzoTerm> terms,
                     const std::size_t* c, std::size_t nd, std::size_t off,
                     bool interior, const std::uint8_t* validity) {
  double p = 0.0;
  if (interior && validity == nullptr) {
    for (const LorenzoTerm& t : terms) {
      p += t.weight * static_cast<double>(data[off - t.delta]);
    }
    return static_cast<T>(p);
  }
  for (const LorenzoTerm& t : terms) {
    if (!interior) {
      bool in_range = true;
      for (std::size_t d = 0; d < nd; ++d) {
        if (c[d] < t.back[d]) {
          in_range = false;
          break;
        }
      }
      if (!in_range) continue;
    }
    const std::size_t src = off - t.delta;
    if (validity != nullptr && validity[src] == 0) continue;
    p += t.weight * static_cast<double>(data[src]);
  }
  return static_cast<T>(p);
}

/// Row-loop bookkeeping shared by the encode/decode scans: rows run along
/// the innermost (stride-1) dimension, the outer-coordinate odometer
/// advances once per ROW instead of once per point, and a row whose outer
/// coordinates are all off the low border gets an analytic interior run
/// [1, row_len) that the branch-free lorenzo_row_* kernels handle
/// without any per-point range tests. Cooperative cancellation is polled at
/// ~64Ki-point granularity (the raster scan previously had no poll at all,
/// so a huge chunk could not be cancelled mid-predictor).
struct LorenzoRowScan {
  std::size_t nd = 0;
  std::size_t row_len = 0;
  std::size_t n_rows = 0;
  std::size_t poll_rows = 1;  ///< cancellation poll cadence, in rows

  explicit LorenzoRowScan(const Shape& shape) {
    nd = shape.ndims();
    row_len = shape.dim(nd - 1);
    n_rows = row_len == 0 ? 0 : shape.size() / row_len;
    poll_rows = std::max<std::size_t>(
        1, std::size_t{65536} / std::max<std::size_t>(1, row_len));
  }

  /// True when every OUTER coordinate of the row is >= 1, i.e. the row's
  /// [1, row_len) span is interior.
  [[nodiscard]] bool outer_interior(const std::size_t* c) const {
    for (std::size_t d = 0; d + 1 < nd; ++d) {
      if (c[d] == 0) return false;
    }
    return true;
  }

  /// Advances the outer-coordinate odometer to the next row.
  void next_row(std::size_t* c, const Shape& shape) const {
    std::size_t d = nd - 1;
    while (d-- > 0) {
      if (++c[d] < shape.dim(d)) break;
      c[d] = 0;
    }
  }
};

/// Copies the stencil's hot fields into the flat row-kernel terms.
inline void lorenzo_flat_terms(std::span<const LorenzoTerm> stencil,
                               std::vector<LorenzoFlatTerm>& flat) {
  flat.resize(stencil.size());
  for (std::size_t i = 0; i < stencil.size(); ++i) {
    flat[i] = LorenzoFlatTerm{stencil[i].delta, stencil[i].weight};
  }
}

}  // namespace detail

/// Serial raster-scan encode: quantizes every valid point against its
/// Lorenzo prediction, appending (offset, code) pairs and outliers in visit
/// order. Serial by construction, so streams are identical for every thread
/// count. `data` is mutated to the reconstruction. The scan is row-based:
/// unmasked rows clear of the low border run through the branch-free flat
/// row kernel; border/masked points take the generic range-checked path.
/// `cancel` (nullable) is polled about every 64Ki points.
template <typename T>
void lorenzo_encode(T* data, const Shape& shape,
                    const LinearQuantizer<T>& quantizer,
                    const std::uint8_t* validity,
                    std::vector<std::uint64_t>& offsets,
                    std::vector<std::uint32_t>& codes,
                    std::vector<T>& outliers,
                    std::vector<LorenzoTerm>& stencil,
                    const CancelToken* cancel = nullptr) {
  lorenzo_stencil(shape, stencil);
  std::vector<LorenzoFlatTerm> flat;
  detail::lorenzo_flat_terms(stencil, flat);
  const detail::LorenzoRowScan scan(shape);
  const std::size_t nd = scan.nd;
  std::array<std::size_t, kMaxAxes> c{};
  for (std::size_t row = 0; row < scan.n_rows; ++row) {
    if (cancel != nullptr && row % scan.poll_rows == 0) cancel->check();
    const std::size_t base = row * scan.row_len;
    const bool outer_ok = scan.outer_interior(c.data());
    const std::size_t run_lo =
        outer_ok && validity == nullptr ? 1 : scan.row_len;
    for (std::size_t j = 0; j < run_lo; ++j) {
      const std::size_t off = base + j;
      if (validity != nullptr && validity[off] == 0) {
        continue;
      }
      c[nd - 1] = j;
      const bool interior = outer_ok && j >= 1;
      const T pred = detail::lorenzo_predict_at(data, stencil, c.data(), nd,
                                                off, interior, validity);
      offsets.push_back(off);
      codes.push_back(quantizer.quantize(data[off], pred, outliers));
    }
    if (run_lo < scan.row_len) {
      lorenzo_row_encode(data, base + run_lo, scan.row_len - run_lo, flat,
                         quantizer, offsets, codes, outliers);
    }
    c[nd - 1] = 0;
    scan.next_row(c.data(), shape);
  }
}

/// Decode counterpart: the target offsets are known up front (every valid
/// point in raster order), so the whole code stream is fetched in one batch
/// before the inherently serial reconstruction scan. Row structure and
/// cancellation cadence mirror lorenzo_encode exactly.
template <typename T, typename Fetch>
void lorenzo_decode(T* out, const Shape& shape,
                    const LinearQuantizer<T>& quantizer,
                    std::span<const T> outliers, std::size_t& cursor,
                    const std::uint8_t* validity,
                    std::vector<std::uint64_t>& off_scratch,
                    std::vector<std::uint32_t>& code_scratch,
                    std::vector<LorenzoTerm>& stencil, const Fetch& fetch,
                    const CancelToken* cancel = nullptr) {
  lorenzo_stencil(shape, stencil);
  std::vector<LorenzoFlatTerm> flat;
  detail::lorenzo_flat_terms(stencil, flat);
  off_scratch.clear();
  off_scratch.reserve(shape.size());
  for (std::size_t off = 0; off < shape.size(); ++off) {
    if (validity == nullptr || validity[off] != 0) off_scratch.push_back(off);
  }
  code_scratch.resize(off_scratch.size());
  fetch(off_scratch.data(), code_scratch.data(), off_scratch.size());

  const detail::LorenzoRowScan scan(shape);
  const std::size_t nd = scan.nd;
  std::array<std::size_t, kMaxAxes> c{};
  std::size_t k = 0;
  for (std::size_t row = 0; row < scan.n_rows; ++row) {
    if (cancel != nullptr && row % scan.poll_rows == 0) cancel->check();
    const std::size_t base = row * scan.row_len;
    const bool outer_ok = scan.outer_interior(c.data());
    const std::size_t run_lo =
        outer_ok && validity == nullptr ? 1 : scan.row_len;
    for (std::size_t j = 0; j < run_lo; ++j) {
      const std::size_t off = base + j;
      if (validity != nullptr && validity[off] == 0) {
        continue;
      }
      c[nd - 1] = j;
      const bool interior = outer_ok && j >= 1;
      const T pred = detail::lorenzo_predict_at(out, stencil, c.data(), nd,
                                                off, interior, validity);
      out[off] = quantizer.recover(code_scratch[k++], pred, outliers, cursor);
    }
    if (run_lo < scan.row_len) {
      lorenzo_row_decode(out, base + run_lo, scan.row_len - run_lo, flat,
                         quantizer, code_scratch.data() + k, outliers, cursor);
      k += scan.row_len - run_lo;
    }
    c[nd - 1] = 0;
    scan.next_row(c.data(), shape);
  }
}

}  // namespace cliz
