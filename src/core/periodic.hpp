#pragma once

#include <cstddef>

#include "src/core/mask.hpp"
#include "src/ndarray/ndarray.hpp"
#include "src/predictor/predict_kernels.hpp"

namespace cliz {

/// Periodic component extraction (paper VI-D). The template is the mean
/// over all periods along the time dimension (its time extent shrinks to
/// `period`); the residual — what the main pipeline compresses — is the
/// data minus the tiled template and is much smoother than the raw data.
/// All helpers are generic over float/double sample types.

namespace detail {

/// Slab decomposition of the time tiling: row-major offsets factor as
/// off = (o * time + t) * inner + i with inner = stride(time_dim), so the
/// full/template mapping collapses to three nested loops over contiguous
/// inner runs — no per-point odometer or per-dim stride sum. The template's
/// inner strides equal the full array's (only the time extent differs), so
/// each run maps to the contiguous template run at
/// (o * period + t % period) * inner.
struct PeriodicSlabs {
  std::size_t inner = 0;   ///< elements per contiguous run
  std::size_t time = 0;    ///< full time extent
  std::size_t n_outer = 0; ///< product of dims before time_dim

  PeriodicSlabs(const Shape& full, std::size_t time_dim) {
    inner = full.stride(time_dim);
    time = full.dim(time_dim);
    const std::size_t slab = time * inner;
    n_outer = slab == 0 ? 0 : full.size() / slab;
  }
};

/// Calls fn(full_offset, template_offset) for every point of `full`, in
/// ascending full-offset order (so per-template-point accumulation order is
/// unchanged from the old odometer walk — means stay bit-identical).
template <typename Fn>
void for_each_mapped(const Shape& full, const Shape& /*tmpl*/,
                     std::size_t time_dim, std::size_t period, Fn&& fn) {
  const PeriodicSlabs sl(full, time_dim);
  std::size_t off = 0;
  for (std::size_t o = 0; o < sl.n_outer; ++o) {
    const std::size_t tbase_o = o * period * sl.inner;
    for (std::size_t t = 0; t < sl.time; ++t) {
      const std::size_t tbase = tbase_o + (t % period) * sl.inner;
      for (std::size_t i = 0; i < sl.inner; ++i, ++off) {
        fn(off, tbase + i);
      }
    }
  }
}

}  // namespace detail

/// Mean-over-periods template. Masked points (if `mask`) are excluded from
/// the averages; template positions with no valid contribution are 0.
template <typename T>
NdArray<T> periodic_template(const NdArray<T>& data, std::size_t time_dim,
                             std::size_t period, const MaskMap* mask);

/// Validity mask for the template: a template point is valid when at least
/// one contributing data point is valid.
MaskMap periodic_template_mask(const MaskMap& mask, std::size_t time_dim,
                               std::size_t period);

namespace detail {

/// Shared slab driver for the tiled element-wise combine: each (outer, t)
/// pair is one contiguous run of `inner` elements handed to a masked accum
/// kernel at the active SIMD tier. Element-wise, so bit-identical at every
/// tier; invalid points keep their exact bits.
template <typename T>
void combine_template(T* data, const Shape& shape, const T* tmpl,
                      const Shape& tshape, std::size_t time_dim,
                      const MaskMap* mask, bool add) {
  const std::size_t period = tshape.dim(time_dim);
  const PeriodicSlabs sl(shape, time_dim);
  const AccumKernelTable<T>& kt = accum_kernels<T>();
  auto op = add ? kt.add : kt.sub;
  const std::uint8_t* valid = mask != nullptr ? mask->data() : nullptr;
  std::size_t off = 0;
  for (std::size_t o = 0; o < sl.n_outer; ++o) {
    const std::size_t tbase_o = o * period * sl.inner;
    for (std::size_t t = 0; t < sl.time; ++t, off += sl.inner) {
      const std::size_t tbase = tbase_o + (t % period) * sl.inner;
      op(data + off, tmpl + tbase, valid != nullptr ? valid + off : nullptr,
         sl.inner);
    }
  }
}

}  // namespace detail

/// data -= template tiled along time_dim (valid points only). Raw-pointer
/// variant (see add_template below for why both exist).
template <typename T>
void subtract_template(T* data, const Shape& shape, const T* tmpl,
                       const Shape& tshape, std::size_t time_dim,
                       const MaskMap* mask) {
  detail::combine_template(data, shape, tmpl, tshape, time_dim, mask,
                           /*add=*/false);
}

/// data -= template tiled along time_dim (valid points only).
template <typename T>
void subtract_template(NdArray<T>& data, const NdArray<T>& tmpl,
                       std::size_t time_dim, const MaskMap* mask) {
  subtract_template(data.data(), data.shape(), tmpl.data(), tmpl.shape(),
                    time_dim, mask);
}

/// data += template tiled along time_dim (valid points only). Raw-pointer
/// variant so the caller-supplied-output decode path can expand into any
/// buffer (ctx scratch, a borrowed span, a chunk slab of a larger array).
template <typename T>
void add_template(T* data, const Shape& shape, const T* tmpl,
                  const Shape& tshape, std::size_t time_dim,
                  const MaskMap* mask) {
  detail::combine_template(data, shape, tmpl, tshape, time_dim, mask,
                           /*add=*/true);
}

/// data += template tiled along time_dim (valid points only).
template <typename T>
void add_template(NdArray<T>& data, const NdArray<T>& tmpl,
                  std::size_t time_dim, const MaskMap* mask) {
  add_template(data.data(), data.shape(), tmpl.data(), tmpl.shape(),
               time_dim, mask);
}

}  // namespace cliz
