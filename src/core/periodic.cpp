#include "src/core/periodic.hpp"

#include <algorithm>
#include <vector>

namespace cliz {

namespace {

/// Shape of the template: same as `data` with the time extent replaced by
/// `period`.
Shape template_shape(const Shape& full, std::size_t time_dim,
                     std::size_t period) {
  CLIZ_REQUIRE(time_dim < full.ndims(), "time_dim out of range");
  CLIZ_REQUIRE(period >= 1 && period <= full.dim(time_dim),
               "period exceeds time extent");
  DimVec dims = full.dims();
  dims[time_dim] = period;
  return Shape(dims);
}

}  // namespace

template <typename T>
NdArray<T> periodic_template(const NdArray<T>& data, std::size_t time_dim,
                             std::size_t period, const MaskMap* mask) {
  const Shape tshape = template_shape(data.shape(), time_dim, period);
  NdArray<T> tmpl(tshape);
  std::vector<std::uint32_t> counts(tshape.size(), 0);
  std::vector<double> sums(tshape.size(), 0.0);
  // Slab loop over contiguous inner runs through the widening-sum kernel:
  // each template slot accumulates its contributions in ascending data
  // offset order, exactly like the old per-point walk.
  const detail::PeriodicSlabs sl(data.shape(), time_dim);
  const SumKernelTable<T>& kt = sum_kernels<T>();
  const std::uint8_t* valid = mask != nullptr ? mask->data() : nullptr;
  std::size_t off = 0;
  for (std::size_t o = 0; o < sl.n_outer; ++o) {
    const std::size_t tbase_o = o * period * sl.inner;
    for (std::size_t t = 0; t < sl.time; ++t, off += sl.inner) {
      const std::size_t tbase = tbase_o + (t % period) * sl.inner;
      kt.accumulate(sums.data() + tbase, counts.data() + tbase,
                    data.data() + off,
                    valid != nullptr ? valid + off : nullptr, sl.inner);
    }
  }
  for (std::size_t i = 0; i < tshape.size(); ++i) {
    tmpl[i] = counts[i] > 0
                  ? static_cast<T>(sums[i] / static_cast<double>(counts[i]))
                  : T{0};
  }
  return tmpl;
}

MaskMap periodic_template_mask(const MaskMap& mask, std::size_t time_dim,
                               std::size_t period) {
  const Shape tshape = template_shape(mask.shape(), time_dim, period);
  MaskMap tmask = MaskMap::all_valid(tshape);
  std::vector<std::uint8_t> any(tshape.size(), 0);
  detail::for_each_mapped(mask.shape(), tshape, time_dim, period,
                          [&](std::size_t off, std::size_t toff) {
                            if (mask.valid(off)) any[toff] = 1;
                          });
  std::copy(any.begin(), any.end(), tmask.mutable_data());
  return tmask;
}

// Explicit instantiations for the supported sample types.
template NdArray<float> periodic_template(const NdArray<float>&, std::size_t,
                                          std::size_t, const MaskMap*);
template NdArray<double> periodic_template(const NdArray<double>&,
                                           std::size_t, std::size_t,
                                           const MaskMap*);
template void subtract_template(NdArray<float>&, const NdArray<float>&,
                                std::size_t, const MaskMap*);
template void subtract_template(NdArray<double>&, const NdArray<double>&,
                                std::size_t, const MaskMap*);
template void add_template(NdArray<float>&, const NdArray<float>&,
                           std::size_t, const MaskMap*);
template void add_template(NdArray<double>&, const NdArray<double>&,
                           std::size_t, const MaskMap*);

}  // namespace cliz
