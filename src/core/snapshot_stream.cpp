#include "src/core/snapshot_stream.hpp"

#include <optional>

#include "src/core/chunked.hpp"

namespace cliz {

namespace {

Shape block_shape(const Shape& spatial, std::size_t n_snapshots) {
  DimVec dims;
  dims.reserve(spatial.ndims() + 1);
  dims.push_back(n_snapshots);
  for (const std::size_t d : spatial.dims()) dims.push_back(d);
  return Shape(dims);
}

}  // namespace

SnapshotStreamWriter::SnapshotStreamWriter(Shape spatial_shape,
                                           double abs_error_bound,
                                           PipelineConfig config,
                                           const MaskMap* spatial_mask,
                                           std::size_t snapshots_per_block,
                                           ClizOptions options)
    : spatial_shape_(std::move(spatial_shape)),
      eb_(abs_error_bound),
      config_(std::move(config)),
      spatial_mask_(spatial_mask),
      per_block_(snapshots_per_block),
      options_(options) {
  CLIZ_REQUIRE(abs_error_bound > 0, "error bound must be positive");
  CLIZ_REQUIRE(per_block_ >= 1, "need at least one snapshot per block");
  CLIZ_REQUIRE(config_.permutation.size() == spatial_shape_.ndims() + 1,
               "pipeline arity must be spatial ndims + 1 (time first)");
  CLIZ_REQUIRE(config_.time_dim == 0,
               "snapshot streaming requires time as dim 0");
  if (spatial_mask_ != nullptr) {
    CLIZ_REQUIRE(spatial_mask_->shape() == spatial_shape_,
                 "mask shape must equal the snapshot shape");
  }
  pending_.reserve(per_block_ * spatial_shape_.size());
}

void SnapshotStreamWriter::append(const NdArray<float>& snapshot) {
  CLIZ_REQUIRE(!finished_, "writer already finished");
  CLIZ_REQUIRE(snapshot.shape() == spatial_shape_,
               "snapshot shape mismatch");
  pending_.insert(pending_.end(), snapshot.flat().begin(),
                  snapshot.flat().end());
  ++pending_count_;
  ++total_snapshots_;
  if (pending_count_ == per_block_) flush_block();
}

void SnapshotStreamWriter::flush_block() {
  if (pending_count_ == 0) return;
  const Shape bshape = block_shape(spatial_shape_, pending_count_);
  NdArray<float> block(bshape, std::move(pending_));
  pending_ = {};

  // Short final blocks cannot carry the periodic pipeline.
  PipelineConfig config = config_;
  if (detail::drops_period(config, bshape.dims())) config.period = 0;

  std::optional<MaskMap> mask;
  if (spatial_mask_ != nullptr) {
    mask = MaskMap::broadcast(*spatial_mask_, bshape);
  }
  const ClizCompressor codec(config, options_);
  blocks_.push_back(codec.compress(block, eb_,
                                   mask.has_value() ? &*mask : nullptr));
  ranges_.emplace_back(total_snapshots_ - pending_count_, total_snapshots_);
  pending_count_ = 0;
  pending_.reserve(per_block_ * spatial_shape_.size());
}

std::vector<std::uint8_t> SnapshotStreamWriter::finish() {
  CLIZ_REQUIRE(!finished_, "writer already finished");
  CLIZ_REQUIRE_CODE(total_snapshots_ > 0, kBadArgument,
                    "snapshot stream has no snapshots");
  finished_ = true;
  flush_block();
  std::vector<std::uint8_t> out;
  detail::write_slab_frame(block_shape(spatial_shape_, total_snapshots_),
                           ranges_, blocks_, out);
  return out;
}

}  // namespace cliz
