#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "src/common/bytestream.hpp"

namespace cliz {

/// Generalized classification parameters. The paper uses j = k = 1 ("the
/// compression ratio cannot be significantly increased when j or k is
/// greater than 1") — larger values are supported so that claim can be
/// verified empirically (bench_ablation_jk).
struct ClassifyParams {
  /// Shift radius: per-column shifts in [-j, +j] (2j+1 shift types).
  unsigned j = 1;
  /// Dispersion levels: k+1 groups, each with its own Huffman tree.
  unsigned k = 1;

  [[nodiscard]] unsigned shift_types() const noexcept { return 2 * j + 1; }
  [[nodiscard]] unsigned group_types() const noexcept { return k + 1; }
};

/// Quantization-bin classification (paper VI-E): per horizontal position
/// ("column" = coordinate in the trailing lat x lon plane, aggregated over
/// all snapshots/heights), detect
///  - bin *shifting*: the column's dominant bin sits at a persistent
///    non-zero offset — the codes of that column are shifted so the
///    dominant bin becomes 0; and
///  - bin *dispersion*: after shifting, the peak's relative frequency is
///    bucketed against lambda = 0.4 (Theorem 2) and its halvings — each
///    bucket is routed to its own Huffman tree so dispersed and peaked
///    columns stop polluting each other's code tables.
/// Each column costs ~log2((2j+1)(k+1)) bits in the marking map, stored as
/// one byte per column and squeezed by the outer lossless pass.
class BinClassification {
 public:
  /// Theorem 2's optimal dispersion threshold.
  static constexpr double kLambda = 0.4;

  /// Builds the per-column classification from the emitted quantization
  /// stream. `offsets[i]` is the linear offset whose code is `codes[i]`;
  /// column id = offset % plane_size. `radius` is the quantizer radius
  /// (code radius+b encodes signed bin b; code 0 is the outlier escape and
  /// is never shifted).
  static BinClassification build(std::span<const std::uint64_t> offsets,
                                 std::span<const std::uint32_t> codes,
                                 std::size_t plane_size, std::uint32_t radius,
                                 ClassifyParams params = {});

  /// Signed shift of a column in [-j, +j]. Encoded code = code - shift.
  [[nodiscard]] int shift_of(std::size_t column) const {
    const unsigned s = column_code_[column] % params_.shift_types();
    // Zig-zag: 0, +1, -1, +2, -2, ...
    return (s % 2 == 0) ? -static_cast<int>(s / 2)
                        : static_cast<int>((s + 1) / 2);
  }

  /// Dispersion group of a column in [0, k]; 0 = most peaked.
  [[nodiscard]] unsigned group_of(std::size_t column) const {
    return column_code_[column] / params_.shift_types();
  }

  /// Convenience for the paper's k = 1 case.
  [[nodiscard]] bool dispersed(std::size_t column) const {
    return group_of(column) != 0;
  }

  [[nodiscard]] const ClassifyParams& params() const noexcept {
    return params_;
  }
  [[nodiscard]] std::size_t plane_size() const noexcept {
    return column_code_.size();
  }

  void serialize(ByteWriter& out) const;
  static BinClassification deserialize(ByteReader& in);

 private:
  BinClassification(ClassifyParams params,
                    std::vector<std::uint8_t> column_code)
      : params_(params), column_code_(std::move(column_code)) {}

  ClassifyParams params_;
  // Per column: group * (2j+1) + zigzag(shift).
  std::vector<std::uint8_t> column_code_;
};

}  // namespace cliz
