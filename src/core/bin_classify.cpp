#include "src/core/bin_classify.hpp"

#include <algorithm>

#include "src/common/status.hpp"

namespace cliz {

namespace {

/// Zig-zag index of a signed shift: 0 -> 0, +1 -> 1, -1 -> 2, +2 -> 3, ...
unsigned zigzag(int shift) {
  return shift > 0 ? static_cast<unsigned>(2 * shift - 1)
                   : static_cast<unsigned>(-2 * shift);
}

}  // namespace

BinClassification BinClassification::build(
    std::span<const std::uint64_t> offsets,
    std::span<const std::uint32_t> codes, std::size_t plane_size,
    std::uint32_t radius, ClassifyParams params) {
  CLIZ_REQUIRE(offsets.size() == codes.size(), "offset/code arity mismatch");
  CLIZ_REQUIRE(plane_size >= 1, "empty classification plane");
  CLIZ_REQUIRE(params.j <= 8 && params.k <= 8, "classification params too large");
  CLIZ_REQUIRE(params.shift_types() * params.group_types() <= 256,
               "column code must fit one byte");

  // Per column, count total non-outlier codes and the frequencies of the
  // candidate peaks (bins -j..+j).
  const unsigned spread = params.shift_types();
  std::vector<std::uint64_t> near(plane_size * spread, 0);
  std::vector<std::uint64_t> total(plane_size, 0);
  const auto jj = static_cast<std::int64_t>(params.j);
  for (std::size_t i = 0; i < codes.size(); ++i) {
    const std::uint32_t code = codes[i];
    if (code == 0) continue;  // outlier escape: not a bin
    const std::size_t col = offsets[i] % plane_size;
    ++total[col];
    const std::int64_t bin = static_cast<std::int64_t>(code) -
                             static_cast<std::int64_t>(radius);
    if (bin >= -jj && bin <= jj) {
      ++near[col * spread + static_cast<std::size_t>(bin + jj)];
    }
  }

  std::vector<std::uint8_t> column_code(plane_size, 0);
  for (std::size_t c = 0; c < plane_size; ++c) {
    if (total[c] == 0) {
      column_code[c] = 0;
      continue;
    }
    // Shift: move the dominant near-zero bin to 0 (ties prefer smaller
    // |shift| by scanning outward from the centre).
    const std::uint64_t* counts = near.data() + c * spread;
    int peak_bin = 0;
    std::uint64_t peak = counts[params.j];
    for (int d = 1; d <= static_cast<int>(params.j); ++d) {
      for (const int bin : {d, -d}) {
        const std::uint64_t f = counts[bin + static_cast<int>(params.j)];
        if (f > peak) {
          peak = f;
          peak_bin = bin;
        }
      }
    }
    // Dispersion: bucket the post-shift peak frequency against lambda and
    // its halvings (k buckets + catch-all). k = 1 reduces to the paper's
    // "peak < lambda -> second tree".
    const double peak_freq =
        static_cast<double>(peak) / static_cast<double>(total[c]);
    unsigned group = params.k;
    double threshold = kLambda;
    for (unsigned g = 0; g < params.k; ++g) {
      if (peak_freq >= threshold) {
        group = g;
        break;
      }
      threshold /= 2.0;
    }
    column_code[c] =
        static_cast<std::uint8_t>(group * spread + zigzag(peak_bin));
  }
  return BinClassification(params, std::move(column_code));
}

void BinClassification::serialize(ByteWriter& out) const {
  out.put_varint(params_.j);
  out.put_varint(params_.k);
  out.put_varint(column_code_.size());
  out.put_bytes(column_code_);
}

BinClassification BinClassification::deserialize(ByteReader& in) {
  ClassifyParams params;
  params.j = static_cast<unsigned>(in.get_varint());
  params.k = static_cast<unsigned>(in.get_varint());
  CLIZ_REQUIRE(params.j <= 8 && params.k <= 8, "corrupt classify params");
  const std::size_t n = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(n >= 1, "empty classification map");
  const auto bytes = in.get_bytes(n);
  std::vector<std::uint8_t> codes(bytes.begin(), bytes.end());
  const unsigned limit = params.shift_types() * params.group_types();
  for (const std::uint8_t c : codes) {
    CLIZ_REQUIRE(c < limit, "corrupt classification entry");
  }
  return BinClassification(params, std::move(codes));
}

}  // namespace cliz
