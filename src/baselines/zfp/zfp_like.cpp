#include "src/baselines/zfp/zfp_like.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <numeric>

#include "src/common/bitio.hpp"
#include "src/common/bytestream.hpp"
#include "src/lossless/lossless.hpp"

namespace cliz {

namespace {

constexpr std::uint32_t kMagic = 0x5A46504Cu;  // "ZFPL"
constexpr std::size_t kSide = 4;               // block side length
constexpr int kMaxQ = 50;                      // transform headroom in int64

constexpr unsigned kModeZero = 0;  // whole block within tolerance of 0
constexpr unsigned kModeCoded = 1;
constexpr unsigned kModeRaw = 2;

/// Reversible Haar pair: s = floor((a+b)/2), d = a-b.
inline void haar_fwd(std::int64_t& a, std::int64_t& b) {
  const std::int64_t s = (a + b) >> 1;
  const std::int64_t d = a - b;
  a = s;
  b = d;
}
inline void haar_inv(std::int64_t& s, std::int64_t& d) {
  const std::int64_t a = s + ((d + 1) >> 1);
  const std::int64_t b = a - d;
  s = a;
  d = b;
}

/// Two-level reversible Haar on a stride-`st` line of 4 values:
/// (x0..x3) -> (ss, ds, d0, d1) with ss the coarsest average.
inline void fwd4(std::int64_t* p, std::size_t st) {
  std::int64_t x0 = p[0], x1 = p[st], x2 = p[2 * st], x3 = p[3 * st];
  haar_fwd(x0, x1);  // x0=s0, x1=d0
  haar_fwd(x2, x3);  // x2=s1, x3=d1
  haar_fwd(x0, x2);  // x0=ss, x2=ds
  p[0] = x0;
  p[st] = x2;
  p[2 * st] = x1;
  p[3 * st] = x3;
}
inline void inv4(std::int64_t* p, std::size_t st) {
  std::int64_t ss = p[0], ds = p[st], d0 = p[2 * st], d1 = p[3 * st];
  haar_inv(ss, ds);  // ss=s0, ds=s1
  haar_inv(ss, d0);  // ss=x0, d0=x1
  haar_inv(ds, d1);  // ds=x2, d1=x3
  p[0] = ss;
  p[st] = d0;
  p[2 * st] = ds;
  p[3 * st] = d1;
}

/// Coefficient visit order: by total frequency level (sum over dims of
/// 0 for ss, 1 for ds, 2 for d0/d1), coarsest first — the zfp-style
/// reordering that front-loads energy for the embedded coder.
std::vector<std::uint32_t> make_reorder(std::size_t ndims) {
  const std::size_t n = std::size_t{1} << (2 * ndims);  // 4^ndims
  std::vector<std::uint32_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0u);
  const auto level_of = [ndims](std::uint32_t i) {
    unsigned total = 0;
    for (std::size_t d = 0; d < ndims; ++d) {
      const unsigned c = (i >> (2 * d)) & 3u;
      total += c == 0 ? 0u : (c == 1 ? 1u : 2u);
    }
    return total;
  };
  std::stable_sort(idx.begin(), idx.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return level_of(a) < level_of(b);
                   });
  return idx;
}

/// Forward transform of a 4^d block (in place).
void block_fwd(std::int64_t* blk, std::size_t ndims) {
  const std::size_t n = std::size_t{1} << (2 * ndims);
  for (std::size_t d = 0; d < ndims; ++d) {
    const std::size_t st = std::size_t{1} << (2 * d);
    // Enumerate all lines along dim d.
    for (std::size_t base = 0; base < n; ++base) {
      if ((base >> (2 * d)) & 3u) continue;  // not a line start
      fwd4(blk + base, st);
    }
  }
}
void block_inv(std::int64_t* blk, std::size_t ndims) {
  const std::size_t n = std::size_t{1} << (2 * ndims);
  for (std::size_t d = ndims; d-- > 0;) {
    const std::size_t st = std::size_t{1} << (2 * d);
    for (std::size_t base = 0; base < n; ++base) {
      if ((base >> (2 * d)) & 3u) continue;
      inv4(blk + base, st);
    }
  }
}

struct BlockCodec {
  std::size_t ndims;
  std::size_t block_n;  // 4^ndims
  double tol;
  int precision_bits;
  std::vector<std::uint32_t> reorder;

  /// Encodes one block of `block_n` floats at the chosen cut plane.
  /// Returns false if the plane coding cannot honour the tolerance (caller
  /// escalates to raw mode).
  void encode_planes(const std::vector<std::int64_t>& coef, int top, int cut,
                     BitWriter& bits) const {
    std::vector<bool> sig(block_n, false);
    for (int p = top; p >= cut; --p) {
      // Refinement pass for already-significant coefficients.
      for (const std::uint32_t i : reorder) {
        if (sig[i]) {
          bits.put_bit(((std::llabs(coef[i]) >> p) & 1) != 0);
        }
      }
      // Significance pass with a one-bit group test.
      bool any_new = false;
      for (const std::uint32_t i : reorder) {
        if (!sig[i] && ((std::llabs(coef[i]) >> p) & 1) != 0) {
          any_new = true;
          break;
        }
      }
      bits.put_bit(any_new);
      if (!any_new) continue;
      for (const std::uint32_t i : reorder) {
        if (sig[i]) continue;
        const bool now = ((std::llabs(coef[i]) >> p) & 1) != 0;
        bits.put_bit(now);
        if (now) {
          sig[i] = true;
          bits.put_bit(coef[i] < 0);
        }
      }
    }
  }

  /// Decodes plane data into coefficient magnitudes/signs; midpoint
  /// correction on the truncated low bits reduces bias.
  std::vector<std::int64_t> decode_planes(int top, int cut,
                                          BitReader& bits) const {
    std::vector<std::int64_t> mag(block_n, 0);
    std::vector<bool> sig(block_n, false);
    std::vector<bool> neg(block_n, false);
    for (int p = top; p >= cut; --p) {
      for (const std::uint32_t i : reorder) {
        if (sig[i] && bits.get_bit()) {
          mag[i] |= std::int64_t{1} << p;
        }
      }
      if (!bits.get_bit()) continue;
      for (const std::uint32_t i : reorder) {
        if (sig[i]) continue;
        if (bits.get_bit()) {
          sig[i] = true;
          mag[i] |= std::int64_t{1} << p;
          neg[i] = bits.get_bit();
        }
      }
    }
    std::vector<std::int64_t> coef(block_n);
    for (std::size_t i = 0; i < block_n; ++i) {
      std::int64_t v = mag[i];
      if (sig[i] && cut > 0) v |= std::int64_t{1} << (cut - 1);  // midpoint
      coef[i] = neg[i] ? -v : v;
    }
    return coef;
  }

  /// Reconstructs block values from coded planes (shared by the decoder and
  /// the encoder's verification step).
  std::vector<double> reconstruct(int exp, int q, int top, int cut,
                                  BitReader& bits) const {
    auto coef = decode_planes(top, cut, bits);
    block_inv(coef.data(), ndims);
    const double step = std::ldexp(1.0, exp - q);
    std::vector<double> vals(block_n);
    for (std::size_t i = 0; i < block_n; ++i) {
      vals[i] = static_cast<double>(coef[i]) * step;
    }
    return vals;
  }

  template <typename T>
  void encode_block(const std::vector<T>& vals, BitWriter& bits) const {
    double maxabs = 0.0;
    bool finite = true;
    for (const T v : vals) {
      if (!std::isfinite(static_cast<double>(v))) {
        finite = false;
        break;
      }
      maxabs = std::max(maxabs, std::abs(static_cast<double>(v)));
    }
    if (finite && maxabs <= tol) {
      bits.put_bits(kModeZero, 2);
      return;
    }

    if (finite) {
      const int exp = std::ilogb(maxabs) + 1;  // 2^(exp-1) <= maxabs < 2^exp
      // Significand bits needed so the quantization step is <= tol/4.
      const int needed =
          exp - static_cast<int>(std::floor(std::log2(tol / 4.0)));
      const int q = std::clamp(needed, 4, std::min(precision_bits, kMaxQ));
      if (needed <= q) {
        const double step = std::ldexp(1.0, exp - q);
        std::vector<std::int64_t> coef(block_n);
        for (std::size_t i = 0; i < block_n; ++i) {
          coef[i] = std::llround(static_cast<double>(vals[i]) / step);
        }
        block_fwd(coef.data(), ndims);

        std::int64_t cmax = 0;
        for (const std::int64_t c : coef) {
          cmax = std::max(cmax, static_cast<std::int64_t>(std::llabs(c)));
        }
        const int top = cmax == 0 ? 0 : std::bit_width(
            static_cast<std::uint64_t>(cmax)) - 1;

        // Optimistic cut from a 2^d amplification estimate, then verify by
        // decoding; tighten until the tolerance provably holds.
        int cut = static_cast<int>(std::floor(std::log2(
            tol / (2.0 * step * std::ldexp(1.0, static_cast<int>(ndims))))));
        cut = std::clamp(cut, 0, std::max(top, 0));
        for (; cut >= 0; --cut) {
          BitWriter trial;
          encode_planes(coef, top, cut, trial);
          auto payload = trial.finish();
          BitReader check(payload);
          const auto recon = reconstruct(exp, q, top, cut, check);
          bool ok = true;
          for (std::size_t i = 0; i < block_n; ++i) {
            if (std::abs(recon[i] - static_cast<double>(vals[i])) > tol) {
              ok = false;
              break;
            }
          }
          if (ok) {
            bits.put_bits(kModeCoded, 2);
            bits.put_bits(static_cast<std::uint64_t>(exp + 32768), 16);
            bits.put_bits(static_cast<std::uint64_t>(q), 6);
            bits.put_bits(static_cast<std::uint64_t>(top), 6);
            bits.put_bits(static_cast<std::uint64_t>(cut), 6);
            encode_planes(coef, top, cut, bits);
            return;
          }
        }
      }
    }

    // Raw escape: non-finite data or tolerance unreachable by plane coding.
    bits.put_bits(kModeRaw, 2);
    using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                    std::uint64_t>;
    for (const T v : vals) {
      Bits u;
      static_assert(sizeof(u) == sizeof(v));
      std::memcpy(&u, &v, sizeof(u));
      if constexpr (sizeof(T) == 8) {
        // 64-bit payloads split in two: put_bits caps at 57 bits.
        bits.put_bits(u >> 32, 32);
        bits.put_bits(u & 0xFFFFFFFFull, 32);
      } else {
        bits.put_bits(u, 32);
      }
    }
  }

  template <typename T>
  std::vector<T> decode_block(BitReader& bits) const {
    const unsigned mode = static_cast<unsigned>(bits.get_bits(2));
    std::vector<T> vals(block_n, T{0});
    if (mode == kModeZero) return vals;
    if (mode == kModeRaw) {
      using Bits = std::conditional_t<sizeof(T) == 4, std::uint32_t,
                                      std::uint64_t>;
      for (auto& v : vals) {
        Bits u;
        if constexpr (sizeof(T) == 8) {
          u = (bits.get_bits(32) << 32) | bits.get_bits(32);
        } else {
          u = static_cast<Bits>(bits.get_bits(32));
        }
        std::memcpy(&v, &u, sizeof(v));
      }
      return vals;
    }
    CLIZ_REQUIRE(mode == kModeCoded, "corrupt zfp block mode");
    const int exp = static_cast<int>(bits.get_bits(16)) - 32768;
    const int q = static_cast<int>(bits.get_bits(6));
    const int top = static_cast<int>(bits.get_bits(6));
    const int cut = static_cast<int>(bits.get_bits(6));
    CLIZ_REQUIRE(q >= 1 && q <= 63 && top <= 62 && cut <= top,
                 "corrupt zfp block header");
    const auto recon = reconstruct(exp, q, top, cut, bits);
    for (std::size_t i = 0; i < block_n; ++i) {
      vals[i] = static_cast<T>(recon[i]);
    }
    return vals;
  }
};

/// Gathers a (possibly partial) block with edge replication.
template <typename T>
std::vector<T> gather_block(const NdArray<T>& data,
                            const DimVec& block_coord) {
  const Shape& shape = data.shape();
  const std::size_t nd = shape.ndims();
  const std::size_t n = std::size_t{1} << (2 * nd);
  std::vector<T> vals(n);
  DimVec c(nd);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < nd; ++d) {
      const std::size_t local = (i >> (2 * (nd - 1 - d))) & 3u;
      c[d] = std::min(block_coord[d] * kSide + local, shape.dim(d) - 1);
    }
    vals[i] = data[shape.offset(c)];
  }
  return vals;
}

template <typename T>
void scatter_block(NdArray<T>& data, const DimVec& block_coord,
                   const std::vector<T>& vals) {
  const Shape& shape = data.shape();
  const std::size_t nd = shape.ndims();
  const std::size_t n = std::size_t{1} << (2 * nd);
  DimVec c(nd);
  for (std::size_t i = 0; i < n; ++i) {
    bool inside = true;
    for (std::size_t d = 0; d < nd; ++d) {
      const std::size_t local = (i >> (2 * (nd - 1 - d))) & 3u;
      c[d] = block_coord[d] * kSide + local;
      if (c[d] >= shape.dim(d)) {
        inside = false;
        break;
      }
    }
    if (inside) data[shape.offset(c)] = vals[i];
  }
}

/// Iterates the block grid in raster order.
template <typename Fn>
void for_each_block(const Shape& shape, Fn&& fn) {
  const std::size_t nd = shape.ndims();
  DimVec nblocks(nd);
  for (std::size_t d = 0; d < nd; ++d) {
    nblocks[d] = (shape.dim(d) + kSide - 1) / kSide;
  }
  DimVec bc(nd, 0);
  for (;;) {
    fn(bc);
    std::size_t d = nd;
    while (d-- > 0) {
      if (++bc[d] < nblocks[d]) break;
      bc[d] = 0;
      if (d == 0) return;
    }
    bool wrapped = true;
    for (const std::size_t v : bc) {
      if (v != 0) {
        wrapped = false;
        break;
      }
    }
    if (wrapped) return;
  }
}

template <typename T>
std::vector<std::uint8_t> compress_impl(const NdArray<T>& data,
                                        double abs_error_bound,
                                        const ZfpOptions& options) {
  CLIZ_REQUIRE(abs_error_bound > 0, "error bound must be positive");
  const Shape& shape = data.shape();
  CLIZ_REQUIRE(shape.ndims() <= 4, "zfp-like codec supports up to 4 dims");

  BlockCodec codec{shape.ndims(), std::size_t{1} << (2 * shape.ndims()),
                   abs_error_bound, options.precision_bits,
                   make_reorder(shape.ndims())};

  BitWriter bits;
  for_each_block(shape, [&](const DimVec& bc) {
    codec.encode_block(gather_block(data, bc), bits);
  });

  ByteWriter out;
  out.put(kMagic);
  out.put_u8(static_cast<std::uint8_t>(sizeof(T)));  // 4 = f32, 8 = f64
  out.put_varint(shape.ndims());
  for (const std::size_t d : shape.dims()) out.put_varint(d);
  out.put(abs_error_bound);
  out.put_varint(static_cast<std::uint64_t>(options.precision_bits));
  out.put_block(bits.finish());
  return lossless_compress(out.bytes());
}

template <typename T>
NdArray<T> decompress_impl(std::span<const std::uint8_t> stream) {
  const auto raw = lossless_decompress(stream);
  ByteReader in(raw);
  CLIZ_REQUIRE(in.get<std::uint32_t>() == kMagic, "not a zfp-like stream");
  CLIZ_REQUIRE(in.get_u8() == sizeof(T),
               "stream sample type does not match the decompress variant");
  const std::size_t ndims = static_cast<std::size_t>(in.get_varint());
  CLIZ_REQUIRE(ndims >= 1 && ndims <= 4, "corrupt dimensionality");
  DimVec dims(ndims);
  for (auto& d : dims) d = static_cast<std::size_t>(in.get_varint());
  const Shape shape(dims);
  const auto tol = in.get<double>();
  CLIZ_REQUIRE(tol > 0, "corrupt tolerance");
  const auto precision = static_cast<int>(in.get_varint());

  BlockCodec codec{ndims, std::size_t{1} << (2 * ndims), tol, precision,
                   make_reorder(ndims)};
  BitReader bits(in.get_block());

  NdArray<T> out(shape);
  for_each_block(shape, [&](const DimVec& bc) {
    scatter_block(out, bc, codec.template decode_block<T>(bits));
  });
  return out;
}

}  // namespace

std::vector<std::uint8_t> ZfpLikeCompressor::compress(
    const NdArray<float>& data, double abs_error_bound) const {
  return compress_impl(data, abs_error_bound, options_);
}

NdArray<float> ZfpLikeCompressor::decompress(
    std::span<const std::uint8_t> stream) {
  return decompress_impl<float>(stream);
}

}  // namespace cliz
