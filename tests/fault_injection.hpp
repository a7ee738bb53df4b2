#pragma once

// Deterministic fault generators for the integrity matrix test: seeded bit
// flips, systematic truncations, and cross-stream splices over compressed
// frames. Every case is a pure function of (input bytes, seed), so a
// failing case reproduces from its label alone. Test-only header — lives
// beside the tests, not in src/.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/common/rng.hpp"
#include "src/common/status.hpp"

namespace cliz::fault {

struct Fault {
  std::string label;   ///< "flip@123:5", "trunc@64", "splice a[10..50)->b@7"
  std::vector<std::uint8_t> bytes;
};

/// `n` seeded mutations: 1-4 bit flips each, positions/bits drawn from the
/// seeded PRNG.
inline std::vector<Fault> bit_flip_cases(std::span<const std::uint8_t> stream,
                                         std::size_t n, std::uint64_t seed) {
  std::vector<Fault> out;
  if (stream.empty()) return out;
  Rng rng(seed);
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Fault f;
    f.bytes.assign(stream.begin(), stream.end());
    const std::size_t flips = 1 + rng.uniform_index(4);
    f.label = "flip";
    for (std::size_t k = 0; k < flips; ++k) {
      const std::size_t byte = rng.uniform_index(f.bytes.size());
      const auto bit = static_cast<unsigned>(rng.uniform_index(8));
      f.bytes[byte] ^= static_cast<std::uint8_t>(1u << bit);
      f.label.append("@").append(std::to_string(byte));
      f.label.append(":").append(std::to_string(bit));
    }
    out.push_back(std::move(f));
  }
  return out;
}

/// Truncations at `n` evenly spaced cut points, always including the empty
/// stream and the off-by-one cut.
inline std::vector<Fault> truncation_cases(
    std::span<const std::uint8_t> stream, std::size_t n) {
  std::vector<Fault> out;
  if (stream.empty()) return out;
  std::vector<std::size_t> cuts{0, stream.size() - 1};
  const std::size_t step = std::max<std::size_t>(1, stream.size() / (n + 1));
  for (std::size_t cut = step; cut < stream.size(); cut += step) {
    cuts.push_back(cut);
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  out.reserve(cuts.size());
  for (const std::size_t cut : cuts) {
    Fault f;
    f.label = "trunc@" + std::to_string(cut);
    f.bytes.assign(stream.begin(),
                   stream.begin() + static_cast<std::ptrdiff_t>(cut));
    out.push_back(std::move(f));
  }
  return out;
}

/// Index of the first byte where two streams differ; min(a.size(),
/// b.size()) when one is a prefix of the other (or they are identical).
/// The fuzz matrices use this to locate a header field (entropy byte,
/// predictor byte, framing layout) as the first divergence between two
/// encodings of the same data that differ only in that knob.
inline std::size_t first_divergence(std::span<const std::uint8_t> a,
                                    std::span<const std::uint8_t> b) {
  const std::size_t n = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return i;
  }
  return n;
}

/// Targeted single-byte overrides: one fault per value in `values`, each a
/// copy of `stream` with the byte at `pos` replaced. Used to probe fields
/// with a known offset (e.g. the entropy-backend id byte) for every
/// reserved/unknown value rather than trusting seeded flips to land there.
inline std::vector<Fault> byte_override_cases(
    std::span<const std::uint8_t> stream, std::size_t pos,
    std::span<const std::uint8_t> values) {
  std::vector<Fault> out;
  if (pos >= stream.size()) return out;
  out.reserve(values.size());
  for (const std::uint8_t v : values) {
    Fault f;
    f.label = "override@" + std::to_string(pos) + "=" + std::to_string(v);
    f.bytes.assign(stream.begin(), stream.end());
    f.bytes[pos] = v;
    out.push_back(std::move(f));
  }
  return out;
}

/// `n` seeded splices of windows from `donor` into copies of `stream`
/// (same-extent overwrite — total length preserved, the way a bad block
/// or a mixed-up file chunk corrupts an archive at rest), plus `n`
/// internal window swaps within `stream` itself.
inline std::vector<Fault> splice_cases(std::span<const std::uint8_t> stream,
                                       std::span<const std::uint8_t> donor,
                                       std::size_t n, std::uint64_t seed) {
  std::vector<Fault> out;
  if (stream.size() < 8 || donor.size() < 8) return out;
  Rng rng(seed);
  out.reserve(2 * n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len =
        1 + rng.uniform_index(std::min(donor.size(), stream.size()) / 2);
    const std::size_t from = rng.uniform_index(donor.size() - len + 1);
    const std::size_t to = rng.uniform_index(stream.size() - len + 1);
    Fault f;
    f.label = "splice donor[" + std::to_string(from) + "+" +
              std::to_string(len) + ")@" + std::to_string(to);
    f.bytes.assign(stream.begin(), stream.end());
    std::copy_n(donor.begin() + static_cast<std::ptrdiff_t>(from), len,
                f.bytes.begin() + static_cast<std::ptrdiff_t>(to));
    out.push_back(std::move(f));
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t len = 1 + rng.uniform_index(stream.size() / 4 + 1);
    const std::size_t a = rng.uniform_index(stream.size() - len + 1);
    const std::size_t b = rng.uniform_index(stream.size() - len + 1);
    Fault f;
    f.label = "swap[" + std::to_string(a) + "<->" + std::to_string(b) + "+" +
              std::to_string(len) + ")";
    f.bytes.assign(stream.begin(), stream.end());
    std::swap_ranges(f.bytes.begin() + static_cast<std::ptrdiff_t>(a),
                     f.bytes.begin() + static_cast<std::ptrdiff_t>(a + len),
                     f.bytes.begin() + static_cast<std::ptrdiff_t>(b));
    out.push_back(std::move(f));
  }
  return out;
}

/// Asserts that `decode` is refused with ErrorCode::kUnsupported and a
/// message naming the retired input format ("retired <format> ...").
template <typename Fn>
void expect_retired(const Fn& decode, const std::string& format) {
  try {
    decode();
    ADD_FAILURE() << "retired " << format << " input was accepted";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::kUnsupported) << e.what();
    EXPECT_NE(std::string(e.what()).find("retired " + format),
              std::string::npos)
        << e.what();
  }
}

}  // namespace cliz::fault
