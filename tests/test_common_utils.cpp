#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "src/common/crc32c.hpp"
#include "src/common/parallel.hpp"
#include "src/common/timer.hpp"
#include "src/common/version.hpp"

namespace cliz {
namespace {

TEST(Version, IsSemver) {
  const std::string v = version();
  int dots = 0;
  for (const char c : v) {
    if (c == '.') {
      ++dots;
    } else {
      ASSERT_TRUE(c >= '0' && c <= '9') << v;
    }
  }
  EXPECT_EQ(dots, 2);
}

TEST(Timer, MeasuresElapsedTime) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double s = t.seconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

TEST(Parallel, HardwareThreadsPositive) {
  EXPECT_GE(hardware_threads(), 1);
}

TEST(Parallel, ForCoversRangeExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(0, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, EmptyRangeIsNoOp) {
  int calls = 0;
  parallel_for(5, 5, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(Parallel, SubrangeRespected) {
  std::vector<int> hits(10, 0);
  parallel_for(3, 7, [&](std::size_t i) { hits[i] = 1; });
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(hits[i], i >= 3 && i < 7 ? 1 : 0);
  }
}

std::vector<std::uint8_t> ascii(const char* s) {
  return {reinterpret_cast<const std::uint8_t*>(s),
          reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s)};
}

TEST(Crc32c, Rfc3720TestVectors) {
  // iSCSI standard vectors (RFC 3720 B.4).
  const std::vector<std::uint8_t> zeros(32, 0x00);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  const std::vector<std::uint8_t> ones(32, 0xFF);
  EXPECT_EQ(crc32c(ones), 0x62A8AB43u);
  std::vector<std::uint8_t> inc(32);
  for (std::size_t i = 0; i < 32; ++i) inc[i] = static_cast<std::uint8_t>(i);
  EXPECT_EQ(crc32c(inc), 0x46DD794Eu);
  std::vector<std::uint8_t> dec(32);
  for (std::size_t i = 0; i < 32; ++i) {
    dec[i] = static_cast<std::uint8_t>(31 - i);
  }
  EXPECT_EQ(crc32c(dec), 0x113FDB5Cu);
  EXPECT_EQ(crc32c(ascii("123456789")), 0xE3069283u);
  EXPECT_EQ(crc32c({}), 0x00000000u);
}

TEST(Crc32c, SoftwareKernelMatchesDispatch) {
  // The dispatched digest (hardware where available) must agree with the
  // portable slice-by-8 kernel on every length and alignment, so streams
  // written on SSE4.2 machines verify everywhere else.
  std::vector<std::uint8_t> buf(300);
  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (auto& b : buf) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    b = static_cast<std::uint8_t>(x);
  }
  for (std::size_t off = 0; off < 9; ++off) {
    for (std::size_t len = 0; len + off <= buf.size(); len += 7) {
      const std::span<const std::uint8_t> s(buf.data() + off, len);
      const std::uint32_t sw =
          ~detail_crc32c::update_sw(~0u, s.data(), s.size());
      EXPECT_EQ(crc32c(s), sw) << "off=" << off << " len=" << len;
    }
  }
}

TEST(Crc32c, DetectsSingleBitFlips) {
  auto msg = ascii("climate archives cross the WAN");
  const std::uint32_t clean = crc32c(msg);
  for (std::size_t byte = 0; byte < msg.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      msg[byte] ^= static_cast<std::uint8_t>(1u << bit);
      EXPECT_NE(crc32c(msg), clean) << byte << ":" << bit;
      msg[byte] ^= static_cast<std::uint8_t>(1u << bit);
    }
  }
}

}  // namespace
}  // namespace cliz
