// Cancellation-governor tests: a CancelToken (or armed deadline) must abort
// compress, decompress, autotune, and archive work cooperatively — a clean
// Error carrying kCancelled / kDeadlineExceeded within one chunk/segment
// granule, never a crash, a leak, or a torn result. The hammer test races
// cancel() from another thread against multi-threaded chunked decodes: every
// iteration must end in either a bit-exact decode or a kCancelled refusal.
#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <thread>

#include "src/common/governor.hpp"
#include "src/common/rng.hpp"
#include "src/common/status.hpp"
#include "src/core/autotune.hpp"
#include "src/core/chunked.hpp"
#include "src/core/cliz.hpp"
#include "src/core/codec_context.hpp"

namespace cliz {
namespace {

NdArray<float> sample_field(std::size_t n0, std::size_t n1, std::size_t n2,
                            std::uint64_t seed) {
  NdArray<float> data(Shape({n0, n1, n2}));
  Rng rng(seed);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<float>(0.05 * static_cast<double>(i % 113) +
                                 0.02 * rng.normal());
  }
  return data;
}

ErrorCode code_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const Error& e) {
    return e.code();
  }
  ADD_FAILURE() << "no Error thrown";
  return ErrorCode::kCorruptStream;
}

TEST(ErrorTaxonomy, NamesAndRetryability) {
  EXPECT_STREQ(error_code_name(ErrorCode::kCorruptStream), "CorruptStream");
  EXPECT_STREQ(error_code_name(ErrorCode::kLimitExceeded), "LimitExceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::kCancelled), "Cancelled");
  EXPECT_STREQ(error_code_name(ErrorCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(error_code_name(ErrorCode::kIo), "Io");
  EXPECT_STREQ(error_code_name(ErrorCode::kUnsupported), "Unsupported");
  EXPECT_STREQ(error_code_name(ErrorCode::kBadArgument), "BadArgument");

  // Only transient categories are worth a retry; resending a stream the
  // decoder rejected (corrupt, over-limit, bad call) can never succeed.
  EXPECT_TRUE(error_is_retryable(ErrorCode::kIo));
  EXPECT_TRUE(error_is_retryable(ErrorCode::kDeadlineExceeded));
  EXPECT_FALSE(error_is_retryable(ErrorCode::kCorruptStream));
  EXPECT_FALSE(error_is_retryable(ErrorCode::kLimitExceeded));
  EXPECT_FALSE(error_is_retryable(ErrorCode::kCancelled));
  EXPECT_FALSE(error_is_retryable(ErrorCode::kUnsupported));
  EXPECT_FALSE(error_is_retryable(ErrorCode::kBadArgument));

  // Legacy single-argument throws keep their historical classification.
  EXPECT_EQ(Error("x").code(), ErrorCode::kCorruptStream);
}

TEST(CancelGovernor, PreCancelledCompressRefuses) {
  const auto data = sample_field(8, 12, 10, 11);
  CancelToken token;
  token.cancel();
  ClizOptions opts;
  opts.cancel = &token;
  const ClizCompressor comp(PipelineConfig::defaults(3), opts);
  EXPECT_EQ(code_of([&] { (void)comp.compress(data, 1e-3); }),
            ErrorCode::kCancelled);
}

TEST(CancelGovernor, PreCancelledDecodeRefuses) {
  const auto data = sample_field(8, 12, 10, 12);
  const auto stream =
      ClizCompressor(PipelineConfig::defaults(3)).compress(data, 1e-3);
  CancelToken token;
  token.cancel();
  CodecContext ctx;
  ctx.cancel = &token;
  EXPECT_EQ(code_of([&] { (void)ClizCompressor::decompress(stream, ctx); }),
            ErrorCode::kCancelled);
  // The same context decodes fine once the token is detached.
  ctx.cancel = nullptr;
  EXPECT_NO_THROW((void)ClizCompressor::decompress(stream, ctx));
}

TEST(CancelGovernor, ExpiredDeadlineRefusesWithDeadlineCode) {
  const auto data = sample_field(8, 12, 10, 13);
  const auto stream =
      ClizCompressor(PipelineConfig::defaults(3)).compress(data, 1e-3);
  CancelToken token;
  token.set_deadline_after(std::chrono::nanoseconds(0));
  // An armed, already-expired deadline reports its own category.
  ASSERT_TRUE(token.cancel_requested());
  CodecContext ctx;
  ctx.cancel = &token;
  EXPECT_EQ(code_of([&] { (void)ClizCompressor::decompress(stream, ctx); }),
            ErrorCode::kDeadlineExceeded);
}

TEST(CancelGovernor, ChunkedDecodeHonoursPoolToken) {
  const auto data = sample_field(16, 20, 18, 14);
  ChunkedOptions copts;
  copts.chunks = 8;
  const auto frame =
      chunked_compress(data, 1e-3, PipelineConfig::defaults(3), nullptr,
                       copts);
  CancelToken token;
  token.cancel();
  ChunkedScratch scratch;
  scratch.pool.set_governor(ResourceLimits{}, &token);
  EXPECT_EQ(code_of([&] { (void)chunked_decompress(frame, &scratch); }),
            ErrorCode::kCancelled);
}

TEST(CancelGovernor, AutotuneHonoursToken) {
  const auto data = sample_field(8, 12, 10, 15);
  CancelToken token;
  token.cancel();
  AutotuneOptions opts;
  opts.codec.cancel = &token;
  EXPECT_EQ(code_of([&] { (void)autotune(data, 1e-3, nullptr, opts); }),
            ErrorCode::kCancelled);
}

TEST(CancelGovernor, HammerRacingCancelAgainstChunkedDecode) {
  // Race cancel() at staggered offsets against a multi-chunk parallel
  // decode: every iteration must end in a bit-exact result or a clean
  // kCancelled — and the worker pool must stay usable afterwards. Under
  // ASan/TSan this doubles as the leak/race check for the abort path.
  const auto data = sample_field(32, 24, 20, 17);
  ChunkedOptions copts;
  copts.chunks = 8;
  const auto frame =
      chunked_compress(data, 1e-3, PipelineConfig::defaults(3), nullptr,
                       copts);
  const auto pristine = chunked_decompress(frame);
  ASSERT_TRUE(pristine.shape() == data.shape());

  std::size_t cancelled = 0;
  constexpr int kRounds = 24;
  for (int round = 0; round < kRounds; ++round) {
    CancelToken token;
    ChunkedScratch scratch;
    scratch.pool.set_governor(ResourceLimits{}, &token);
    // Stagger the cancel across the decode's lifetime, round-robin from
    // "immediately" to "well after it finished".
    const auto delay = std::chrono::microseconds(50 * (round % 12));
    // The zero-delay rounds cancel BEFORE the decode starts: a guaranteed
    // abort that keeps the "some rounds must cancel" assertion below
    // deterministic no matter how fast the decode finishes or how late the
    // killer thread gets scheduled.
    if (delay.count() == 0) token.cancel();
    std::thread killer([&token, delay] {
      if (delay.count() == 0) return;
      std::this_thread::sleep_for(delay);
      token.cancel();
    });
    try {
      const auto out = chunked_decompress(frame, &scratch);
      ASSERT_TRUE(out.shape() == pristine.shape());
      EXPECT_EQ(std::memcmp(out.flat().data(), pristine.flat().data(),
                            out.size() * sizeof(float)),
                0)
          << "round " << round << ": decode raced to a torn result";
    } catch (const Error& e) {
      EXPECT_EQ(e.code(), ErrorCode::kCancelled) << e.what();
      ++cancelled;
    }
    killer.join();
  }
  // With an immediate cancel in the rotation at least some rounds must
  // abort; if none did, the token was never consulted.
  EXPECT_GT(cancelled, 0u);

  // The abort path must not poison later decodes.
  EXPECT_NO_THROW((void)chunked_decompress(frame));
}

}  // namespace
}  // namespace cliz
