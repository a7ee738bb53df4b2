#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace cliz {

/// Failure taxonomy carried on every cliz::Error. Callers (clizc maps each
/// code to an exit status) branch on the code instead of parsing what():
/// corrupt or over-limit streams are fatal for that stream,
/// cancellation/deadline and I/O failures are request-level and may be
/// retried.
enum class ErrorCode : std::uint8_t {
  kCorruptStream = 0,    ///< malformed/damaged bytes (default for stream checks)
  kLimitExceeded = 1,    ///< declared header value exceeds a ResourceLimits cap
  kCancelled = 2,        ///< CancelToken::cancel() observed mid-operation
  kDeadlineExceeded = 3, ///< CancelToken deadline passed mid-operation
  kIo = 4,               ///< filesystem/stream I/O failure
  kUnsupported = 5,      ///< valid but not decodable by this build (future
                         ///< version, or a retired format such as v1
                         ///< lossless modes, CLKS frames, CLZA v1, RLE)
  kBadArgument = 6,      ///< caller misuse of the public API
};

/// Stable name for logs and CLI diagnostics.
inline const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::kCorruptStream: return "CorruptStream";
    case ErrorCode::kLimitExceeded: return "LimitExceeded";
    case ErrorCode::kCancelled: return "Cancelled";
    case ErrorCode::kDeadlineExceeded: return "DeadlineExceeded";
    case ErrorCode::kIo: return "Io";
    case ErrorCode::kUnsupported: return "Unsupported";
    case ErrorCode::kBadArgument: return "BadArgument";
  }
  return "Unknown";
}

/// Whether a retry of the same operation could plausibly succeed. Corrupt
/// and over-limit streams will fail identically every time (never retry —
/// the transfer simulator and any server should abandon them); transient
/// I/O and an expired deadline may succeed on a fresh attempt with a new
/// budget. An explicit cancel is a caller decision, not retryable.
inline bool error_is_retryable(ErrorCode code) noexcept {
  return code == ErrorCode::kIo || code == ErrorCode::kDeadlineExceeded;
}

/// Exception thrown on malformed input streams, corrupt data, or misuse of
/// the public API. All library entry points validate their inputs and throw
/// Error rather than invoking undefined behaviour. The ErrorCode classifies
/// the failure; the what() string carries the human-readable context
/// (including stream byte offsets where the thrower knows them).
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what)
      : std::runtime_error(what), code_(ErrorCode::kCorruptStream) {}
  Error(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  [[nodiscard]] ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

/// Validates a runtime condition on data coming from outside the library
/// (user arguments, serialized streams). Active in all build types. Throws
/// with kCorruptStream — the right default for stream parsing, which is
/// where the overwhelming majority of checks live.
#define CLIZ_REQUIRE(cond, msg)                                        \
  do {                                                                 \
    if (!(cond)) {                                                     \
      throw ::cliz::Error(std::string("cliz: ") + (msg) + " [" #cond   \
                          " failed at " __FILE__ ":" +                 \
                          std::to_string(__LINE__) + "]");             \
    }                                                                  \
  } while (false)

/// Code-carrying variant for checks whose failure is not stream
/// corruption: argument validation (kBadArgument), governor budgets
/// (kLimitExceeded), unknown-version or retired formats (kUnsupported), ...
#define CLIZ_REQUIRE_CODE(cond, code, msg)                             \
  do {                                                                 \
    if (!(cond)) {                                                     \
      throw ::cliz::Error(::cliz::ErrorCode::code,                     \
                          std::string("cliz: ") + (msg) + " [" #cond   \
                          " failed at " __FILE__ ":" +                 \
                          std::to_string(__LINE__) + "]");             \
    }                                                                  \
  } while (false)

}  // namespace cliz
