// Common error-handling primitives shared by every module: gcm::Error and
// GCM_CHECK, the always-active validation of user-facing input (bad files,
// overflow, API misuse) that throws gcm::Error with a message. Internal
// invariants use GCM_DCHECK (util/check.hpp) instead.
#pragma once

// The library hard-requires C++20: std::bit_width in encoding/bit_ops.hpp,
// defaulted operator== in encoding/rans.hpp and grammar/slp.hpp, and
// designated initializers throughout. Fail fast with a clear message instead
// of a cryptic "'bit_width' is not a member of 'std'" deep in a header.
// (MSVC reports 199711L in __cplusplus unless /Zc:__cplusplus is set, so
// also accept its _MSVC_LANG macro.)
#if !(__cplusplus >= 202002L || (defined(_MSVC_LANG) && _MSVC_LANG >= 202002L))
#error "gcm requires C++20 or newer: compile with -std=c++20 (or /std:c++20)"
#endif

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace gcm {

/// Exception thrown for all recoverable library errors (corrupt input,
/// overflow, API misuse). Carries a human-readable message.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
[[noreturn]] inline void ThrowCheckFailure(const char* expr, const char* file,
                                           int line, const std::string& msg) {
  std::ostringstream os;
  os << "GCM_CHECK failed: (" << expr << ") at " << file << ":" << line;
  if (!msg.empty()) os << " -- " << msg;
  throw Error(os.str());
}
}  // namespace detail

#define GCM_CHECK(expr)                                                      \
  do {                                                                       \
    if (!(expr))                                                             \
      ::gcm::detail::ThrowCheckFailure(#expr, __FILE__, __LINE__, "");       \
  } while (0)

#define GCM_CHECK_MSG(expr, msg)                                             \
  do {                                                                       \
    if (!(expr)) {                                                           \
      std::ostringstream os_;                                                \
      os_ << msg;                                                            \
      ::gcm::detail::ThrowCheckFailure(#expr, __FILE__, __LINE__, os_.str()); \
    }                                                                        \
  } while (0)

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

}  // namespace gcm
