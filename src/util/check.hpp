// Debug invariant layer: GCM_DCHECK and friends.
//
// Two tiers of checking exist in the library:
//
//   * GCM_CHECK  (util/common.hpp) -- user-facing validation (bad files,
//     overflow, API misuse). Always active, throws gcm::Error. The cost is
//     paid on cold paths only (parsers, constructors, public entry points).
//   * GCM_DCHECK (this header) -- internal invariants and hot-path
//     preconditions (kernel inner loops, element access, cursor
//     arithmetic, claim accounting). Compiled out entirely in plain
//     Release builds; in Debug and sanitizer builds a violation is FATAL:
//     it prints the expression, file:line and a message to stderr and
//     aborts, so a sanitizer run produces a report + core instead of
//     unwinding past the broken invariant.
//
// GCM_DCHECK deliberately aborts instead of throwing: once an internal
// invariant is broken the object's state is unreliable, and stack unwinding
// would run destructors over that state (and can mask the failure entirely
// inside a try/catch in a test harness). Aborting also cooperates with
// ASan/TSan/UBSan, which hook abort() and emit their diagnostics first.
//
// Enablement: active when NDEBUG is not defined (Debug builds), when any
// recognised sanitizer is active (so Release sanitizer CI still checks), or
// when forced with -DGCM_FORCE_DCHECKS=1 (the GCM_SANITIZE CMake option
// passes this so the contract does not depend on compiler detection).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

// ---- Sanitizer detection (gcc defines __SANITIZE_*, clang has
// __has_feature). Kept public so other layers (memory_tracker) can branch
// on the same condition.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GCM_SANITIZERS_ACTIVE 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) || __has_feature(undefined_behavior_sanitizer)
#define GCM_SANITIZERS_ACTIVE 1
#endif
#endif
#ifndef GCM_SANITIZERS_ACTIVE
#define GCM_SANITIZERS_ACTIVE 0
#endif

#if !defined(NDEBUG) || GCM_SANITIZERS_ACTIVE || \
    (defined(GCM_FORCE_DCHECKS) && GCM_FORCE_DCHECKS)
#define GCM_DCHECK_ENABLED 1
#else
#define GCM_DCHECK_ENABLED 0
#endif

namespace gcm::detail {

/// Prints the failure and aborts. Out-of-line-ish (still inline for
/// header-only use) so the hot-path macro expansion stays small.
[[noreturn]] inline void DcheckFailure(const char* expr, const char* file,
                                       int line, const std::string& msg) {
  std::fprintf(stderr, "GCM_DCHECK failed: (%s) at %s:%d%s%s\n", expr, file,
               line, msg.empty() ? "" : " -- ", msg.c_str());
  std::fflush(stderr);
  std::abort();
}

}  // namespace gcm::detail

#if GCM_DCHECK_ENABLED

#define GCM_DCHECK(expr)                                                   \
  do {                                                                     \
    if (!(expr))                                                           \
      ::gcm::detail::DcheckFailure(#expr, __FILE__, __LINE__, "");         \
  } while (0)

#define GCM_DCHECK_MSG(expr, msg)                                          \
  do {                                                                     \
    if (!(expr)) {                                                         \
      std::ostringstream gcm_dcheck_os_;                                   \
      gcm_dcheck_os_ << msg;                                               \
      ::gcm::detail::DcheckFailure(#expr, __FILE__, __LINE__,              \
                                   gcm_dcheck_os_.str());                  \
    }                                                                      \
  } while (0)

/// Bounds check for hot-path element access: index must be < size. The
/// message carries both values, which is usually all a post-mortem needs.
#define GCM_DCHECK_BOUNDS(index, size)                                     \
  do {                                                                     \
    auto gcm_dcheck_i_ = (index);                                          \
    auto gcm_dcheck_n_ = (size);                                           \
    if (!(gcm_dcheck_i_ < gcm_dcheck_n_)) {                                \
      std::ostringstream gcm_dcheck_os_;                                   \
      gcm_dcheck_os_ << "index " << gcm_dcheck_i_ << " out of range [0, "  \
                     << gcm_dcheck_n_ << ")";                              \
      ::gcm::detail::DcheckFailure(#index " < " #size, __FILE__, __LINE__, \
                                   gcm_dcheck_os_.str());                  \
    }                                                                      \
  } while (0)

#else  // GCM_DCHECK_ENABLED

// Compiled out: the operands are syntax-checked (sizeof, unevaluated) so a
// DCHECK cannot bit-rot in Release, but no code is generated and variables
// used only in checks do not trigger -Wunused warnings.
#define GCM_DCHECK(expr) ((void)sizeof((expr) ? 1 : 0))
#define GCM_DCHECK_MSG(expr, msg) ((void)sizeof((expr) ? 1 : 0))
#define GCM_DCHECK_BOUNDS(index, size) \
  ((void)sizeof(((index) < (size)) ? 1 : 0))

#endif  // GCM_DCHECK_ENABLED
