// Error taxonomy and contract checking for the ldlb library.
//
// Every failure the library can report derives from `ldlb::Error`, so a
// caller that wants "anything ldlb noticed went wrong" catches one type,
// while the test suite and the guarded-execution layer (fault/guarded_run)
// can distinguish *how* a run went wrong:
//
//   Error
//   ├── ContractViolation   broken precondition / internal invariant
//   ├── ParseError          malformed textual input (line + offending token)
//   ├── IoError             a filesystem operation failed (path + errno;
//   │                       real or injected by fault/env_fault)
//   ├── ModelViolation      an algorithm broke the LOCAL-model output
//   │                       contract (missing or disagreeing announcements)
//   ├── BudgetExceeded      a guarded run overran its round / message /
//   │                       wall-clock budget
//   ├── FaultInjected       a simulated process crash (crash_at_level in
//   │                       recover/resumable_adversary.hpp)
//   └── Cancelled           a CancellationToken (util/cancellation.hpp) was
//                           polled after cancellation / deadline expiry
//
// These exceptions guard *logic* errors and adversarial misbehaviour; they
// are not used for ordinary control flow.
#pragma once

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

namespace ldlb {

/// Common base of every error the library throws.
class Error : public std::logic_error {
 public:
  explicit Error(const std::string& what) : std::logic_error(what) {}
};

/// Thrown when a documented precondition or internal invariant is violated.
class ContractViolation : public Error {
 public:
  explicit ContractViolation(const std::string& what) : Error(what) {}
};

/// Thrown by the text parsers (graph_io, certificate_io) on malformed
/// input. Carries the 1-based line number and the offending token so that
/// tooling can point at the exact defect.
class ParseError : public Error {
 public:
  ParseError(const std::string& what, int line, std::string token = "")
      : Error(what), line_(line), token_(std::move(token)) {}

  /// 1-based line of the defect; -1 when unknown (e.g. unexpected EOF
  /// before any line was read).
  [[nodiscard]] int line() const { return line_; }
  /// The token that failed to parse ("" when the problem is a missing
  /// token).
  [[nodiscard]] const std::string& token() const { return token_; }

 private:
  int line_;
  std::string token_;
};

/// Thrown by the file helpers (util/atomic_file, the certificate log) when a
/// filesystem operation fails — for real, or injected through the
/// fault/env_fault seam. Carries the path involved and the errno value, so
/// the supervision layer can classify transient (ENOSPC, EAGAIN, EINTR)
/// against permanent (EIO, ...) environment failures; the what() text
/// includes the failing operation and the errno description.
class IoError : public Error {
 public:
  IoError(const std::string& what, std::string path, int error_code = 0)
      : Error(what), path_(std::move(path)), error_code_(error_code) {}

  [[nodiscard]] const std::string& path() const { return path_; }
  /// The errno value of the failing operation (0 when unknown).
  [[nodiscard]] int error_code() const { return error_code_; }

 private:
  std::string path_;
  int error_code_;
};

/// Thrown by CancellationToken::check() once cancellation was requested (or
/// the token's deadline passed). Carries the structured reason given to
/// request_cancel(); the guarded layer classifies this as
/// RunStatus::kCancelled instead of letting a cancelled run look torn.
class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& what, std::string reason = "")
      : Error(what), reason_(std::move(reason)) {}

  /// The reason passed to CancellationToken::request_cancel ("" if none).
  [[nodiscard]] const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

/// Thrown by the simulator when an algorithm breaks the output contract of
/// the LOCAL model: an end with no announced weight, or the two ends of an
/// edge announcing different weights.
class ModelViolation : public Error {
 public:
  ModelViolation(const std::string& what, std::int64_t node = -1,
                 std::int64_t edge = -1)
      : Error(what), node_(node), edge_(edge) {}

  /// Offending node id, -1 when the violation is edge-scoped.
  [[nodiscard]] std::int64_t node() const { return node_; }
  /// Offending edge/arc id, -1 when the violation is node-scoped.
  [[nodiscard]] std::int64_t edge() const { return edge_; }

 private:
  std::int64_t node_;
  std::int64_t edge_;
};

/// Thrown by the simulator when a run overruns one of its budgets.
class BudgetExceeded : public Error {
 public:
  enum class Kind { kRounds, kMessages, kWallClock };

  BudgetExceeded(const std::string& what, Kind kind, long long limit,
                 long long used)
      : Error(what), kind_(kind), limit_(limit), used_(used) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  /// The configured budget.
  [[nodiscard]] long long limit() const { return limit_; }
  /// What was actually consumed when the budget tripped (microseconds for
  /// the wall-clock kind).
  [[nodiscard]] long long used() const { return used_; }

 private:
  Kind kind_;
  long long limit_;
  long long used_;
};

/// Thrown by crash_at_level (recover/resumable_adversary.hpp) to simulate
/// a process crash right after a checkpoint, for the kill-and-resume tests
/// and demos.
class FaultInjected : public Error {
 public:
  explicit FaultInjected(const std::string& what) : Error(what) {}
};

namespace detail {
[[noreturn]] inline void contract_fail(const char* kind, const char* expr,
                                       const char* file, int line,
                                       const std::string& msg) {
  std::ostringstream os;
  os << kind << " failed: " << expr << " at " << file << ":" << line;
  if (!msg.empty()) os << " — " << msg;
  throw ContractViolation(os.str());
}
}  // namespace detail

}  // namespace ldlb

/// Precondition check: validates arguments at API boundaries.
#define LDLB_REQUIRE(expr)                                                   \
  do {                                                                       \
    if (!(expr))                                                             \
      ::ldlb::detail::contract_fail("precondition", #expr, __FILE__,         \
                                    __LINE__, "");                           \
  } while (0)

/// Precondition check with an explanatory message.
#define LDLB_REQUIRE_MSG(expr, msg)                                          \
  do {                                                                       \
    if (!(expr)) {                                                           \
      std::ostringstream ldlb_os_;                                           \
      ldlb_os_ << msg;                                                       \
      ::ldlb::detail::contract_fail("precondition", #expr, __FILE__,         \
                                    __LINE__, ldlb_os_.str());               \
    }                                                                        \
  } while (0)

/// Internal invariant check: validates the library's own state.
#define LDLB_ENSURE(expr)                                                    \
  do {                                                                       \
    if (!(expr))                                                             \
      ::ldlb::detail::contract_fail("invariant", #expr, __FILE__, __LINE__,  \
                                    "");                                     \
  } while (0)

/// Internal invariant check with an explanatory message.
#define LDLB_ENSURE_MSG(expr, msg)                                           \
  do {                                                                       \
    if (!(expr)) {                                                           \
      std::ostringstream ldlb_os_;                                           \
      ldlb_os_ << msg;                                                       \
      ::ldlb::detail::contract_fail("invariant", #expr, __FILE__, __LINE__,  \
                                    ldlb_os_.str());                         \
    }                                                                        \
  } while (0)
