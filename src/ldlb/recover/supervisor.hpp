// Declarative retry policy for supervised level builds.
//
// guarded_run_ec/po (fault/guarded_run.hpp) classifies *one* attempt as a
// RunStatus. A RetryPolicy turns that classification into a recovery
// decision: transient outcomes (a tripped budget, a full disk) are retried
// with escalated budgets, while permanent ones (ModelViolation,
// ContractViolation, a hard I/O error) fail fast — a broken algorithm does
// not get less broken by re-running it. Every attempt is recorded in a
// SupervisionLog.
//
// The resumable adversary (resumable_adversary.hpp) runs each level build
// under this policy and hands the log back in its ResumeInfo.
#pragma once

#include <string>
#include <vector>

#include "ldlb/fault/guarded_run.hpp"

namespace ldlb {

/// When and how to retry a failed run.
struct RetryPolicy {
  int max_attempts = 3;        ///< total attempts, including the first
  double budget_factor = 2.0;  ///< per-retry multiplier on every finite budget

  /// True for outcomes worth retrying: budget trips always, environment
  /// faults when their errno names a condition that can clear on its own
  /// (ENOSPC, EAGAIN, EINTR — pass the outcome's env_errno as `io_errno`).
  /// Model/contract violations, checker rejections, hard I/O errors (EIO,
  /// or an unknown errno of 0, which is also what a bad_alloc produces) and
  /// cancellation are permanent — cancellation in particular must stop a
  /// supervised run, not restart it.
  [[nodiscard]] bool transient(RunStatus status, int io_errno = 0) const;

  /// The budget for the 1-based `attempt`: every finite component of `base`
  /// scaled by budget_factor^(attempt-1).
  [[nodiscard]] RunBudget escalated(const RunBudget& base, int attempt) const;
};

/// One supervised attempt, as recorded in the log.
struct SupervisionAttempt {
  int attempt = 0;        ///< 1-based
  int max_rounds = 0;     ///< round budget this attempt ran under
  RunStatus status = RunStatus::kOk;
  std::string error;      ///< what() of the failure ("" on success)

  [[nodiscard]] std::string to_string() const;
};

/// Every attempt made for one task.
struct SupervisionLog {
  std::vector<SupervisionAttempt> attempts;
  bool exhausted = false;  ///< gave up: still transient on the last attempt

  [[nodiscard]] std::string to_string() const;
};

}  // namespace ldlb
