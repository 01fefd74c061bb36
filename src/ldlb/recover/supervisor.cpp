#include "ldlb/recover/supervisor.hpp"

#include <cerrno>
#include <cmath>
#include <sstream>

namespace ldlb {

bool RetryPolicy::transient(RunStatus status, int io_errno) const {
  switch (status) {
    case RunStatus::kBudgetExceeded:
      return true;
    case RunStatus::kFaultInjected:
      return retry_fault_injected;
    case RunStatus::kEnvFault:
      // A full disk can drain, an interrupted call can be re-issued; a
      // hardware-level EIO (or an unattributed failure) will not improve.
      return io_errno == ENOSPC || io_errno == EAGAIN || io_errno == EINTR;
    case RunStatus::kOk:
    case RunStatus::kModelViolation:
    case RunStatus::kCancelled:
    case RunStatus::kContractViolation:
      return false;
  }
  return false;
}

RunBudget RetryPolicy::escalated(const RunBudget& base, int attempt) const {
  LDLB_REQUIRE(attempt >= 1);
  const double scale = std::pow(budget_factor, attempt - 1);
  RunBudget out = base;
  if (base.max_rounds > 0) {
    out.max_rounds = static_cast<int>(std::llround(base.max_rounds * scale));
    if (out.max_rounds < base.max_rounds) out.max_rounds = base.max_rounds;
  }
  if (base.max_messages > 0) {
    out.max_messages = std::llround(base.max_messages * scale);
    if (out.max_messages < base.max_messages)
      out.max_messages = base.max_messages;
  }
  if (base.max_wall_seconds > 0) {
    out.max_wall_seconds = base.max_wall_seconds * scale;
  }
  return out;
}

std::string SupervisionAttempt::to_string() const {
  std::ostringstream os;
  os << "attempt " << attempt << ": max_rounds=" << max_rounds << " -> "
     << ldlb::to_string(status);
  if (!error.empty()) os << " (" << error << ")";
  return os.str();
}

std::string SupervisionLog::to_string() const {
  std::ostringstream os;
  for (std::size_t i = 0; i < attempts.size(); ++i) {
    if (i > 0) os << "\n";
    os << attempts[i].to_string();
  }
  if (exhausted) os << "\nsupervision exhausted: giving up";
  return os.str();
}

Supervisor::Supervisor(RetryPolicy policy) : policy_(policy) {
  LDLB_REQUIRE_MSG(policy_.max_attempts >= 1,
                   "a retry policy needs at least one attempt");
  LDLB_REQUIRE_MSG(policy_.budget_factor >= 1.0,
                   "budget escalation must not shrink budgets");
}

template <typename RunOnce>
GuardedOutcome Supervisor::supervise(const GuardedRunOptions& options,
                                     RunOnce&& once) {
  log_ = {};
  GuardedRunOptions attempt_options = options;
  for (int attempt = 1;; ++attempt) {
    attempt_options.budget = policy_.escalated(options.budget, attempt);
    GuardedOutcome outcome = once(attempt_options);
    log_.attempts.push_back({attempt, attempt_options.budget.max_rounds,
                             outcome.status, outcome.error});
    const bool retryable =
        policy_.transient(outcome.status, outcome.env_errno);
    if (!retryable || attempt >= policy_.max_attempts) {
      log_.exhausted = retryable;  // still transient, but out of attempts
      outcome.diagnostics.supervision = log_.to_string();
      return outcome;
    }
  }
}

GuardedOutcome Supervisor::run_ec(const Multigraph& g, EcAlgorithm& alg,
                                  const GuardedRunOptions& options) {
  return supervise(options, [&](const GuardedRunOptions& o) {
    return guarded_run_ec(g, alg, o);
  });
}

GuardedOutcome Supervisor::run_po(const Digraph& g, PoAlgorithm& alg,
                                  const GuardedRunOptions& options) {
  return supervise(options, [&](const GuardedRunOptions& o) {
    return guarded_run_po(g, alg, o);
  });
}

}  // namespace ldlb
