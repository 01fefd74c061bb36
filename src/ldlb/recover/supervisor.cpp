#include "ldlb/recover/supervisor.hpp"

#include <cerrno>
#include <cmath>
#include <sstream>

namespace ldlb {

bool RetryPolicy::transient(RunStatus status, int io_errno) const {
  switch (status) {
    case RunStatus::kBudgetExceeded:
      return true;
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

}  // namespace ldlb
