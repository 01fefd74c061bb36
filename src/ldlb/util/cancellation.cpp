#include "ldlb/util/cancellation.hpp"

#include <limits>
#include <sstream>

namespace ldlb {

Deadline Deadline::in(double seconds) {
  LDLB_REQUIRE_MSG(seconds >= 0, "a deadline cannot be in the past");
  Deadline d;
  d.when_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  return d;
}

Deadline Deadline::at(Clock::time_point when) {
  Deadline d;
  d.when_ = when;
  return d;
}

double Deadline::remaining_seconds() const {
  if (!when_.has_value()) return std::numeric_limits<double>::infinity();
  // ldlb-analyze: allow(determinism): remaining time only gates cutoff and
  // progress reporting; outputs never embed it.
  return std::chrono::duration<double>(*when_ - Clock::now()).count();
}

void CancellationToken::request_cancel(const std::string& reason) {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (cancelled_.load(std::memory_order_relaxed)) return;  // first wins
    reason_ = reason;
  }
  // Release ordering: a thread that observes the flag also observes reason_.
  cancelled_.store(true, std::memory_order_release);
}

bool CancellationToken::cancelled() const {
  if (cancelled_.load(std::memory_order_acquire)) return true;
  if (deadline_.expired()) {
    // Record the deadline as the structured reason; safe to race — the
    // first writer wins and the flag flips exactly once.
    std::ostringstream os;
    os << "deadline of " << -deadline_.remaining_seconds()
       << "s ago exceeded";
    {
      std::lock_guard<std::mutex> lk(mutex_);
      if (!cancelled_.load(std::memory_order_relaxed)) reason_ = os.str();
    }
    cancelled_.store(true, std::memory_order_release);
    return true;
  }
  return false;
}

std::string CancellationToken::reason() const {
  std::lock_guard<std::mutex> lk(mutex_);
  return reason_;
}

void CancellationToken::check() {
  if (!cancelled()) return;
  const std::string why = reason();
  throw Cancelled("run cancelled: " + why, why);
}

}  // namespace ldlb
