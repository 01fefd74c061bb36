#include "ldlb/core/entry.hpp"

namespace ldlb {

class CancellationToken;

int spin_forever(int n) {
  int acc = 0;
  while (true) {
    acc += n;
  }
  return acc;
}

int spin_polled(int n, const CancellationToken& token) {
  int acc = 0;
  while (acc < n) {
    if (token.cancelled()) break;
    ++acc;
  }
  return acc;
}

int check_budget(int acc, CancellationToken* cancel) {
  if (cancel != nullptr) cancel->check();
  return acc;
}

int spin_delegating(int n, CancellationToken* cancel) {
  int acc = 1;
  while (acc < n) {
    acc += check_budget(acc, cancel);
  }
  return acc;
}

// A same-named overload that merely names a cancelled state is not a poll,
// so the loop below, whose only call resolves to it by name, is unbounded.
enum class Outcome { kDone, kCancelled };

const char* to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kDone:
      return "done";
    case Outcome::kCancelled:
      return "cancelled";
  }
  return "?";
}

int spin_named(int n) {
  int acc = 0;
  while (acc < n) {
    acc += to_string(Outcome::kDone)[0];
  }
  return acc;
}

}  // namespace ldlb
