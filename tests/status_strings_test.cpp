// Exhaustiveness pin for the status / fault vocabularies. Every switch here
// deliberately has no default case: adding an enumerator to RunStatus,
// FsOp, EnvFaultMode or BudgetExceeded::Kind without updating its
// to_string (and this test) turns into a -Wswitch compile failure in this
// file rather than an "unknown" string leaking into logs.
#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>

#include "ldlb/fault/env_fault.hpp"
#include "ldlb/fault/guarded_run.hpp"
#include "ldlb/recover/supervisor.hpp"
#include "ldlb/util/error.hpp"

namespace ldlb {
namespace {

// The full enumerator lists. A new enum value added upstream must be added
// here too or the switches below stop compiling.
constexpr RunStatus kAllRunStatuses[] = {
    RunStatus::kOk,           RunStatus::kBudgetExceeded,
    RunStatus::kModelViolation, RunStatus::kCancelled,
    RunStatus::kEnvFault,     RunStatus::kContractViolation,
};

constexpr FsOp kAllFsOps[] = {FsOp::kWrite,    FsOp::kFsync,
                              FsOp::kRename,   FsOp::kDirFsync,
                              FsOp::kTruncate, FsOp::kRead};

constexpr EnvFaultMode kAllEnvFaultModes[] = {
    EnvFaultMode::kEio, EnvFaultMode::kEnospc, EnvFaultMode::kShortWrite};

const char* expected_name(RunStatus status) {
  switch (status) {  // no default: -Wswitch guards exhaustiveness
    case RunStatus::kOk:
      return "ok";
    case RunStatus::kBudgetExceeded:
      return "budget-exceeded";
    case RunStatus::kModelViolation:
      return "model-violation";
    case RunStatus::kCancelled:
      return "cancelled";
    case RunStatus::kEnvFault:
      return "env-fault";
    case RunStatus::kContractViolation:
      return "contract-violation";
  }
  return nullptr;
}

const char* expected_name(FsOp op) {
  switch (op) {
    case FsOp::kWrite:
      return "write";
    case FsOp::kFsync:
      return "fsync";
    case FsOp::kRename:
      return "rename";
    case FsOp::kDirFsync:
      return "dir-fsync";
    case FsOp::kTruncate:
      return "truncate";
    case FsOp::kRead:
      return "read";
  }
  return nullptr;
}

const char* expected_name(EnvFaultMode mode) {
  switch (mode) {
    case EnvFaultMode::kEio:
      return "eio";
    case EnvFaultMode::kEnospc:
      return "enospc";
    case EnvFaultMode::kShortWrite:
      return "short-write";
  }
  return nullptr;
}

TEST(StatusStrings, EveryRunStatusHasAUniqueName) {
  std::set<std::string> seen;
  for (RunStatus status : kAllRunStatuses) {
    const std::string name = to_string(status);
    EXPECT_EQ(name, expected_name(status));
    EXPECT_NE(name, "unknown");
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name: " << name;
  }
  EXPECT_EQ(seen.size(), std::size(kAllRunStatuses));
}

TEST(StatusStrings, EveryFsOpAndModeHasAUniqueName) {
  std::set<std::string> seen;
  for (FsOp op : kAllFsOps) {
    EXPECT_STREQ(to_string(op), expected_name(op));
    EXPECT_TRUE(seen.insert(to_string(op)).second);
  }
  for (EnvFaultMode mode : kAllEnvFaultModes) {
    EXPECT_STREQ(to_string(mode), expected_name(mode));
    EXPECT_TRUE(seen.insert(to_string(mode)).second);
  }
  EXPECT_EQ(seen.size(),
            std::size(kAllFsOps) + std::size(kAllEnvFaultModes));
}

// certificate_tool's --inject flag parses fault plans from the to_string
// vocabulary; the parsers must be exact inverses and reject anything else.
TEST(StatusStrings, FsOpAndModeParsersRoundTrip) {
  for (FsOp op : kAllFsOps) {
    FsOp parsed = FsOp::kWrite;
    EXPECT_TRUE(fs_op_from_string(to_string(op), parsed)) << to_string(op);
    EXPECT_EQ(parsed, op);
  }
  for (EnvFaultMode mode : kAllEnvFaultModes) {
    EnvFaultMode parsed = EnvFaultMode::kEio;
    EXPECT_TRUE(env_fault_mode_from_string(to_string(mode), parsed))
        << to_string(mode);
    EXPECT_EQ(parsed, mode);
  }
  FsOp op_untouched = FsOp::kRename;
  EXPECT_FALSE(fs_op_from_string("no-such-op", op_untouched));
  EXPECT_FALSE(fs_op_from_string("", op_untouched));
  EXPECT_EQ(op_untouched, FsOp::kRename);
  EnvFaultMode mode_untouched = EnvFaultMode::kEnospc;
  EXPECT_FALSE(env_fault_mode_from_string("no-such-mode", mode_untouched));
  EXPECT_EQ(mode_untouched, EnvFaultMode::kEnospc);
}

TEST(StatusStrings, ClassificationUsesTheStatusVocabulary) {
  for (RunStatus status : kAllRunStatuses) {
    GuardedOutcome outcome;
    outcome.status = status;
    EXPECT_EQ(outcome.classification(), expected_name(status));
  }
}

// The retry policy must take a position on every status — this switch-free
// sweep fails if a new status silently falls into the "false" default of
// RetryPolicy::transient without anyone deciding whether it should retry.
TEST(StatusStrings, RetryPolicyCoversEveryStatus) {
  RetryPolicy policy;
  const std::set<RunStatus> transient_without_errno = {
      RunStatus::kBudgetExceeded};
  for (RunStatus status : kAllRunStatuses) {
    EXPECT_EQ(policy.transient(status),
              transient_without_errno.count(status) > 0)
        << to_string(status);
  }
}

}  // namespace
}  // namespace ldlb
