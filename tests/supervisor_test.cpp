// The supervised retry layer: transient-vs-permanent classification of
// RunStatus, budget escalation across attempts, the SupervisionLog, and
// the per-level retry loop of run_adversary_resumable acting on them —
// transient I/O failures retried, permanent ones failing fast.
#include "ldlb/recover/supervisor.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>

#include "ldlb/core/certificate_io.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/recover/resumable_adversary.hpp"
#include "ldlb/util/atomic_file.hpp"

namespace ldlb {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

std::string reference_text(int delta) {
  SeqColorPacking alg{delta};
  return certificate_to_string(run_adversary(alg, delta));
}

// Halts instantly but announces nothing: a permanent ModelViolation.
class Mute : public EcAlgorithm {
 public:
  class Node : public EcNodeState {
   public:
    std::map<Color, Message> send(int) override { return {}; }
    void receive(int, const std::map<Color, Message>&) override {}
    [[nodiscard]] bool halted() const override { return true; }
    [[nodiscard]] std::map<Color, Rational> output() const override {
      return {};
    }
  };
  std::unique_ptr<EcNodeState> make_node(const EcNodeContext&) override {
    return std::make_unique<Node>();
  }
  [[nodiscard]] std::string name() const override { return "Mute"; }
};

// Environment-flaky black box: its first `failures` runs die with an
// IoError carrying `io_errno` before computing anything; every later run
// is SeqColorPacking's, under SeqColorPacking's name, so a rescued chain
// is byte-identical to the clean one.
class IoFlaky : public EcAlgorithm {
 public:
  IoFlaky(int delta, int failures, int io_errno)
      : inner_(delta), failures_(failures), io_errno_(io_errno) {}

  std::unique_ptr<EcNodeState> make_node(const EcNodeContext& ctx) override {
    fail_while_flaky();
    return inner_.make_node(ctx);
  }
  // A run starts here when the simulator takes the closed-form path.
  [[nodiscard]] std::optional<EcDirectRun> evaluate_direct(
      const Multigraph& g) const override {
    fail_while_flaky();
    return inner_.evaluate_direct(g);
  }
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  // The failure counter is unsynchronized state (parallel_safe() stays
  // false, so every run is serial).

 private:
  void fail_while_flaky() const {
    if (failures_ == 0) return;
    --failures_;
    throw IoError("injected transient I/O failure", "/dev/flaky", io_errno_);
  }

  SeqColorPacking inner_;
  mutable int failures_;
  int io_errno_;
};

TEST(RetryPolicy, ClassifiesTransientVsPermanent) {
  RetryPolicy policy;
  EXPECT_TRUE(policy.transient(RunStatus::kBudgetExceeded));
  EXPECT_FALSE(policy.transient(RunStatus::kOk));
  EXPECT_FALSE(policy.transient(RunStatus::kModelViolation));
  EXPECT_FALSE(policy.transient(RunStatus::kContractViolation));
  EXPECT_FALSE(policy.transient(RunStatus::kFaultInjected));
  policy.retry_fault_injected = true;  // flaky black-box opt-in
  EXPECT_TRUE(policy.transient(RunStatus::kFaultInjected));
}

TEST(RetryPolicy, EscalatesEveryFiniteBudget) {
  RetryPolicy policy;
  policy.budget_factor = 3.0;
  RunBudget base;
  base.max_rounds = 10;
  base.max_messages = 100;
  base.max_wall_seconds = 0;  // unlimited stays unlimited
  RunBudget first = policy.escalated(base, 1);
  EXPECT_EQ(first.max_rounds, 10);
  EXPECT_EQ(first.max_messages, 100);
  RunBudget third = policy.escalated(base, 3);
  EXPECT_EQ(third.max_rounds, 90);
  EXPECT_EQ(third.max_messages, 900);
  EXPECT_EQ(third.max_wall_seconds, 0);
}

TEST(SupervisionLog, RendersAllAttempts) {
  SupervisionLog log;
  log.attempts.push_back(
      {1, 4, RunStatus::kBudgetExceeded, "round budget exceeded"});
  log.attempts.push_back({2, 8, RunStatus::kOk, ""});
  const std::string text = log.to_string();
  EXPECT_NE(text.find("attempt 1: max_rounds=4 -> budget-exceeded"),
            std::string::npos);
  EXPECT_NE(text.find("attempt 2: max_rounds=8 -> ok"), std::string::npos);
}

TEST(SupervisedLevel, TransientEnospcRetriesThenSucceeds) {
  const int delta = 4;
  CertificateLog log{temp_path("enospc.ldcl")};
  log.remove();
  IoFlaky alg{delta, /*failures=*/2, ENOSPC};
  ResumeOptions options;
  options.retry.max_attempts = 4;
  ResumeInfo info;
  const LowerBoundCertificate cert =
      run_adversary_resumable(alg, delta, log, options, &info);
  EXPECT_EQ(certificate_to_string(cert), reference_text(delta));

  // The level-0 build failed twice, then every level succeeded first time.
  const auto& attempts = info.supervision.attempts;
  ASSERT_EQ(attempts.size(), static_cast<std::size_t>(2 + delta - 1));
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(attempts[i].status, RunStatus::kEnvFault);
    EXPECT_NE(attempts[i].error.find("transient I/O"), std::string::npos);
  }
  for (std::size_t i = 2; i < attempts.size(); ++i) {
    EXPECT_EQ(attempts[i].status, RunStatus::kOk);
  }
  EXPECT_FALSE(info.supervision.exhausted);
  EXPECT_NE(info.supervision.to_string().find("env-fault"),
            std::string::npos);
  EXPECT_EQ(read_file(log.path()), CertificateLog::serialize(cert));
  log.remove();
}

TEST(SupervisedLevel, PermanentEioStopsAfterOneAttempt) {
  const int delta = 4;
  CertificateLog log{temp_path("eio.ldcl")};
  log.remove();
  IoFlaky alg{delta, /*failures=*/1, EIO};
  ResumeOptions options;
  options.retry.max_attempts = 4;
  ResumeInfo info;
  try {
    run_adversary_resumable(alg, delta, log, options, &info);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), EIO);
  }
  ASSERT_EQ(info.supervision.attempts.size(), 1u);  // EIO never retries
  EXPECT_EQ(info.supervision.attempts[0].status, RunStatus::kEnvFault);
  EXPECT_FALSE(info.supervision.exhausted);
  EXPECT_FALSE(log.exists());  // no level was ever certified
}

TEST(SupervisedLevel, PermanentFailureFailsFast) {
  CertificateLog log{temp_path("mute.ldcl")};
  log.remove();
  Mute alg;
  ResumeInfo info;
  EXPECT_THROW(run_adversary_resumable(alg, 4, log, {}, &info),
               ModelViolation);
  ASSERT_EQ(info.supervision.attempts.size(), 1u);  // no pointless retries
  EXPECT_EQ(info.supervision.attempts[0].status, RunStatus::kModelViolation);
  EXPECT_FALSE(info.supervision.exhausted);
  log.remove();
}

TEST(SupervisedLevel, CleanRunRecordsOneAttemptPerLevel) {
  const int delta = 4;
  CertificateLog log{temp_path("clean.ldcl")};
  log.remove();
  SeqColorPacking alg{delta};
  ResumeInfo info;
  (void)run_adversary_resumable(alg, delta, log, {}, &info);
  ASSERT_EQ(info.supervision.attempts.size(),
            static_cast<std::size_t>(delta - 1));
  for (const auto& at : info.supervision.attempts) {
    EXPECT_EQ(at.status, RunStatus::kOk);
    EXPECT_EQ(at.attempt, 1);
  }
  log.remove();
}

TEST(SupervisedLevel, RejectsNonsensePolicies) {
  CertificateLog log{temp_path("policy.ldcl")};
  log.remove();
  SeqColorPacking alg{4};
  ResumeOptions zero;
  zero.retry.max_attempts = 0;
  EXPECT_THROW(run_adversary_resumable(alg, 4, log, zero), ContractViolation);
  ResumeOptions shrinking;
  shrinking.retry.budget_factor = 0.5;
  EXPECT_THROW(run_adversary_resumable(alg, 4, log, shrinking),
               ContractViolation);
  EXPECT_FALSE(log.exists());  // rejected before any work
}

}  // namespace
}  // namespace ldlb
