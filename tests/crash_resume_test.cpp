// Kill-and-resume determinism: an adversary run crash-stopped at any level
// k and resumed from its certificate log must produce a final certificate —
// and a final log — byte-identical to an uninterrupted run, and anything
// untrustworthy in the log (tampering, wrong algorithm, truncation) must be
// discarded — never trusted into the chain.
#include "ldlb/recover/resumable_adversary.hpp"

#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>

#include "ldlb/core/certificate_io.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/matching/two_phase_packing.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/error.hpp"

namespace ldlb {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

LowerBoundCertificate reference_chain(int delta) {
  SeqColorPacking alg{delta};
  return run_adversary(alg, delta);
}

std::string reference_text(int delta) {
  return certificate_to_string(reference_chain(delta));
}

// The log bytes an uninterrupted run leaves behind.
std::string reference_log(int delta) {
  return CertificateLog::serialize(reference_chain(delta));
}

TEST(CrashResume, ResumedChainIsByteIdenticalForEveryCrashLevel) {
  for (int delta = 4; delta <= 7; ++delta) {
    const std::string reference = reference_text(delta);
    const std::string clean_log = reference_log(delta);
    for (int k = 0; k <= delta - 2; ++k) {
      CertificateLog log{temp_path("crash_resume.ldcl")};
      log.remove();

      // Phase 1: the run dies right after checkpointing level k.
      {
        SeqColorPacking alg{delta};
        ResumeOptions options;
        options.on_checkpoint = crash_at_level(k);
        EXPECT_THROW(run_adversary_resumable(alg, delta, log, options),
                     FaultInjected)
            << "delta=" << delta << " k=" << k;
      }
      // The log survived the crash with exactly levels 0..k.
      {
        CertLogReport report;
        LowerBoundCertificate saved = log.load(&report);
        EXPECT_TRUE(report.file_found);
        EXPECT_EQ(report.damage, LogDamage::kNone) << report.to_string();
        EXPECT_EQ(static_cast<int>(saved.levels.size()), k + 1);
      }

      // Phase 2: resume and finish.
      SeqColorPacking alg{delta};
      ResumeInfo info;
      LowerBoundCertificate resumed =
          run_adversary_resumable(alg, delta, log, {}, &info);
      EXPECT_EQ(certificate_to_string(resumed), reference)
          << "delta=" << delta << " k=" << k;
      EXPECT_EQ(info.loaded_levels, k + 1);
      EXPECT_EQ(info.trusted_levels, k + 1);
      EXPECT_EQ(info.computed_levels, delta - 2 - k);
      EXPECT_EQ(info.discard_reason, "");
      EXPECT_EQ(read_file(log.path()), clean_log)
          << "delta=" << delta << " k=" << k;
      log.remove();
    }
  }
}

TEST(CrashResume, FreshRunNeedsNoLog) {
  const int delta = 5;
  CertificateLog log{temp_path("fresh.ldcl")};
  log.remove();
  SeqColorPacking alg{delta};
  ResumeInfo info;
  LowerBoundCertificate cert =
      run_adversary_resumable(alg, delta, log, {}, &info);
  EXPECT_EQ(certificate_to_string(cert), reference_text(delta));
  EXPECT_FALSE(info.recovery.file_found);
  EXPECT_EQ(info.loaded_levels, 0);
  EXPECT_EQ(info.computed_levels, delta - 1);  // levels 0..delta-2
  // The completed chain is durable too.
  EXPECT_EQ(log.load().levels.size(), static_cast<std::size_t>(delta - 1));
  EXPECT_EQ(read_file(log.path()), reference_log(delta));
  log.remove();
}

TEST(CrashResume, TruncatedLogResumesFromLongestValidPrefix) {
  const int delta = 5;
  const std::string reference = reference_text(delta);
  CertificateLog log{temp_path("truncated.ldcl")};
  log.remove();
  {
    SeqColorPacking alg{delta};
    ResumeOptions options;
    options.on_checkpoint = crash_at_level(2);
    EXPECT_THROW(run_adversary_resumable(alg, delta, log, options),
                 FaultInjected);
  }
  // Damage the file the way a torn write would: cut it mid-record.
  std::string bytes = read_file(log.path());
  write_file_atomic(log.path(), bytes.substr(0, bytes.size() - 20));

  SeqColorPacking alg{delta};
  ResumeInfo info;
  LowerBoundCertificate resumed =
      run_adversary_resumable(alg, delta, log, {}, &info);
  EXPECT_EQ(certificate_to_string(resumed), reference);
  EXPECT_TRUE(info.recovery.file_found);
  EXPECT_EQ(info.recovery.damage, LogDamage::kTornTail);
  EXPECT_LT(info.loaded_levels, 3);
  EXPECT_GT(info.computed_levels, delta - 2 - 2);
  // The torn tail was truncated away, not left behind the resumed records.
  EXPECT_EQ(read_file(log.path()), reference_log(delta));
  log.remove();
}

TEST(CrashResume, TamperedLevelIsDiscardedByRevalidation) {
  const int delta = 5;
  const std::string reference = reference_text(delta);
  CertificateLog log{temp_path("tampered.ldcl")};
  log.remove();
  {
    SeqColorPacking alg{delta};
    ResumeOptions options;
    options.on_checkpoint = crash_at_level(2);
    EXPECT_THROW(run_adversary_resumable(alg, delta, log, options),
                 FaultInjected);
  }
  // Forge level 1 and re-serialize the whole log: every checksum
  // recomputes, so only semantic re-validation can catch it.
  LowerBoundCertificate forged = log.load();
  ASSERT_EQ(forged.levels.size(), 3u);
  forged.levels[1].g_weight = forged.levels[1].g_weight + Rational(1, 7);
  write_file_atomic(log.path(), CertificateLog::serialize(forged));
  ASSERT_EQ(log.scan().damage, LogDamage::kNone);

  SeqColorPacking alg{delta};
  ResumeInfo info;
  LowerBoundCertificate resumed =
      run_adversary_resumable(alg, delta, log, {}, &info);
  EXPECT_EQ(certificate_to_string(resumed), reference);
  EXPECT_EQ(info.loaded_levels, 3);
  EXPECT_EQ(info.trusted_levels, 1);  // level 0 intact, 1..2 rebuilt
  EXPECT_NE(info.discard_reason.find("failed re-validation"),
            std::string::npos);
  EXPECT_EQ(read_file(log.path()), reference_log(delta));
  log.remove();
}

TEST(CrashResume, LogForDifferentJobIsDiscardedWholesale) {
  const int delta = 4;
  CertificateLog log{temp_path("wrong_job.ldcl")};
  log.remove();
  {
    // A complete delta-4 chain from a different algorithm.
    TwoPhasePacking other{delta};
    run_adversary_resumable(other, delta, log);
  }
  SeqColorPacking alg{delta};
  ResumeInfo info;
  LowerBoundCertificate cert =
      run_adversary_resumable(alg, delta, log, {}, &info);
  EXPECT_EQ(certificate_to_string(cert), reference_text(delta));
  EXPECT_GT(info.loaded_levels, 0);
  EXPECT_EQ(info.trusted_levels, 0);
  EXPECT_NE(info.discard_reason.find("stored chain is for"), std::string::npos);
  EXPECT_EQ(read_file(log.path()), reference_log(delta));
  log.remove();
}

TEST(CrashResume, CheckpointHookSeesOnlyFreshLevels) {
  const int delta = 5;
  CertificateLog log{temp_path("hook.ldcl")};
  log.remove();
  {
    SeqColorPacking alg{delta};
    ResumeOptions options;
    options.on_checkpoint = crash_at_level(1);
    EXPECT_THROW(run_adversary_resumable(alg, delta, log, options),
                 FaultInjected);
  }
  SeqColorPacking alg{delta};
  ResumeOptions options;
  std::vector<int> seen;
  options.on_checkpoint = [&](const CertificateLevel& lv) {
    seen.push_back(lv.level);
  };
  run_adversary_resumable(alg, delta, log, options);
  EXPECT_EQ(seen, (std::vector<int>{2, 3}));  // 0..1 came from the log
  log.remove();
}

// Halts instantly but announces nothing: a ModelViolation on every run.
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

// Environment-flaky black box: while armed, its next `failures` runs die
// with an IoError carrying `io_errno` before computing anything; every
// other run is SeqColorPacking's, under SeqColorPacking's name, so a chain
// it completes is byte-identical to the clean one.
class IoFlaky : public EcAlgorithm {
 public:
  IoFlaky(int delta, int failures, int io_errno)
      : inner_(delta), failures_(failures), io_errno_(io_errno) {}

  void arm(int failures) { failures_ = failures; }

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
    throw IoError("injected I/O failure", "/dev/flaky", io_errno_);
  }

  SeqColorPacking inner_;
  mutable int failures_;
  int io_errno_;
};

// A level build fails once, with its typed error: nothing retries it, and
// nothing was certified, so no log file is left.
TEST(CrashResume, LevelBuildEioPropagates) {
  const int delta = 4;
  CertificateLog log{temp_path("eio.ldcl")};
  log.remove();
  IoFlaky alg{delta, /*failures=*/1, EIO};
  try {
    run_adversary_resumable(alg, delta, log);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), EIO);
  }
  EXPECT_FALSE(log.exists());
}

TEST(CrashResume, ModelViolationPropagates) {
  CertificateLog log{temp_path("mute.ldcl")};
  log.remove();
  Mute alg;
  EXPECT_THROW(run_adversary_resumable(alg, 4, log), ModelViolation);
  EXPECT_FALSE(log.exists());
}

// An ENOSPC inside a level build surfaces as is; rerunning over the same
// log resumes from the levels already checkpointed and reproduces the
// reference certificate and log bytes.
TEST(CrashResume, LevelBuildEnospcSurfacesAndRerunResumes) {
  const int delta = 5;
  CertificateLog log{temp_path("enospc.ldcl")};
  log.remove();
  IoFlaky alg{delta, /*failures=*/0, ENOSPC};
  ResumeOptions options;
  options.on_checkpoint = [&](const CertificateLevel& lv) {
    if (lv.level == 1) alg.arm(1);  // the level-2 build hits ENOSPC
  };
  try {
    run_adversary_resumable(alg, delta, log, options);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), ENOSPC);
  }
  EXPECT_EQ(log.load().levels.size(), 2u);

  ResumeInfo info;
  const LowerBoundCertificate cert =
      run_adversary_resumable(alg, delta, log, {}, &info);
  EXPECT_EQ(info.trusted_levels, 2);
  EXPECT_EQ(info.computed_levels, delta - 3);
  EXPECT_EQ(certificate_to_string(cert), reference_text(delta));
  EXPECT_EQ(read_file(log.path()), reference_log(delta));
  log.remove();
}

// A round budget too small for the algorithm fails the run with
// BudgetExceeded: the resumable run applies the budget it is given, as
// run_adversary does.
TEST(CrashResume, PermanentFailuresAreNotRetried) {
  const int delta = 4;
  CertificateLog log{temp_path("exhausted.ldcl")};
  log.remove();
  SeqColorPacking alg{delta};
  ResumeOptions options;
  options.adversary.max_rounds = 1;  // SeqColorPacking needs delta+1 rounds
  EXPECT_THROW(run_adversary_resumable(alg, delta, log, options),
               BudgetExceeded);
  log.remove();
}

}  // namespace
}  // namespace ldlb
