// Environment fault injection round-trips: every filesystem fault point a
// certificate-log checkpoint passes through (write / fsync / rename /
// dir-fsync × EIO / ENOSPC / short-write), injected into a checkpointed
// adversary run, must leave a loadable log whose resumed run reproduces
// the clean certificate — and the clean log — byte for byte. Allocation-
// failure injection (util/alloc_guard) must fail a run with std::bad_alloc
// and leave the library reusable afterwards.
#include <gtest/gtest.h>

#include <cerrno>
#include <filesystem>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ldlb/core/certificate_io.hpp"
#include "ldlb/fault/env_fault.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/recover/resumable_adversary.hpp"
#include "ldlb/util/alloc_guard.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/bigint.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/view/isomorphism.hpp"

namespace ldlb {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::string certificate_bytes(const LowerBoundCertificate& cert) {
  std::ostringstream os;
  write_certificate(os, cert);
  return os.str();
}

int tmp_files_in(const std::string& dir) {
  int n = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().string().find(".tmp.") != std::string::npos) ++n;
  }
  return n;
}

TEST(EnvFaultPlan, FailsExactlyTheArmedOperation) {
  const std::string path = temp_path("plan_basics.txt");
  EnvFaultPlan plan;
  ScopedFsFaultInjection install(&plan);

  plan.arm(FsOp::kWrite, EnvFaultMode::kEio, 1);
  try {
    write_file_atomic(path, "payload");
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), EIO);
    EXPECT_NE(std::string(e.what()).find("injected env fault"),
              std::string::npos);
  }
  EXPECT_TRUE(plan.fired());
  EXPECT_FALSE(fs::exists(path));  // failed before the rename

  // One-shot: the same plan does not fire twice without re-arming.
  write_file_atomic(path, "payload");
  EXPECT_EQ(read_file(path), "payload");
  fs::remove(path);
}

TEST(EnvFaultPlan, ShortWriteAcceptsHalfThenFailsWithEnospc) {
  const std::string path = temp_path("short_write.txt");
  EnvFaultPlan plan;
  ScopedFsFaultInjection install(&plan);
  plan.arm(FsOp::kWrite, EnvFaultMode::kShortWrite, 1);
  try {
    write_file_atomic(path, std::string(4096, 'x'));
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_EQ(e.error_code(), ENOSPC);
  }
  // The first call accepted half, the retry failed: two write observations.
  EXPECT_EQ(plan.observed(FsOp::kWrite), 2);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_EQ(tmp_files_in(::testing::TempDir()), 0) << "torn temp file left";
}

TEST(EnvFaultPlan, DirFsyncFaultLeavesContentInPlace) {
  const std::string path = temp_path("dir_fsync.txt");
  EnvFaultPlan plan;
  ScopedFsFaultInjection install(&plan);
  plan.arm(FsOp::kDirFsync, EnvFaultMode::kEio, 1);
  EXPECT_THROW(write_file_atomic(path, "survives"), IoError);
  // The rename already happened; only durability is unconfirmed.
  EXPECT_TRUE(fs::exists(path));
  EXPECT_EQ(read_file(path), "survives");
  fs::remove(path);
}

// The acceptance sweep: inject each (operation, mode) pair into a
// checkpoint of a resumable adversary run over a fresh certificate log,
// then resume with the fault cleared and demand the clean run's exact
// certificate and log bytes.
//
// On a fresh log only the first checkpoint goes through write_file_atomic
// (write, fsync, rename, dir-fsync); every later one is an
// append_file_durable (write, fsync). So rename and dir-fsync are armed on
// their first occurrence — the level-0 checkpoint — and write and fsync on
// their second, which belongs to the level-1 append: level 0 lands cleanly
// and the fault hits mid-chain.
TEST(EnvFaultSweep, CheckpointedRunSurvivesEveryFaultPoint) {
  const int delta = 5;
  std::string clean;
  std::string clean_log;
  {
    clear_ball_encoding_cache();
    SeqColorPacking alg{delta};
    const LowerBoundCertificate chain = run_adversary(alg, delta);
    clean = certificate_bytes(chain);
    clean_log = CertificateLog::serialize(chain);
  }

  struct FaultPoint {
    FsOp op;
    EnvFaultMode mode;
    int nth;
    // What the interrupted run leaves behind.
    bool file_left;       // the log file exists
    LogDamage damage;     // its scan verdict
    std::size_t levels;   // records it still holds intact
  };
  const std::vector<FaultPoint> points = {
      // The level-1 append fails before any byte lands.
      {FsOp::kWrite, EnvFaultMode::kEio, 2, true, LogDamage::kNone, 1},
      {FsOp::kWrite, EnvFaultMode::kEnospc, 2, true, LogDamage::kNone, 1},
      // Half the level-1 record lands: a torn tail resume truncates away.
      {FsOp::kWrite, EnvFaultMode::kShortWrite, 2, true, LogDamage::kTornTail,
       1},
      // The level-1 record is written, only its durability is unconfirmed.
      {FsOp::kFsync, EnvFaultMode::kEio, 2, true, LogDamage::kNone, 2},
      {FsOp::kFsync, EnvFaultMode::kEnospc, 2, true, LogDamage::kNone, 2},
      // The level-0 rewrite never reaches the log's name.
      {FsOp::kRename, EnvFaultMode::kEio, 1, false, LogDamage::kNone, 0},
      {FsOp::kRename, EnvFaultMode::kEnospc, 1, false, LogDamage::kNone, 0},
      // The level-0 rewrite is renamed in; only the dirent is unconfirmed.
      {FsOp::kDirFsync, EnvFaultMode::kEio, 1, true, LogDamage::kNone, 1},
      {FsOp::kDirFsync, EnvFaultMode::kEnospc, 1, true, LogDamage::kNone, 1},
  };
  for (const FaultPoint& point : points) {
    SCOPED_TRACE(std::string(to_string(point.op)) + "/" +
                 to_string(point.mode) + "@" + std::to_string(point.nth));
    const std::string path =
        temp_path(std::string("sweep_") + to_string(point.op) + "_" +
                  to_string(point.mode) + ".ldcl");
    fs::remove(path);
    EnvFaultPlan plan;
    ScopedFsFaultInjection install(&plan);

    plan.arm(point.op, point.mode, point.nth);
    {
      clear_ball_encoding_cache();
      SeqColorPacking alg{delta};
      CertificateLog log(path);
      // Nothing retries a failed checkpoint write: the injected IoError
      // surfaces directly, and the rerun below resumes from the log.
      EXPECT_THROW(run_adversary_resumable(alg, delta, log, {}), IoError);
      EXPECT_TRUE(plan.fired());
    }
    plan.disarm();

    // The log loads to a valid prefix: no damage but a torn tail, and
    // exactly the records that were durably appended before the fault.
    {
      CertificateLog log(path);
      CertLogReport report;
      LowerBoundCertificate partial = log.load(&report);
      EXPECT_EQ(report.file_found, point.file_left) << report.to_string();
      EXPECT_EQ(report.damage, point.damage) << report.to_string();
      EXPECT_EQ(partial.levels.size(), point.levels) << report.to_string();
    }

    // Resume with the fault cleared: byte-identical final certificate, and
    // a repaired log byte-identical to a never-faulted one.
    {
      clear_ball_encoding_cache();
      SeqColorPacking alg{delta};
      CertificateLog log(path);
      ResumeInfo info;
      LowerBoundCertificate resumed =
          run_adversary_resumable(alg, delta, log, {}, &info);
      EXPECT_EQ(info.trusted_levels, static_cast<int>(point.levels));
      EXPECT_EQ(certificate_bytes(resumed), clean);
      EXPECT_EQ(read_file(path), CertificateLog::serialize(resumed));
      EXPECT_EQ(read_file(path), clean_log);
    }
    EXPECT_EQ(tmp_files_in(::testing::TempDir()), 0) << "torn temp file left";
    fs::remove(path);
  }
}

TEST(AllocGuard, BudgetExhaustionThrowsBadAlloc) {
  EXPECT_FALSE(ScopedAllocBudget::active());
  charge_alloc(1 << 30);  // no budget armed: free
  {
    ScopedAllocBudget budget(64);
    EXPECT_TRUE(ScopedAllocBudget::active());
    charge_alloc(32);
    EXPECT_THROW(charge_alloc(64), std::bad_alloc);
    // Pinned at zero: every further charge keeps failing.
    EXPECT_THROW(charge_alloc(1), std::bad_alloc);
  }
  EXPECT_FALSE(ScopedAllocBudget::active());
}

TEST(AllocGuard, StarvesBigIntLimbGrowth) {
  BigInt big = BigInt::pow2(200);  // needs > 2 limbs
  ScopedAllocBudget budget(0);
  EXPECT_THROW((void)(big * big), std::bad_alloc);
}

TEST(AllocGuard, AdversaryRunThrowsBadAllocThenRecovers) {
  // A warm memo would satisfy the run without a single charged allocation.
  clear_ball_encoding_cache();
  SeqColorPacking alg{5};
  {
    ScopedAllocBudget budget(256);  // starves the ball-encoding memo
    EXPECT_THROW((void)run_adversary(alg, 5), std::bad_alloc);
  }

  // The library is fully usable once the budget is gone.
  clear_ball_encoding_cache();
  const LowerBoundCertificate cert = run_adversary(alg, 5);
  EXPECT_EQ(cert.certified_radius(), 3);
}

TEST(BallCache, RespectsByteBudgetWithLruEviction) {
  clear_ball_encoding_cache();
  set_ball_encoding_cache_budget(2048);
  SeqColorPacking alg{6};
  (void)run_adversary(alg, 6);  // populates the cache heavily
  EXPECT_LE(ball_encoding_cache_bytes(), 2048u);

  // Budget 0 disables memoization outright but keeps answers correct.
  clear_ball_encoding_cache();
  set_ball_encoding_cache_budget(0);
  (void)run_adversary(alg, 6);
  EXPECT_EQ(ball_encoding_cache_bytes(), 0u);

  // Restore the default for the rest of the suite.
  set_ball_encoding_cache_budget(std::size_t{8} << 20);
  clear_ball_encoding_cache();
}

}  // namespace
}  // namespace ldlb
