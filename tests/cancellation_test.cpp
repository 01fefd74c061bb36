// Cooperative cancellation end to end: the token itself, the thread pool's
// chunk-boundary polls, the typed Cancelled error an adversary run fails
// with, and the headline latency contract — a cancel requested from another
// thread interrupts a Δ=10 adversary run within LDLB_CANCEL_LATENCY_MS
// (default 250 ms), leaves coherent partial diagnostics, and never tears
// the certificate log.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <sstream>
#include <string>
#include <thread>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/local/simulator.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/recover/resumable_adversary.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/cancellation.hpp"
#include "ldlb/util/thread_pool.hpp"
#include "halts_only_in_base_case.hpp"

namespace ldlb {
namespace {

using Clock = std::chrono::steady_clock;

int latency_budget_ms() {
  if (const char* s = std::getenv("LDLB_CANCEL_LATENCY_MS");
      s != nullptr && *s != '\0') {
    const int v = std::atoi(s);
    if (v > 0) return v;
  }
  return 250;
}

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(::testing::TempDir()) / name).string();
}

TEST(CancellationToken, StartsClean) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_EQ(token.reason(), "");
  EXPECT_NO_THROW(token.check());
  EXPECT_FALSE(token.deadline().is_set());
}

TEST(CancellationToken, FirstReasonWins) {
  CancellationToken token;
  token.request_cancel("operator abort");
  token.request_cancel("too late");
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.reason(), "operator abort");
  try {
    token.check();
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_EQ(e.reason(), "operator abort");
    EXPECT_NE(std::string(e.what()).find("operator abort"),
              std::string::npos);
  }
}

TEST(CancellationToken, DeadlineExpiryCancels) {
  CancellationToken token{Deadline::in(0.0)};
  EXPECT_TRUE(token.cancelled());
  EXPECT_THROW(token.check(), Cancelled);
  EXPECT_NE(token.reason().find("deadline"), std::string::npos);
}

TEST(CancellationToken, UnexpiredDeadlineDoesNotCancel) {
  CancellationToken token{Deadline::in(3600.0)};
  EXPECT_FALSE(token.cancelled());
  EXPECT_GT(token.deadline().remaining_seconds(), 3000.0);
}

TEST(ThreadPoolCancel, ParallelForStopsOnPreCancelledToken) {
  ThreadPool pool(4);
  CancellationToken token;
  token.request_cancel("stop");
  EXPECT_THROW(
      pool.parallel_for(10000, [](std::size_t) {}, &token), Cancelled);
}

TEST(ThreadPoolCancel, ParallelForStopsMidLoop) {
  // The cancel fires from inside iteration 0; later chunks must observe it
  // at their boundary instead of running to completion.
  for (int threads : {1, 4}) {
    ThreadPool pool(threads);
    CancellationToken token;
    std::atomic<int> executed{0};
    try {
      pool.parallel_for(
          1 << 16,
          [&](std::size_t) {
            executed.fetch_add(1, std::memory_order_relaxed);
            token.request_cancel("from inside");
          },
          &token);
      FAIL() << "expected Cancelled (threads=" << threads << ")";
    } catch (const Cancelled&) {
    }
    EXPECT_LT(executed.load(), 1 << 16) << "threads=" << threads;
  }
}

TEST(ThreadPoolCancel, ParallelInvokePollsBetweenThunks) {
  ThreadPool pool(1);  // inline path: deterministic thunk order
  CancellationToken token;
  int ran = 0;
  std::vector<std::function<void()>> thunks;
  thunks.emplace_back([&] {
    ++ran;
    token.request_cancel("after first");
  });
  thunks.emplace_back([&] { ++ran; });
  EXPECT_THROW(pool.parallel_invoke(std::move(thunks), &token), Cancelled);
  EXPECT_EQ(ran, 1);
}

TEST(Cancellation, PreCancelledAdversaryThrowsCancelled) {
  SeqColorPacking alg{5};
  CancellationToken token;
  token.request_cancel("never started");
  AdversaryOptions opts;
  opts.cancel = &token;
  try {
    (void)run_adversary(alg, 5, opts);
    FAIL() << "expected Cancelled";
  } catch (const Cancelled& e) {
    EXPECT_NE(std::string(e.what()).find("never started"), std::string::npos);
  }
}

// The headline contract: cancelling a Δ=10 adversary run from another
// thread interrupts it within the latency budget, with the typed Cancelled
// error and coherent partial diagnostics. The cancel is sent only once a
// step-1 node exists, so it always lands inside a simulated run.
TEST(Cancellation, CrossThreadCancelInterruptsDelta10Run) {
  HaltsOnlyInBaseCase alg{10};
  CancellationToken token;
  AdversaryOptions opts;
  opts.cancel = &token;
  opts.max_rounds = 1 << 30;
  RunDiagnostics diagnostics;
  opts.diagnostics = &diagnostics;

  std::atomic<bool> finished{false};
  bool cancelled = false;
  std::string error = "run completed";
  std::thread runner([&] {
    try {
      (void)run_adversary(alg, 10, opts);
    } catch (const Cancelled& e) {
      cancelled = true;
      error = e.what();
    } catch (const Error& e) {
      error = e.what();
    }
    finished.store(true);
  });
  while (!finished.load() && alg.made() <= 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const Clock::time_point cancelled_at = Clock::now();
  token.request_cancel("cross-thread cancel");
  runner.join();
  const auto latency = std::chrono::duration_cast<std::chrono::milliseconds>(
      Clock::now() - cancelled_at);

  EXPECT_TRUE(cancelled) << error;
  EXPECT_LT(latency.count(), latency_budget_ms());
  EXPECT_NE(error.find("cross-thread cancel"), std::string::npos) << error;
  // Partial diagnostics of a run that was in flight: published whole, so
  // the halting profile and the histogram belong to the same real run.
  // per_round may be empty: on a pool, the last trace published can be a
  // speculative branch cancelled before its first round.
  EXPECT_FALSE(diagnostics.halt_round.empty());
  for (int r : diagnostics.halt_round) {
    EXPECT_LE(r, static_cast<int>(diagnostics.per_round.size()));
  }
}

TEST(Cancellation, ResumableRunLeavesLoadableLogAndResumesIdentically) {
  const int delta = 7;
  const std::string path = temp_path("cancel_resume.ldcl");
  std::filesystem::remove(path);

  // Clean reference certificate and the log an uninterrupted run leaves.
  std::string clean;
  std::string clean_log;
  {
    SeqColorPacking alg{delta};
    const LowerBoundCertificate chain = run_adversary(alg, delta);
    std::ostringstream os;
    write_certificate(os, chain);
    clean = os.str();
    clean_log = CertificateLog::serialize(chain);
  }

  // Cancel a resumable run from another thread, mid-chain.
  {
    SeqColorPacking alg{delta};
    CertificateLog log(path);
    CancellationToken token;
    ResumeOptions options;
    options.adversary.cancel = &token;
    // Cancel as soon as level 1 is durably checkpointed, from a different
    // thread, while the run is between levels. The hook waits for that
    // thread, so the cancel lands before level 2 however the threads are
    // scheduled.
    options.on_checkpoint = [&](const CertificateLevel& lv) {
      if (lv.level != 1) return;
      std::thread([&token] { token.request_cancel("mid-chain cancel"); })
          .join();
    };
    EXPECT_THROW(run_adversary_resumable(alg, delta, log, options),
                 Cancelled);

    // Whatever was checkpointed must load back as a fully valid prefix —
    // cancellation must never tear the log.
    CertLogReport report;
    LowerBoundCertificate partial = log.load(&report);
    EXPECT_TRUE(report.file_found);
    EXPECT_EQ(report.damage, LogDamage::kNone) << report.to_string();
    EXPECT_GE(partial.levels.size(), 1u);
    EXPECT_LT(partial.levels.size(),
              static_cast<std::size_t>(delta - 1));
  }

  // Resuming with a fresh token completes to the clean run's exact bytes.
  {
    SeqColorPacking alg{delta};
    CertificateLog log(path);
    ResumeInfo info;
    LowerBoundCertificate resumed =
        run_adversary_resumable(alg, delta, log, {}, &info);
    EXPECT_GT(info.trusted_levels, 0);
    std::ostringstream os;
    write_certificate(os, resumed);
    EXPECT_EQ(os.str(), clean);
    EXPECT_EQ(read_file(path), clean_log);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace ldlb
