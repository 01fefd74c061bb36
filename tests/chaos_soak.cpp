// Chaos soak harness: randomized cancel / crash / env-fault / resume cycles.
//
// Each cycle picks a degree Δ ∈ {4..8}, a global thread count, and one
// interference scenario, applies it to an adversary run checkpointing into
// a certificate log, then resumes with the interference cleared and
// demands the clean run's exact certificate bytes — and a repaired log
// byte-identical to a never-interrupted one. Scenarios:
//
//   cancel     cooperative cancel fired from the checkpoint hook at a
//              random level, then resume;
//   env-fault  EnvFaultPlan armed on a random (fs-op, mode) pair, then
//              resume; write and fsync at a random nth occurrence (every
//              checkpoint writes and fsyncs), rename and dir-fsync at the
//              first (only the log's first checkpoint, a full atomic
//              rewrite, renames);
//   torn-tail  a completed log truncated at a random byte, then resume
//              from the salvaged prefix;
//   guarded    a deadline-expired / round-budget-capped adversary run or
//              an allocation-starved certificate load must fail with its
//              typed error (Cancelled / BudgetExceeded / std::bad_alloc)
//              without a certificate, then a clean resumable run from
//              scratch;
//   certlog-kill a child process checkpointing into the certificate log
//              is SIGKILLed from its own checkpoint hook, the survivor log
//              is additionally torn mid-record, and the reopen must
//              classify the damage as a recoverable torn tail and resume to
//              the clean run's exact bytes — with the repaired log file
//              byte-identical to a never-crashed one.
//
// The seed is printed up front and on every failure; override it with
// LDLB_CHAOS_SEED and the cycle count with LDLB_CHAOS_CYCLES. Not a gtest
// binary — scripts/ci.sh runs it as its own bounded stage.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/fault/env_fault.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/recover/resumable_adversary.hpp"
#include "ldlb/util/alloc_guard.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/cancellation.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/rng.hpp"
#include "ldlb/util/thread_pool.hpp"

namespace {

unsigned long long g_seed = 0;
int g_cycle = -1;
const char* g_scenario = "setup";

[[noreturn]] void fail(const std::string& what) {
  std::fprintf(stderr,
               "chaos_soak: FAILED in cycle %d scenario %s: %s\n"
               "chaos_soak: reproduce with LDLB_CHAOS_SEED=%llu\n",
               g_cycle, g_scenario, what.c_str(), g_seed);
  std::exit(1);
}

void check(bool ok, const std::string& what) {
  if (!ok) fail(what);
}

unsigned long long env_u64(const char* name, unsigned long long fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0') {
    std::fprintf(stderr, "chaos_soak: ignoring malformed %s='%s'\n", name, s);
    return fallback;
  }
  return v;
}

}  // namespace

int main() {
  using namespace ldlb;
  namespace fs = std::filesystem;

  g_seed = env_u64("LDLB_CHAOS_SEED", 20140721);
  const int cycles =
      static_cast<int>(env_u64("LDLB_CHAOS_CYCLES", 25));
  std::printf("chaos_soak: seed=%llu cycles=%d\n", g_seed, cycles);

  const std::string log_path =
      (fs::temp_directory_path() /
       ("ldlb_chaos_" + std::to_string(::getpid()) + ".log"))
          .string();

  Rng rng{static_cast<std::uint64_t>(g_seed)};
  std::map<int, std::string> clean_by_delta;
  const auto clean_bytes = [&](int delta) -> const std::string& {
    auto it = clean_by_delta.find(delta);
    if (it == clean_by_delta.end()) {
      SeqColorPacking alg{delta};
      it = clean_by_delta.emplace(delta, certificate_to_string(
                                             run_adversary(alg, delta)))
               .first;
    }
    return it->second;
  };
  const auto resume_and_compare = [&](int delta) {
    SeqColorPacking alg{delta};
    CertificateLog log(log_path);
    LowerBoundCertificate chain = run_adversary_resumable(alg, delta, log);
    check(certificate_to_string(chain) == clean_bytes(delta),
          "resumed certificate differs from the clean run");
    // The repaired log must be byte-identical to a never-crashed one.
    check(read_file(log_path) == CertificateLog::serialize(chain),
          "repaired certificate log differs from a clean serialization");
  };

  try {
    for (g_cycle = 0; g_cycle < cycles; ++g_cycle) {
      const int delta = 4 + static_cast<int>(rng.next_below(5));
      const int threads = 1 + static_cast<int>(rng.next_below(8));
      ThreadPool::set_global_threads(threads);
      const std::string& clean = clean_bytes(delta);
      fs::remove(log_path);

      switch (rng.next_below(5)) {
        case 0: {  // cooperative cancel at a random checkpoint, then resume
          g_scenario = "cancel";
          const int cancel_level =
              static_cast<int>(rng.next_below(delta - 1));
          {
            SeqColorPacking alg{delta};
            CertificateLog log(log_path);
            CancellationToken token;
            ResumeOptions options;
            options.adversary.cancel = &token;
            options.on_checkpoint = [&](const CertificateLevel& lv) {
              if (lv.level == cancel_level) {
                token.request_cancel("chaos cancel");
              }
            };
            try {
              run_adversary_resumable(alg, delta, log, options);
              // A cancel at the final checkpoint lands after the chain is
              // already complete; nothing was interrupted.
            } catch (const Cancelled&) {
            }
          }
          resume_and_compare(delta);
          break;
        }
        case 1: {  // fs fault on a random checkpoint, then resume
          g_scenario = "env-fault";
          const auto op = static_cast<FsOp>(rng.next_below(4));
          auto mode = static_cast<EnvFaultMode>(rng.next_below(3));
          if (op != FsOp::kWrite && mode == EnvFaultMode::kShortWrite) {
            mode = EnvFaultMode::kEio;  // short writes only exist for write()
          }
          // Only the first checkpoint of a fresh log renames (and fsyncs
          // the directory); every checkpoint writes and fsyncs.
          const int nth = op == FsOp::kRename || op == FsOp::kDirFsync
                              ? 1
                              : 1 + static_cast<int>(rng.next_below(delta - 1));
          {
            EnvFaultPlan plan;
            ScopedFsFaultInjection install(&plan);
            plan.arm(op, mode, nth);
            SeqColorPacking alg{delta};
            CertificateLog log(log_path);
            try {
              run_adversary_resumable(alg, delta, log);
            } catch (const IoError&) {
            }
            check(plan.fired(), std::string("armed fault ") + to_string(op) +
                                    "@" + std::to_string(nth) +
                                    " never fired");
          }
          resume_and_compare(delta);
          break;
        }
        case 2: {  // tear the tail off a finished log, then resume
          g_scenario = "torn-tail";
          {
            SeqColorPacking alg{delta};
            CertificateLog log(log_path);
            run_adversary_resumable(alg, delta, log);
          }
          const std::string full = read_file(log_path);
          write_file_atomic(log_path,
                            full.substr(0, rng.next_below(full.size())));
          resume_and_compare(delta);
          break;
        }
        case 3: {  // an interrupted run's typed failure, then a clean run
          g_scenario = "guarded";
          SeqColorPacking alg{delta};
          const char* expected = "";
          const char* outcome = "no error";
          bool certified = false;
          try {
            switch (rng.next_below(3)) {
              case 0: {  // already-expired global deadline
                expected = "Cancelled";
                CancellationToken token{Deadline::in(0.0)};
                AdversaryOptions opts;
                opts.cancel = &token;
                (void)run_adversary(alg, delta, opts);
                break;
              }
              case 1: {  // per-run round budget of 1
                expected = "BudgetExceeded";
                AdversaryOptions opts;
                opts.max_rounds = 1;
                (void)run_adversary(alg, delta, opts);
                break;
              }
              default: {  // starved allocation budget
                expected = "std::bad_alloc";
                // Loading charges each graph's edge reservation; G_0 alone
                // has delta >= 3 loops, more than 16 bytes of edges.
                const std::string text =
                    certificate_to_string(run_adversary(alg, delta));
                ScopedAllocBudget budget(16);
                (void)certificate_from_string(text);
                break;
              }
            }
            certified = true;
          } catch (const Cancelled&) {
            outcome = "Cancelled";
          } catch (const BudgetExceeded&) {
            outcome = "BudgetExceeded";
          } catch (const std::bad_alloc&) {
            outcome = "std::bad_alloc";
          }
          check(std::string(outcome) == expected,
                std::string("interrupted run ended with ") + outcome +
                    ", expected " + expected);
          check(!certified, "interrupted run still produced a certificate");
          resume_and_compare(delta);
          break;
        }
        default: {  // SIGKILL a log-writing child, tear the tail, resume
          g_scenario = "certlog-kill";
          const int kill_level = static_cast<int>(rng.next_below(delta - 1));
          // The child must not inherit pool workers it cannot join: fork
          // from a single-threaded parent, then restore the cycle's pool.
          ThreadPool::set_global_threads(1);
          std::fflush(nullptr);
          const pid_t writer = ::fork();
          check(writer >= 0, "fork failed");
          if (writer == 0) {
            int code = 1;
            try {
              SeqColorPacking alg{delta};
              CertificateLog log(log_path);
              ResumeOptions options;
              options.on_checkpoint = [&](const CertificateLevel& lv) {
                // A real SIGKILL, not an exception: the child dies with the
                // append for this level already durable, nothing cleaned up.
                if (lv.level == kill_level) ::kill(::getpid(), SIGKILL);
              };
              run_adversary_resumable(alg, delta, log, options);
            } catch (const std::exception& e) {
              std::fprintf(stderr, "chaos_soak: writer child: %s\n",
                           e.what());
              code = 2;
            }
            ::_exit(code);
          }
          int status = 0;
          while (::waitpid(writer, &status, 0) < 0) {
            check(errno == EINTR, "waitpid failed");
          }
          ThreadPool::set_global_threads(threads);
          check(WIFSIGNALED(status) && WTERMSIG(status) == SIGKILL,
                "log-writing child was not SIGKILLed at level " +
                    std::to_string(kill_level));

          // The kill landed between appends; additionally tear the tail
          // the way a kill *during* the append would have.
          const std::string bytes = read_file(log_path);
          check(!bytes.empty(), "killed writer left no certificate log");
          const std::size_t tear = rng.next_below(
              std::min<std::size_t>(bytes.size(), 200));
          write_file_atomic(log_path, bytes.substr(0, bytes.size() - tear));

          CertificateLog log(log_path);
          const CertLogReport report = log.scan();
          check(report.recoverable(),
                "torn certificate log classified unrecoverable: " +
                    report.to_string());
          SeqColorPacking alg{delta};
          LowerBoundCertificate chain =
              run_adversary_resumable(alg, delta, log, {});
          check(certificate_to_string(chain) == clean,
                "certificate resumed over the torn log differs from the "
                "clean run");
          check(read_file(log_path) == CertificateLog::serialize(chain),
                "repaired certificate log differs from a clean "
                "serialization");
          break;
        }
      }
      std::printf("chaos_soak: cycle %d ok (delta=%d threads=%d %s)\n",
                  g_cycle, delta, threads, g_scenario);
      check(clean == clean_bytes(delta), "clean reference mutated");
    }
  } catch (const std::exception& e) {
    fail(std::string("unexpected exception: ") + e.what());
  }

  fs::remove(log_path);
  ThreadPool::set_global_threads(0);
  std::printf("chaos_soak: all %d cycles ok (seed=%llu)\n", cycles, g_seed);
  return 0;
}
