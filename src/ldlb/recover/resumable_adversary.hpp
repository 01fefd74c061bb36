// Crash-safe adversary runs: checkpoint every certified level, resume from
// the longest trusted prefix.
//
// run_adversary_resumable is run_adversary (core/adversary.hpp) wrapped in
// durability and supervision:
//
//   * after each CertificateLevel is certified it is appended to the
//     certificate log (recover/cert_log.hpp) with append + fsync, so a
//     crash mid-checkpoint leaves at worst a torn tail, which the next run
//     truncates away — never a damaged prefix;
//   * on start, the log's longest verified prefix is loaded and — unless
//     explicitly disabled — *re-validated against the algorithm* with the
//     independent certificate validator, so a stale or tampered log
//     (wrong algorithm, wrong Δ, forged weights) is discarded instead of
//     being trusted into the chain; construction continues from the first
//     missing level;
//   * each level build runs under the RetryPolicy of recover/supervisor.hpp:
//     a BudgetExceeded trip retries with an escalated round budget, a
//     transient IoError (ENOSPC, EAGAIN, EINTR) retries as is, while
//     ModelViolation / ContractViolation / hard I/O errors fail fast; every
//     attempt lands in the SupervisionLog of the ResumeInfo. The checkpoint
//     write itself is not retried: its IoError surfaces to the caller, and
//     rerunning resumes from what the log holds.
//
// The construction is deterministic and the certificate text format is an
// exact round-trip, so a run resumed from any level produces a final
// certificate — and a final log — byte-identical to an uninterrupted run;
// the crash-resume tests assert exactly that, with crashes injected via
// `crash_at_level`.
#pragma once

#include <functional>
#include <string>

#include "ldlb/core/adversary.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/recover/supervisor.hpp"

namespace ldlb {

/// Options for a resumable run.
struct ResumeOptions {
  AdversaryOptions adversary;  ///< forwarded to every adversary step
  RetryPolicy retry;           ///< per-level supervision (budget escalation)
  /// Re-validate the loaded prefix against the algorithm before trusting
  /// it; levels from the first invalid one onward are recomputed.
  bool revalidate = true;
  /// Check (Δ-1-i)-loopiness during revalidation (slow for large Δ).
  bool check_loopiness = false;
  /// Called after each freshly certified level is durably checkpointed.
  /// Throwing from here models a crash right after the checkpoint — see
  /// crash_at_level.
  std::function<void(const CertificateLevel&)> on_checkpoint;
};

/// What a resumable run found, salvaged and recomputed.
struct ResumeInfo {
  CertLogReport recovery;    ///< what the log scan itself found
  int loaded_levels = 0;     ///< levels the log handed back
  int trusted_levels = 0;    ///< levels that survived re-validation
  int computed_levels = 0;   ///< levels built (or rebuilt) this run
  std::string discard_reason;  ///< why loaded levels were rejected ("" if
                               ///< none were)
  SupervisionLog supervision;  ///< every level-build attempt this run
};

/// Runs the full adversary against `algorithm` at maximum degree `delta`,
/// checkpointing into (and resuming from) `log`. Returns the complete
/// chain of levels 0..delta-2, exactly as run_adversary would.
LowerBoundCertificate run_adversary_resumable(EcAlgorithm& algorithm,
                                              int delta, CertificateLog& log,
                                              const ResumeOptions& options = {},
                                              ResumeInfo* info = nullptr);

/// Checkpoint hook that throws FaultInjected right after level `level` is
/// durably stored — a simulated process crash for the kill-and-resume tests
/// and demos.
[[nodiscard]] std::function<void(const CertificateLevel&)> crash_at_level(
    int level);

}  // namespace ldlb
