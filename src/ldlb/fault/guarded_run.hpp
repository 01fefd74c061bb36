// Guarded execution: run an untrusted algorithm under budgets and get back
// a *classified* outcome instead of a loose exception.
//
// A GuardedOutcome tells you, in machine-readable form, exactly how a run
// went: clean, over budget, in breach of the LOCAL output contract,
// cancelled cooperatively, killed by an environment fault (I/O error or
// allocation failure), or producing a weight vector the checker rejects
// (with the checker's structured ViolationReport). Partial RunDiagnostics
// survive even when the run dies mid-flight, so the per-round traffic
// histogram and the halting profile of a failed run are still observable.
//
// This is the harness the broken-algorithm tests run on, and the entry
// point for executing untrusted algorithms. `guarded_run_adversary`
// extends the same contract to a whole adversary run: the certificate
// chain built so far is dropped on failure, but the classified status, the
// errno of an environment fault, and the diagnostics of the last simulated
// run all survive.
#pragma once

#include <optional>
#include <string>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate.hpp"
#include "ldlb/local/simulator.hpp"
#include "ldlb/matching/checker.hpp"
#include "ldlb/util/cancellation.hpp"

namespace ldlb {

/// How a guarded run ended.
enum class RunStatus {
  kOk,                 ///< completed; see `check` for output validity
  kBudgetExceeded,     ///< a round / message / wall-clock budget tripped
  kModelViolation,     ///< the algorithm broke the output contract
  kCancelled,          ///< a CancellationToken (or its deadline) fired
  kEnvFault,           ///< the environment failed: I/O error or bad_alloc
  kContractViolation,  ///< a precondition or internal invariant failed
};

[[nodiscard]] const char* to_string(RunStatus status);

struct GuardedRunOptions {
  RunBudget budget;
  bool check_output = true;  ///< verify the output is a maximal FM
  CancellationToken* cancel = nullptr;  ///< cooperative cancel; not owned
};

/// Everything observable about one guarded run.
struct GuardedOutcome {
  RunStatus status = RunStatus::kOk;
  std::string error;           ///< what() of the terminating error ("" if ok)
  int env_errno = 0;  ///< errno of the IoError when status == kEnvFault
                      ///< (0 for bad_alloc and all other statuses)
  RunDiagnostics diagnostics;  ///< partial when the run died mid-flight
  std::optional<RunResult> run;  ///< present iff status == kOk
  /// Full certificate from guarded_run_adversary; present iff that entry
  /// point was used and the chain completed. Plain runs leave it empty.
  std::optional<LowerBoundCertificate> certificate;
  CheckResult check;  ///< checker verdict (pass unless check_output ran and
                      ///< failed)

  /// Clean run *and* valid output.
  [[nodiscard]] bool ok() const {
    return status == RunStatus::kOk && check.ok;
  }

  /// One-token classification: "ok", the RunStatus name, or
  /// "check:<violation-kind>".
  [[nodiscard]] std::string classification() const;
};

GuardedOutcome guarded_run_ec(const Multigraph& g, EcAlgorithm& alg,
                              const GuardedRunOptions& options);
GuardedOutcome guarded_run_po(const Digraph& g, PoAlgorithm& alg,
                              const GuardedRunOptions& options);

/// Runs the full adversary chain against `alg` at maximum degree `delta`
/// under the same classification contract. On success the outcome carries
/// the certificate; on any classified failure it carries the partial
/// diagnostics the adversary published (see AdversaryOptions::diagnostics)
/// plus the cancellation / env-fault detail.
GuardedOutcome guarded_run_adversary(EcAlgorithm& alg, int delta,
                                     AdversaryOptions options = {});

}  // namespace ldlb
