#include "ldlb/recover/resumable_adversary.hpp"

#include <cmath>
#include <sstream>
#include <utility>

#include "ldlb/core/base_case.hpp"
#include "ldlb/util/error.hpp"

namespace ldlb {

namespace {

// Mirrors the default budget of core/adversary.cpp so an uninterrupted
// resumable run and run_adversary see identical budgets.
int base_round_budget(int delta, const AdversaryOptions& options) {
  return options.max_rounds > 0 ? options.max_rounds
                                : 16 * (delta + 2) * (delta + 2);
}

// Builds one level under the retry policy: transient failures retry with an
// escalated round budget, permanent ones rethrow immediately. Every attempt
// is appended to `log`.
template <typename Build>
CertificateLevel supervised_level(const RetryPolicy& policy, int base_rounds,
                                  SupervisionLog& log, Build&& build) {
  for (int attempt = 1;; ++attempt) {
    RunBudget base;
    base.max_rounds = base_rounds;
    const int rounds = policy.escalated(base, attempt).max_rounds;
    SupervisionAttempt record;
    record.attempt = attempt;
    record.max_rounds = rounds;
    try {
      CertificateLevel lv = build(rounds);
      record.status = RunStatus::kOk;
      log.attempts.push_back(std::move(record));
      return lv;
    } catch (const BudgetExceeded& e) {
      record.status = RunStatus::kBudgetExceeded;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      if (attempt >= policy.max_attempts) {
        log.exhausted = true;
        throw;
      }
    } catch (const Cancelled& e) {
      // Cancellation is a request to stop, never a failure to retry.
      record.status = RunStatus::kCancelled;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      throw;
    } catch (const IoError& e) {
      record.status = RunStatus::kEnvFault;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      if (!policy.transient(RunStatus::kEnvFault, e.error_code())) throw;
      if (attempt >= policy.max_attempts) {
        log.exhausted = true;
        throw;
      }
    } catch (const ModelViolation& e) {
      record.status = RunStatus::kModelViolation;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      throw;
    } catch (const Error& e) {
      record.status = RunStatus::kContractViolation;
      record.error = e.what();
      log.attempts.push_back(std::move(record));
      throw;
    }
  }
}

}  // namespace

LowerBoundCertificate run_adversary_resumable(EcAlgorithm& algorithm,
                                              int delta, CertificateLog& log,
                                              const ResumeOptions& options,
                                              ResumeInfo* info) {
  LDLB_REQUIRE(delta >= 2);
  LDLB_REQUIRE_MSG(options.retry.max_attempts >= 1,
                   "a retry policy needs at least one attempt");
  LDLB_REQUIRE_MSG(options.retry.budget_factor >= 1.0,
                   "budget escalation must not shrink budgets");
  ResumeInfo local_info;
  ResumeInfo& inf = info != nullptr ? *info : local_info;
  inf = {};

  LowerBoundCertificate chain = log.load(&inf.recovery);
  inf.loaded_levels = static_cast<int>(chain.levels.size());

  // A stored chain for a different job is worthless, however intact it is.
  if (!chain.levels.empty() &&
      (chain.delta != delta || chain.algorithm_name != algorithm.name())) {
    std::ostringstream os;
    os << "stored chain is for delta=" << chain.delta << ", algorithm '"
       << chain.algorithm_name << "'; this run wants delta=" << delta
       << ", algorithm '" << algorithm.name() << "'";
    inf.discard_reason = os.str();
    chain.levels.clear();
  }

  // Re-run the algorithm on every loaded level: a stored chain cannot be
  // "trusted into" the run just because its checksums pass.
  if (options.revalidate && !chain.levels.empty()) {
    auto validations =
        validate_certificate(chain, algorithm, options.check_loopiness);
    std::size_t keep = 0;
    while (keep < validations.size() && validations[keep].ok()) ++keep;
    if (keep < chain.levels.size()) {
      std::ostringstream os;
      os << "loaded level " << validations[keep].level
         << " failed re-validation against '" << algorithm.name() << "'";
      inf.discard_reason = os.str();
      chain.levels.resize(keep);
    }
  }
  inf.trusted_levels = static_cast<int>(chain.levels.size());

  chain.delta = delta;
  chain.algorithm_name = algorithm.name();

  const int base_rounds = base_round_budget(delta, options.adversary);
  const auto checkpoint = [&](const CertificateLevel& lv) {
    log.checkpoint(chain);
    ++inf.computed_levels;
    if (options.on_checkpoint) options.on_checkpoint(lv);
  };

  if (options.adversary.cancel) options.adversary.cancel->check();

  if (chain.levels.empty()) {
    CertificateLevel base =
        supervised_level(options.retry, base_rounds, inf.supervision,
                         [&](int rounds) {
                           return build_base_case(algorithm, delta, rounds);
                         });
    chain.levels.push_back(std::move(base));
    checkpoint(chain.levels.back());
  }

  while (chain.certified_radius() < delta - 2) {
    if (options.adversary.cancel) options.adversary.cancel->check();
    AdversaryOptions step_options = options.adversary;
    CertificateLevel next = supervised_level(
        options.retry, base_rounds, inf.supervision, [&](int rounds) {
          step_options.max_rounds = rounds;
          return adversary_step(algorithm, delta, chain.levels.back(),
                                step_options);
        });
    chain.levels.push_back(std::move(next));
    checkpoint(chain.levels.back());
  }

  LDLB_ENSURE(chain.certified_radius() == delta - 2);
  return chain;
}

std::function<void(const CertificateLevel&)> crash_at_level(int level) {
  return [level](const CertificateLevel& lv) {
    if (lv.level != level) return;
    std::ostringstream os;
    os << "injected crash-stop after checkpointing level " << level;
    throw FaultInjected(os.str());
  };
}

}  // namespace ldlb
