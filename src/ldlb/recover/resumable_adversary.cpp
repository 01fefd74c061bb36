#include "ldlb/recover/resumable_adversary.hpp"

#include <sstream>

#include "ldlb/core/base_case.hpp"
#include "ldlb/util/cancellation.hpp"
#include "ldlb/util/error.hpp"

namespace ldlb {

LowerBoundCertificate run_adversary_resumable(EcAlgorithm& algorithm,
                                              int delta, CertificateLog& log,
                                              const ResumeOptions& options,
                                              ResumeInfo* info) {
  LDLB_REQUIRE(delta >= 2);
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

  const auto checkpoint = [&](const CertificateLevel& lv) {
    log.checkpoint(chain);
    ++inf.computed_levels;
    if (options.on_checkpoint) options.on_checkpoint(lv);
  };

  if (options.adversary.cancel) options.adversary.cancel->check();

  if (chain.levels.empty()) {
    chain.levels.push_back(build_base_case(
        algorithm, delta, adversary_round_budget(delta, options.adversary)));
    checkpoint(chain.levels.back());
  }

  while (chain.certified_radius() < delta - 2) {
    if (options.adversary.cancel) options.adversary.cancel->check();
    chain.levels.push_back(adversary_step(algorithm, delta,
                                          chain.levels.back(),
                                          options.adversary));
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
