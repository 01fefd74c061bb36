// Perf-regression gate for CI (scripts/ci.sh).
//
// Measures the min-of-N wall time of the full Δ-adversary chain plus
// certificate validation and compares it against a checked-in baseline.
// Exits nonzero when the measured time regresses past the allowed factor,
// so an accidental reintroduction of an exponential isomorphism path
// fails CI in seconds instead of rotting silently.
// Min-of-N because single-shot wall times on shared CI machines jitter
// by 10-20%; the minimum is the stable statistic of a deterministic
// computation.
//
// Usage:
//   ldlb_perf_gate <baseline-file> [--delta N] [--reps N] [--factor F]
//   ldlb_perf_gate --measure [--delta N] [--reps N]
//
// The baseline file holds one number: the reference min wall time in
// milliseconds (regenerate with --measure on a quiet machine). The gate
// fails when measured > factor * baseline (default factor 2.0).
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate.hpp"
#include "ldlb/matching/seq_color_packing.hpp"

namespace {

double run_once_ms(int delta) {
  ldlb::SeqColorPacking alg{delta};
  const auto t0 = std::chrono::steady_clock::now();
  ldlb::LowerBoundCertificate cert = ldlb::run_adversary(alg, delta);
  const bool valid =
      ldlb::certificate_is_valid(cert, alg, /*check_loopiness=*/false);
  const auto t1 = std::chrono::steady_clock::now();
  if (!valid || cert.certified_radius() != delta - 2) {
    std::cerr << "perf gate: delta " << delta
              << " certificate invalid — timing is meaningless\n";
    std::exit(2);
  }
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::milli>>(t1 - t0)
      .count();
}

int usage() {
  std::cerr << "usage: ldlb_perf_gate <baseline-file> [--delta N] [--reps N]"
               " [--factor F]\n"
               "       ldlb_perf_gate --measure [--delta N] [--reps N]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string baseline_file;
  bool measure = false;
  int delta = 12;
  int reps = 3;
  double factor = 2.0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--measure") {
      measure = true;
    } else if (arg == "--delta" && i + 1 < argc) {
      delta = std::atoi(argv[++i]);
    } else if (arg == "--reps" && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (arg == "--factor" && i + 1 < argc) {
      factor = std::atof(argv[++i]);
    } else if (baseline_file.empty() && arg[0] != '-') {
      baseline_file = arg;
    } else {
      return usage();
    }
  }
  if (delta < 3 || reps < 1 || factor <= 0) return usage();
  if (!measure && baseline_file.empty()) return usage();

  double best = 0.0;
  for (int rep = 0; rep < reps; ++rep) {
    const double ms = run_once_ms(delta);
    if (rep == 0 || ms < best) best = ms;
  }

  if (measure) {
    std::cout << best << "\n";
    return 0;
  }

  std::ifstream in(baseline_file);
  double baseline = 0.0;
  if (!(in >> baseline) || baseline <= 0) {
    std::cerr << "perf gate: cannot read baseline from " << baseline_file
              << "\n";
    return 2;
  }
  std::cout << "perf gate: delta " << delta << " adversary+validate min-of-"
            << reps << " = " << best << " ms (baseline " << baseline
            << " ms, tolerance " << factor << "x)\n";
  if (best > factor * baseline) {
    std::cerr << "perf gate: REGRESSION — " << best << " ms exceeds "
              << factor << " x " << baseline << " ms; see "
              << "docs/PERFORMANCE.md\n";
    return 1;
  }
  return 0;
}
