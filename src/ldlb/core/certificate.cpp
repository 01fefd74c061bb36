#include "ldlb/core/certificate.hpp"

#include "ldlb/cover/loopiness.hpp"
#include "ldlb/local/simulator.hpp"
#include "ldlb/util/thread_pool.hpp"
#include "ldlb/view/ball.hpp"
#include "ldlb/view/isomorphism.hpp"

namespace ldlb {

namespace {

// Generous round budget for re-running the algorithm during validation: the
// graphs have max degree <= Δ, so any O(Δ)-round algorithm fits easily; even
// slower correct algorithms should fit a quadratic budget.
int round_budget(int delta) { return 16 * (delta + 2) * (delta + 2); }

// Every colour lies in [0, Δ), the palette the EC-model simulator runs with.
bool colours_in_palette(const Multigraph& g, int delta) {
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const Color c = g.edge(e).color;
    if (c < 0 || c >= delta) return false;
  }
  return true;
}

}  // namespace

std::vector<LevelValidation> validate_certificate(
    const LowerBoundCertificate& cert, EcAlgorithm& algorithm,
    bool check_loopiness) {
  std::vector<LevelValidation> out(cert.levels.size());
  // Levels are validated independently, so a thread-safe algorithm lets the
  // whole chain fan out across the pool; every result lands in its own
  // slot and parallel_for surfaces the lowest-index failure, so outcome and
  // exception order match the sequential loop.
  const bool par = algorithm.parallel_safe() && global_pool().size() > 1;
  auto validate_one = [&](std::size_t i) {
    const CertificateLevel& lv = cert.levels[i];
    LevelValidation v;
    v.level = lv.level;

    // The palette check runs first: it bounds the colour-stamp array of
    // has_proper_edge_coloring, and a tampered level that fails it, or the
    // shape checks, never reaches the preconditions of the loopiness and
    // re-execution stages below — it is reported invalid, not thrown on.
    v.degree_ok = colours_in_palette(lv.g, cert.delta) &&
                  colours_in_palette(lv.h, cert.delta) &&
                  lv.g.max_degree() <= cert.delta &&
                  lv.h.max_degree() <= cert.delta &&
                  lv.g.has_proper_edge_coloring() &&
                  lv.h.has_proper_edge_coloring();
    v.shape_ok = lv.g.is_forest_ignoring_loops() &&
                 lv.h.is_forest_ignoring_loops() && lv.g.is_connected() &&
                 lv.h.is_connected();
    if (!check_loopiness) {
      v.loopy_ok = true;
    } else if (v.degree_ok && v.shape_ok) {
      int need = cert.delta - 1 - lv.level;
      v.loopy_ok = loopiness(lv.g) >= need && loopiness(lv.h) >= need;
    }

    v.witness_loops_ok =
        lv.g_loop >= 0 && lv.g_loop < lv.g.edge_count() &&
        lv.h_loop >= 0 && lv.h_loop < lv.h.edge_count() &&
        lv.g.edge(lv.g_loop).is_loop() && lv.h.edge(lv.h_loop).is_loop() &&
        lv.g.edge(lv.g_loop).u == lv.g_node &&
        lv.h.edge(lv.h_loop).u == lv.h_node &&
        lv.g.edge(lv.g_loop).color == lv.c &&
        lv.h.edge(lv.h_loop).color == lv.c;

    if (v.degree_ok && v.witness_loops_ok) {
      // P1 via memoized canonical encodings (the adversary already encoded
      // these balls while building the chain); transparent fallback inside.
      v.balls_isomorphic =
          balls_isomorphic_cached(lv.g, lv.g_node, lv.h, lv.h_node, lv.level);

      // Independent re-execution of the algorithm on both graphs.
      RunResult run_g = run_ec(lv.g, algorithm, round_budget(cert.delta));
      RunResult run_h = run_ec(lv.h, algorithm, round_budget(cert.delta));
      const Rational& wg = run_g.matching.weight(lv.g_loop);
      const Rational& wh = run_h.matching.weight(lv.h_loop);
      v.outputs_differ = wg != wh;
      v.weights_match_stored = wg == lv.g_weight && wh == lv.h_weight;
    }
    out[i] = v;
  };
  if (par) {
    global_pool().parallel_for(cert.levels.size(), validate_one);
  } else {
    for (std::size_t i = 0; i < cert.levels.size(); ++i) validate_one(i);
  }
  return out;
}

bool certificate_is_valid(const LowerBoundCertificate& cert,
                          EcAlgorithm& algorithm, bool check_loopiness) {
  auto validations = validate_certificate(cert, algorithm, check_loopiness);
  if (validations.size() != cert.levels.size() || validations.empty()) {
    return false;
  }
  for (const auto& v : validations) {
    if (!v.ok()) return false;
  }
  return true;
}

}  // namespace ldlb
