#include "jobs.hpp"

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/base_case.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/core/sim_ec_po.hpp"
#include "ldlb/local/simulator.hpp"
#include "ldlb/matching/proposal_packing.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/util/thread_pool.hpp"
#include "ldlb/view/ball_store.hpp"
#include "ldlb/view/isomorphism.hpp"

namespace certbench {

using namespace ldlb;

std::string Record::to_text() const {
  std::string out;
  char buf[64];
  for (const auto& [key, value] : m) {
    std::snprintf(buf, sizeof buf, "%.17g", value);
    out += "m " + key + " " + buf + "\n";
  }
  for (const Span& s : spans) {
    out += "span " + std::to_string(s.parent) + " " +
           std::to_string(s.start_ns) + " " + std::to_string(s.end_ns) + " " +
           s.name + "\n";
  }
  return out;
}

Record Record::parse(const std::string& text) {
  Record r;
  std::istringstream in(text);
  std::string kind;
  while (in >> kind) {
    if (kind == "m") {
      std::string key;
      double value = 0;
      in >> key >> value;
      r.m[key] = value;
    } else if (kind == "span") {
      Span s;
      in >> s.parent >> s.start_ns >> s.end_ns >> s.name;
      r.spans.push_back(s);
    } else {
      std::string rest;
      std::getline(in, rest);
    }
  }
  return r;
}

namespace {

struct Subject {
  std::unique_ptr<PoAlgorithm> inner;
  std::unique_ptr<EcAlgorithm> alg;
};

Subject make_subject(const JobSpec& spec) {
  Subject s;
  if (spec.algorithm == "seq") {
    s.alg = std::make_unique<SeqColorPacking>(spec.delta);
  } else if (spec.algorithm == "po") {
    s.inner = std::make_unique<ProposalPacking>();
    s.alg = std::make_unique<EcFromPo>(*s.inner);
  } else {
    throw std::runtime_error("unknown algorithm " + spec.algorithm);
  }
  return s;
}

double cpu_seconds() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) /
             1e6;
}

template <class F>
auto timed(Tracer* tracer, const char* name, F&& f) {
  Tracer::Scope scope(tracer, name);
  return f();
}

void add_ball_store_stats(Record& r) {
  const BallStoreStats st = ball_store_stats();
  r.m["bs.key_queries"] = static_cast<double>(st.key_queries);
  r.m["bs.memo_hits"] = static_cast<double>(st.memo_hits);
  r.m["bs.intern_lookups"] = static_cast<double>(st.intern_lookups);
  r.m["bs.intern_hits"] = static_cast<double>(st.intern_hits);
  r.m["bs.collisions"] = static_cast<double>(st.collisions);
  r.m["bs.intern_resets"] = static_cast<double>(st.intern_resets);
  r.m["bs.bytes"] = static_cast<double>(st.bytes);
}

// The adversary's own (P1) check for a freshly built level, as verify_level
// does it: witness balls isomorphic by canonical key, weights different.
void check_p1(const CertificateLevel& lv) {
  if (!balls_isomorphic_cached(lv.g, lv.g_node, lv.h, lv.h_node, lv.level)) {
    throw std::runtime_error("level " + std::to_string(lv.level) +
                             ": witness neighbourhoods not isomorphic");
  }
  if (lv.g_weight == lv.h_weight) {
    throw std::runtime_error("level " + std::to_string(lv.level) +
                             ": witness weights equal");
  }
}

// run_adversary's serial (lazy) path, rebuilt from plan_adversary_step,
// run_ec and combine_adversary_step with one span per layer call. Same
// simulations, same checks and the same certificate bytes.
LowerBoundCertificate split_adversary(EcAlgorithm& alg, int delta,
                                      Tracer* tracer, Record& r) {
  const AdversaryOptions defaults;
  AdversaryOptions combine_options;
  combine_options.verify_p1 = false;  // checked below, in its own span
  RunOptions run_options;
  run_options.budget.max_rounds = adversary_round_budget(delta, defaults);

  double runs = 0, rounds = 0, messages = 0, message_bytes = 0;
  auto simulate = [&](const Multigraph& g) {
    RunResult res = timed(tracer, "simulator",
                          [&] { return run_ec(g, alg, run_options); });
    runs += 1;
    rounds += res.rounds;
    messages += static_cast<double>(res.messages);
    message_bytes += static_cast<double>(res.message_bytes);
    return std::move(res.matching);
  };

  LowerBoundCertificate cert;
  cert.delta = delta;
  cert.algorithm_name = alg.name();
  CertificateLevel level =
      build_base_case(alg, delta, run_options.budget.max_rounds);
  timed(tracer, "ball_store.p1", [&] { check_p1(level); });
  cert.levels.push_back(level);
  for (int i = 0; i + 1 <= delta - 2; ++i) {
    AdversaryStepPlan plan = timed(tracer, "adversary.plan",
                                   [&] { return plan_adversary_step(level); });
    FractionalMatching y_gh = simulate(plan.gh);
    // `plan` outlives the combine call, so the reference capture is sound.
    BranchFetch fetch = [&](bool want_gg) {
      return simulate(want_gg ? plan.gg.graph : plan.hh.graph);
    };
    level = timed(tracer, "adversary.combine", [&] {
      return combine_adversary_step(delta, level, std::move(plan),
                                    std::move(y_gh), fetch, alg.name(),
                                    combine_options);
    });
    timed(tracer, "ball_store.p1", [&] { check_p1(level); });
    cert.levels.push_back(level);
  }
  r.m["sim.runs"] = runs;
  r.m["sim.rounds"] = rounds;
  r.m["sim.messages"] = messages;
  r.m["sim.message_bytes"] = message_bytes;
  return cert;
}

// FNV-1a 64, fed field by field.
class ContentHash {
 public:
  void add(std::int64_t x) {
    const auto u = static_cast<std::uint64_t>(x);
    for (int i = 0; i < 8; ++i) byte(static_cast<unsigned char>(u >> (8 * i)));
  }
  void add(const std::string& text) {
    add(static_cast<std::int64_t>(text.size()));
    for (char ch : text) byte(static_cast<unsigned char>(ch));
  }
  void add(const Multigraph& g) {
    add(g.node_count());
    add(g.edge_count());
    for (EdgeId e = 0; e < g.edge_count(); ++e) {
      const Multigraph::Edge& edge = g.edge(e);
      add(edge.u);
      add(edge.v);
      add(edge.color);
    }
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  void byte(unsigned char b) {
    hash_ ^= b;
    hash_ *= 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Hash of what the certificate certifies: Δ, the algorithm, and per level
// both graphs with their colours, the witness nodes and loops, c and the
// two weights. The text encoding is not hashed, so the on-disk format may
// change without touching the expected values; propagation_steps is the
// adversary's bookkeeping and is left out too.
std::uint64_t content_checksum(const LowerBoundCertificate& cert) {
  ContentHash h;
  h.add(cert.delta);
  h.add(cert.algorithm_name);
  h.add(static_cast<std::int64_t>(cert.levels.size()));
  for (const CertificateLevel& lv : cert.levels) {
    h.add(lv.level);
    h.add(lv.g);
    h.add(lv.h);
    h.add(lv.g_node);
    h.add(lv.h_node);
    h.add(lv.c);
    h.add(lv.g_loop);
    h.add(lv.h_loop);
    h.add(lv.g_weight.to_string());
    h.add(lv.h_weight.to_string());
  }
  return h.value();
}

// Traced serial jobs drive the step through the shardable API, one span per
// layer call; traced jobs on a pool record whole-call spans only.
bool splits_layers(const JobSpec& spec) {
  return spec.traced && spec.threads == 1;
}

// Step counts read back from the chain: a level whose H witness lies in
// the H-part of the mix (offset by |V(G_{i-1})|) came from the HH case.
void add_chain_counts(const LowerBoundCertificate& cert, Record& r) {
  double gg = 0, hh = 0, propagation = 0;
  for (std::size_t i = 1; i < cert.levels.size(); ++i) {
    const CertificateLevel& lv = cert.levels[i];
    (lv.h_node >= cert.levels[i - 1].g.node_count() ? hh : gg) += 1;
    propagation += lv.propagation_steps;
  }
  r.m["steps"] = gg + hh;
  r.m["gg_cases"] = gg;
  r.m["hh_cases"] = hh;
  r.m["propagation_steps"] = propagation;
}

}  // namespace

std::string generate_half(const JobSpec& spec) {
  Record r;
  Tracer tracer;
  Tracer* tr = spec.traced ? &tracer : nullptr;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  LowerBoundCertificate cert;
  {
    Tracer::Scope root(tr, "generate");
    ThreadPool::set_global_threads(spec.threads);
    Subject subject = make_subject(spec);
    clear_ball_encoding_cache();
    {
      Tracer::Scope adversary(tr, "adversary");
      cert = splits_layers(spec)
                 ? split_adversary(*subject.alg, spec.delta, tr, r)
                 : run_adversary(*subject.alg, spec.delta);
    }
    if (spec.tamper) cert.levels.back().h_weight += Rational(1, 997);
    timed(tr, "certificate_io.write",
          [&] { write_certificate_file(spec.cert_path, cert); });
  }
  r.m["wall_s"] = static_cast<double>(now_ns() - t0) / 1e9;
  r.m["cpu_s"] = cpu_seconds() - cpu0;
  r.m["radius"] = cert.certified_radius();
  add_chain_counts(cert, r);
  add_ball_store_stats(r);
  r.spans = tracer.spans();
  return r.to_text();
}

std::string verify_half(const JobSpec& spec) {
  Record r;
  Tracer tracer;
  Tracer* tr = spec.traced ? &tracer : nullptr;
  const double cpu0 = cpu_seconds();
  const std::int64_t t0 = now_ns();
  Subject subject;
  LowerBoundCertificate cert;
  std::vector<LevelValidation> verdicts;
  {
    Tracer::Scope root(tr, "verify");
    ThreadPool::set_global_threads(spec.threads);
    subject = make_subject(spec);
    clear_ball_encoding_cache();
    cert = timed(tr, "certificate_io.read",
                 [&] { return read_certificate_file(spec.cert_path); });
    verdicts = timed(tr, "validator", [&] {
      return validate_certificate(cert, *subject.alg,
                                  /*check_loopiness=*/false);
    });
  }
  r.m["wall_s"] = static_cast<double>(now_ns() - t0) / 1e9;
  r.m["cpu_s"] = cpu_seconds() - cpu0;
  bool valid = cert.delta == spec.delta && !verdicts.empty() &&
               verdicts.size() == cert.levels.size();
  for (const LevelValidation& v : verdicts) valid = valid && v.ok();
  r.m["valid"] = valid ? 1 : 0;
  r.m["radius"] = cert.certified_radius();
  r.m["levels"] = static_cast<double>(cert.levels.size());
  // Two 32-bit halves, each exact in a double.
  const std::uint64_t content = content_checksum(cert);
  r.m["content_hi"] = static_cast<double>(content >> 32);
  r.m["content_lo"] = static_cast<double>(content & 0xffffffffULL);
  add_ball_store_stats(r);

  if (splits_layers(spec)) {
    // The validator's two layers, timed per stored level on a cold store
    // after the half's clock has stopped: P1 by canonical key, and the
    // re-run of the algorithm on both graphs.
    clear_ball_encoding_cache();
    RunOptions run_options;
    run_options.budget.max_rounds =
        adversary_round_budget(spec.delta, AdversaryOptions{});
    Tracer::Scope split(tr, "validator.split");
    for (const CertificateLevel& lv : cert.levels) {
      timed(tr, "validator.p1", [&] {
        return balls_isomorphic_cached(lv.g, lv.g_node, lv.h, lv.h_node,
                                       lv.level);
      });
      timed(tr, "validator.sim", [&] {
        run_ec(lv.g, *subject.alg, run_options);
        run_ec(lv.h, *subject.alg, run_options);
      });
    }
  }
  r.spans = tracer.spans();
  return r.to_text();
}

std::string micro_half(const JobSpec& spec, double seconds) {
  ThreadPool::set_global_threads(1);
  Subject subject = make_subject(spec);
  const LowerBoundCertificate cert = read_certificate_file(spec.cert_path);
  const CertificateLevel& last = cert.levels.back();
  RunOptions run_options;
  run_options.budget.max_rounds =
      adversary_round_budget(spec.delta, AdversaryOptions{});
  Record r;

  // Repeats `body` (which returns the work it did) for `seconds`, at least
  // three times; returns work per second.
  auto rate = [&](const std::function<double()>& body) {
    double work = 0;
    int reps = 0;
    const std::int64_t t0 = now_ns();
    std::int64_t t1 = t0;
    while (reps < 3 || static_cast<double>(t1 - t0) < seconds * 1e9) {
      work += body();
      ++reps;
      t1 = now_ns();
    }
    return work / (static_cast<double>(t1 - t0) / 1e9);
  };

  r.m["micro.msgs_per_s"] = rate([&] {
    return static_cast<double>(run_ec(last.g, *subject.alg, run_options)
                                   .messages);
  });

  r.m["micro.keys_per_s"] = rate([&] {
    clear_ball_store();
    double queries = 0;
    for (const CertificateLevel& lv : cert.levels) {
      if (!canonical_ball_key(lv.g, lv.g_node, lv.level) ||
          !canonical_ball_key(lv.h, lv.h_node, lv.level)) {
        throw std::runtime_error("ball key undefined on a stored level");
      }
      queries += 2;
    }
    return queries;
  });

  // Operands: the algorithm's weights on the final G, plus every stored
  // witness weight.
  std::vector<Rational> w =
      run_ec(last.g, *subject.alg, run_options).matching.weights();
  if (w.size() > 4096) w.resize(4096);
  for (const CertificateLevel& lv : cert.levels) {
    w.push_back(lv.g_weight);
    w.push_back(lv.h_weight);
  }
  std::size_t sink = 0;
  r.m["micro.rational_ops_per_s"] = rate([&] {
    for (std::size_t i = 0; i + 1 < w.size(); ++i) {
      const Rational& a = w[i];
      const Rational& b = w[i + 1];
      sink ^= std::hash<Rational>{}(a + b) ^ std::hash<Rational>{}(a * b) ^
              static_cast<std::size_t>(a < b);
    }
    return 3.0 * static_cast<double>(w.size() - 1);
  });
  // Keeps the Rational results observable so the loop cannot be elided.
  r.m["micro.sink"] = static_cast<double>(sink % 1024);
  return r.to_text();
}

}  // namespace certbench
