// Property (P1), τ_i(G_i, g_i) ≅ τ_i(H_i, h_i), is decided by
// `balls_isomorphic_at` (view/isomorphism): a lockstep BFS from the two
// witnesses. Ball extraction followed by `rooted_isomorphism` decides the
// same question by a different route. Both are exact, so this binary pits
// them against each other and demands the same verdict on every input:
// the seq chains' witnesses and off-witness pairs at Δ = 3..12, random
// lifts and the adversary's mixes, properly coloured graphs with cycles
// and parallel edges, the radius-boundary cases of Section 3.1, planted
// non-isomorphic pairs, improperly coloured balls, and the radii 0 and
// INT_MAX.
//
// The binary also covers the canonical ball-key store (view/ball_store),
// which the certbench harness still times, and the 128-bit FNV-1a its keys
// are built from (checked against an independent __int128 reference).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include "ldlb/core/adversary.hpp"
#include "ldlb/cover/lift.hpp"
#include "ldlb/graph/edge_coloring.hpp"
#include "ldlb/graph/generators.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/util/checksum.hpp"
#include "ldlb/util/rng.hpp"
#include "ldlb/view/ball.hpp"
#include "ldlb/view/ball_store.hpp"
#include "ldlb/view/isomorphism.hpp"

namespace ldlb {
namespace {

constexpr int kHugeRadius = std::numeric_limits<int>::max();

// Verdict counts of a sweep; a sweep that never sees both verdicts proves
// nothing.
struct Tally {
  int iso = 0;
  int non_iso = 0;
};

// Runs both checks on one pair, fails the current test if they disagree,
// and returns the reference verdict.
bool differential(const Multigraph& g, NodeId gv, const Multigraph& h,
                  NodeId hv, int radius, Tally* tally = nullptr) {
  const bool truth = balls_isomorphic(extract_ball(g, gv, radius),
                                      extract_ball(h, hv, radius));
  EXPECT_EQ(balls_isomorphic_at(g, gv, h, hv, radius), truth)
      << "nodes (" << gv << ", " << hv << ") radius " << radius;
  if (tally != nullptr) (truth ? tally->iso : tally->non_iso)++;
  return truth;
}

NodeId random_node(const Multigraph& g, Rng& rng) {
  return static_cast<NodeId>(
      rng.next_below(static_cast<std::uint64_t>(g.node_count())));
}

// Every pair of nodes of g (and of g against h) at radii 0..max_radius.
void all_pairs(const Multigraph& g, const Multigraph& h, int max_radius,
               Tally& tally) {
  for (int radius = 0; radius <= max_radius; ++radius) {
    for (NodeId u = 0; u < g.node_count(); ++u) {
      for (NodeId w = 0; w < h.node_count(); ++w) {
        differential(g, u, h, w, radius, &tally);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// balls_isomorphic_at against extract_ball + rooted_isomorphism.
// ---------------------------------------------------------------------------

TEST(LockstepP1, AgreesOnSeqChainWitnessesAndOffWitnessPairs) {
  Rng rng{411};
  for (int delta = 3; delta <= 12; ++delta) {
    SCOPED_TRACE("delta " + std::to_string(delta));
    SeqColorPacking alg{delta};
    const LowerBoundCertificate cert = run_adversary(alg, delta);
    ASSERT_EQ(static_cast<int>(cert.levels.size()), delta - 1);
    for (const CertificateLevel& lv : cert.levels) {
      EXPECT_TRUE(differential(lv.g, lv.g_node, lv.h, lv.h_node, lv.level))
          << "P1 witness pair at level " << lv.level;
    }
    // 200 off-witness pairs per chain: G against H, G against G and H
    // against H, at the level's radius and one either side of it.
    Tally tally;
    for (int trial = 0; trial < 200; ++trial) {
      const CertificateLevel& lv = cert.levels[rng.next_below(
          static_cast<std::uint64_t>(cert.levels.size()))];
      const int radius =
          std::max(0, lv.level - 1 + static_cast<int>(rng.next_below(3)));
      const Multigraph& a = trial % 3 == 2 ? lv.h : lv.g;
      const Multigraph& b = trial % 3 == 1 ? lv.g : lv.h;
      differential(a, random_node(a, rng), b, random_node(b, rng), radius,
                   &tally);
    }
    EXPECT_GT(tally.iso, 0);
    EXPECT_GT(tally.non_iso, 0);
  }
}

TEST(LockstepP1, AgreesOnRandomLiftsAndMixes) {
  Rng rng{2027};
  Tally tally;
  SeqColorPacking alg{6};
  const LowerBoundCertificate cert = run_adversary(alg, 6);
  for (const CertificateLevel& lv : cert.levels) {
    // The mix GH and the two unfoldings the adversary builds from a level.
    const AdversaryStepPlan plan = plan_adversary_step(lv);
    for (int trial = 0; trial < 40; ++trial) {
      const int radius = static_cast<int>(rng.next_below(5));
      const Multigraph& a = trial % 2 == 0 ? plan.gh : plan.gg.graph;
      const Multigraph& b = trial % 4 < 2 ? plan.hh.graph : plan.gh;
      differential(a, random_node(a, rng), b, random_node(b, rng), radius,
                   &tally);
    }
    // Random 2- and 4-lifts are covers, so a node and its image in the
    // base have isomorphic balls only up to the radius the lift preserves;
    // both checks must say where that stops.
    for (int k : {2, 4}) {
      const Lift lift = random_permutation_lift(lv.g, k, rng);
      for (int trial = 0; trial < 20; ++trial) {
        const NodeId v = random_node(lift.graph, rng);
        const int radius = static_cast<int>(rng.next_below(6));
        differential(lift.graph, v, lv.g,
                     lift.alpha[static_cast<std::size_t>(v)], radius, &tally);
        differential(lift.graph, v, lift.graph, random_node(lift.graph, rng),
                     radius, &tally);
      }
    }
  }
  EXPECT_GT(tally.iso, 0);
  EXPECT_GT(tally.non_iso, 0);
}

TEST(LockstepP1, AgreesOnProperlyColouredNonTrees) {
  Rng rng{99};
  Tally tally;
  // Cycles of every small length, against each other and against paths.
  for (NodeId n = 3; n <= 7; ++n) {
    const Multigraph cycle = greedy_edge_coloring(make_cycle(n));
    const Multigraph path = greedy_edge_coloring(make_path(n));
    all_pairs(cycle, cycle, 4, tally);
    all_pairs(cycle, path, 4, tally);
  }
  // Parallel edges of distinct colours, with and without a loop.
  Multigraph bundle(2);
  bundle.add_edge(0, 1, 0);
  bundle.add_edge(0, 1, 1);
  bundle.add_edge(0, 1, 2);
  Multigraph bundle_loop = bundle;
  bundle_loop.add_edge(1, 1, 3);
  all_pairs(bundle, bundle_loop, 3, tally);
  all_pairs(bundle_loop, bundle_loop, 3, tally);
  // Dense and random properly coloured graphs.
  all_pairs(greedy_edge_coloring(make_complete(5)),
            greedy_edge_coloring(make_complete_bipartite(3, 3)), 3, tally);
  for (int iter = 0; iter < 4; ++iter) {
    const Multigraph g = greedy_edge_coloring(make_random_regular(8, 3, rng));
    const Multigraph h = greedy_edge_coloring(make_random_regular(8, 3, rng));
    all_pairs(g, h, 3, tally);
  }
  EXPECT_GT(tally.iso, 0);
  EXPECT_GT(tally.non_iso, 0);
}

TEST(LockstepP1, BallBoundaryFollowsSection31) {
  // A loop at a depth-r node lies at distance r + 1: outside τ_r.
  Multigraph path(2);
  path.add_edge(0, 1, 0);
  Multigraph path_loop = path;
  path_loop.add_edge(1, 1, 1);
  EXPECT_TRUE(differential(path, 0, path_loop, 0, 1));
  EXPECT_FALSE(differential(path, 0, path_loop, 0, 2));
  // So does an edge between two depth-r nodes.
  Multigraph cherry(3);
  cherry.add_edge(0, 1, 0);
  cherry.add_edge(0, 2, 1);
  Multigraph triangle = cherry;
  triangle.add_edge(1, 2, 2);
  EXPECT_TRUE(differential(cherry, 0, triangle, 0, 1));
  EXPECT_FALSE(differential(cherry, 0, triangle, 0, 2));
  // A loop at the centre is at distance 1.
  Multigraph dot(1);
  Multigraph dot_loop(1);
  dot_loop.add_edge(0, 0, 0);
  EXPECT_TRUE(differential(dot, 0, dot_loop, 0, 0));
  EXPECT_FALSE(differential(dot, 0, dot_loop, 0, 1));
}

TEST(LockstepP1, RejectsPlantedNonIsomorphicPairs) {
  for (int delta = 4; delta <= 9; ++delta) {
    SCOPED_TRACE("delta " + std::to_string(delta));
    SeqColorPacking alg{delta};
    const LowerBoundCertificate cert = run_adversary(alg, delta);
    for (const CertificateLevel& lv : cert.levels) {
      // Recolour the H witness loop to a colour no end at h_i uses: the
      // colour-forced map then has nothing to send G's colour-c loop to.
      // (τ_0 is the bare node, so level 0 is checked at radius 1.)
      Multigraph recoloured = lv.h;
      recoloured.set_color(lv.h_loop, delta);
      ASSERT_TRUE(recoloured.has_proper_edge_coloring());
      EXPECT_FALSE(differential(lv.g, lv.g_node, recoloured, lv.h_node,
                                std::max(lv.level, 1)));
      // Drop the G witness loop: g_i loses an end inside every τ_r, r >= 1.
      const Multigraph dropped = lv.g.without_edge(lv.g_loop);
      EXPECT_FALSE(
          differential(dropped, lv.g_node, lv.h, lv.h_node, lv.level + 1));
      // Swapping the two witnesses' graphs keeps P1 symmetric.
      EXPECT_TRUE(differential(lv.h, lv.h_node, lv.g, lv.g_node, lv.level));
    }
  }
}

TEST(LockstepP1, ImproperColouringsGetTheReferenceAnswer) {
  // Two colour-0 ends at the centre.
  Multigraph clash(3);
  clash.add_edge(0, 1, 0);
  clash.add_edge(0, 2, 0);
  EXPECT_TRUE(differential(clash, 0, clash, 0, 0));
  EXPECT_FALSE(differential(clash, 0, clash, 0, 1));
  // The same clash on one side only, against a proper node of equal degree.
  Multigraph fork(3);
  fork.add_edge(0, 1, 0);
  fork.add_edge(0, 2, 1);
  EXPECT_FALSE(differential(fork, 0, clash, 0, 1));
  EXPECT_FALSE(differential(clash, 0, fork, 0, 1));
  // A doubled colour-0 edge against colours 0 and 1 on the same two nodes:
  // each H end must claim its own G end.
  Multigraph pair(2);
  pair.add_edge(0, 1, 0);
  pair.add_edge(0, 1, 1);
  Multigraph doubled(2);
  doubled.add_edge(0, 1, 0);
  doubled.add_edge(0, 1, 0);
  EXPECT_FALSE(differential(pair, 0, doubled, 0, 1));
  // Two colour-2 ends at a node that first enters the ball at depth 2: no
  // single expansion sees both, yet the ball is improperly coloured.
  Multigraph rim(4);
  rim.add_edge(0, 1, 0);
  rim.add_edge(0, 2, 1);
  rim.add_edge(1, 3, 2);
  rim.add_edge(2, 3, 2);
  EXPECT_TRUE(differential(rim, 0, rim, 0, 1));
  EXPECT_FALSE(differential(rim, 0, rim, 0, 2));
  EXPECT_FALSE(differential(rim, 0, rim, 0, 3));
  // An uncoloured edge inside the ball, and one just outside it.
  Multigraph bare(3);
  bare.add_edge(0, 1, 0);
  bare.add_edge(1, 2);
  EXPECT_TRUE(differential(bare, 0, bare, 0, 1));
  EXPECT_FALSE(differential(bare, 0, bare, 0, 2));
  // Colours beyond the lockstep check's slot table still get an answer.
  Multigraph wide(2);
  wide.add_edge(0, 1, 70000);
  Multigraph wide_loop = wide;
  wide_loop.add_edge(0, 0, 3);
  EXPECT_TRUE(differential(wide, 0, wide, 0, 2));
  EXPECT_FALSE(differential(wide, 0, wide_loop, 0, 1));
}

TEST(LockstepP1, RadiusZeroAndHugeRadius) {
  Rng rng{5};
  SeqColorPacking alg{8};
  const LowerBoundCertificate cert = run_adversary(alg, 8);
  Tally tally;
  for (const CertificateLevel& lv : cert.levels) {
    for (int trial = 0; trial < 10; ++trial) {
      const NodeId u = random_node(lv.g, rng);
      const NodeId w = random_node(lv.h, rng);
      // τ_0 is the bare node: always isomorphic.
      EXPECT_TRUE(differential(lv.g, u, lv.h, w, 0));
      // A hostile radius ends when the frontier empties: the balls are the
      // whole graphs.
      differential(lv.g, u, lv.h, w, kHugeRadius, &tally);
    }
    EXPECT_TRUE(
        differential(lv.g, lv.g_node, lv.g, lv.g_node, kHugeRadius, &tally));
  }
  EXPECT_GT(tally.iso, 0);
  EXPECT_GT(tally.non_iso, 0);
}

TEST(LockstepP1, CachedNameForwardsToTheLockstepCheck) {
  Rng rng{77};
  const Multigraph g = make_loopy_tree(6, 4, rng);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId w = 0; w < g.node_count(); ++w) {
      for (int radius = 0; radius <= 2; ++radius) {
        EXPECT_EQ(balls_isomorphic_cached(g, u, g, w, radius),
                  balls_isomorphic_at(g, u, g, w, radius));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The canonical ball-key store (view/ball_store).
// ---------------------------------------------------------------------------

// Ground truth for one pair: extract both balls and run the propagation
// isomorphism. Returns the verdict; fails the current test if canonical
// keys are unavailable or disagree with it.
bool cross_check(const Multigraph& g, NodeId gv, const Multigraph& h,
                 NodeId hv, int radius) {
  const auto kg = canonical_ball_key(g, gv, radius);
  const auto kh = canonical_ball_key(h, hv, radius);
  EXPECT_TRUE(kg.has_value()) << "no key for node " << gv << " r " << radius;
  EXPECT_TRUE(kh.has_value()) << "no key for node " << hv << " r " << radius;
  const bool truth = balls_isomorphic(extract_ball(g, gv, radius),
                                      extract_ball(h, hv, radius));
  if (kg && kh) {
    EXPECT_EQ(*kg == *kh, truth)
        << "canonical keys disagree with propagation: nodes (" << gv << ", "
        << hv << ") radius " << radius;
  }
  return truth;
}

TEST(CanonicalKeys, AgreeWithPropagationOnAdversaryLevels) {
  Rng rng{411};
  for (int delta = 3; delta <= 12; ++delta) {
    SeqColorPacking alg{delta};
    LowerBoundCertificate cert = run_adversary(alg, delta);
    ASSERT_EQ(static_cast<int>(cert.levels.size()), delta - 1);
    for (const CertificateLevel& lv : cert.levels) {
      // The witness pair itself — property (P1), the positive case the
      // whole construction hinges on.
      EXPECT_TRUE(cross_check(lv.g, lv.g_node, lv.h, lv.h_node, lv.level))
          << "P1 witness pair at delta " << delta << " level " << lv.level;
      // Random cross pairs between the two level graphs (a mix of
      // isomorphic and non-isomorphic views; the oracle decides which).
      for (int trial = 0; trial < 4; ++trial) {
        const NodeId u = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(lv.g.node_count())));
        const NodeId w = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(lv.h.node_count())));
        cross_check(lv.g, u, lv.h, w, lv.level);
      }
    }
  }
  EXPECT_EQ(ball_store_stats().collisions, 0u);
}

TEST(CanonicalKeys, AgreeWithPropagationOnRandomLoopyTrees) {
  Rng rng{2026};
  int positives = 0;
  int negatives = 0;
  for (int iter = 0; iter < 30; ++iter) {
    const NodeId n = static_cast<NodeId>(2 + rng.next_below(9));
    const int degree = static_cast<int>(3 + rng.next_below(6));
    Multigraph g = make_loopy_tree(n, degree, rng);
    Multigraph h = make_loopy_tree(n, degree, rng);
    ASSERT_TRUE(g.is_forest_ignoring_loops());
    ASSERT_TRUE(g.has_proper_edge_coloring());
    for (int radius = 0; radius <= 3; ++radius) {
      for (int trial = 0; trial < 3; ++trial) {
        const NodeId u = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(g.node_count())));
        const NodeId w = static_cast<NodeId>(
            rng.next_below(static_cast<std::uint64_t>(h.node_count())));
        // Across the two independently drawn trees...
        (cross_check(g, u, h, w, radius) ? positives : negatives)++;
        // ... and within one tree (self-pairs at radius 0 are always
        // isomorphic, deeper radii usually are not).
        (cross_check(g, u, g, w, radius) ? positives : negatives)++;
      }
    }
  }
  // The sweep must have exercised both verdicts, or it proves nothing.
  EXPECT_GT(positives, 0);
  EXPECT_GT(negatives, 0);
  EXPECT_EQ(ball_store_stats().collisions, 0u);
}

TEST(CanonicalKeys, NonTreeShapesFallBackToPropagation) {
  const Multigraph cycle = greedy_edge_coloring(make_cycle(6));
  ASSERT_FALSE(cycle.is_forest_ignoring_loops());
  // Keys only decide isomorphism on trees-with-loops; elsewhere the engine
  // must decline rather than guess.
  EXPECT_FALSE(canonical_ball_key(cycle, 0, 1).has_value());
  // The cached predicate still answers — through ball extraction.
  for (NodeId v = 0; v < cycle.node_count(); ++v) {
    const bool truth = balls_isomorphic(extract_ball(cycle, 0, 1),
                                        extract_ball(cycle, v, 1));
    EXPECT_EQ(balls_isomorphic_cached(cycle, 0, cycle, v, 1), truth);
  }
}

TEST(BallStore, BudgetBoundsFootprintAndKeysSurviveResets) {
  Rng rng{123};
  const Multigraph g = make_loopy_tree(10, 6, rng);
  set_ball_store_budget(8u << 20);
  clear_ball_store();
  const auto reference = canonical_ball_key(g, 0, 3);
  ASSERT_TRUE(reference.has_value());

  // A 256-byte budget cannot hold the interned table for a radius-3 sweep:
  // the footprint must stay bounded and the table must reset under
  // pressure rather than overshoot.
  const std::uint64_t resets_before = ball_store_stats().intern_resets;
  set_ball_store_budget(256);
  clear_ball_store();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    ASSERT_TRUE(canonical_ball_key(g, v, 3).has_value());
    EXPECT_LE(ball_store_bytes(), 256u);
  }
  EXPECT_GT(ball_store_stats().intern_resets, resets_before);

  // Keys are content-derived, so any number of resets later (and back at
  // the default budget) the same query reproduces the same value.
  set_ball_store_budget(8u << 20);
  const auto again = canonical_ball_key(g, 0, 3);
  ASSERT_TRUE(again.has_value());
  EXPECT_TRUE(*again == *reference);
}

// ---------------------------------------------------------------------------
// The 128-bit FNV-1a the keys are built from (util/checksum).
// ---------------------------------------------------------------------------

// Independent reference implementation using the compiler's native
// __int128, against which the portable schoolbook version must agree.
unsigned __int128 fnv1a_128_reference(std::string_view bytes) {
  const unsigned __int128 prime =
      (static_cast<unsigned __int128>(1) << 88) + 0x13b;
  unsigned __int128 hash =
      (static_cast<unsigned __int128>(0x6c62272e07bb0142ULL) << 64) |
      0x62b821756295c58dULL;
  for (char ch : bytes) {
    hash ^= static_cast<unsigned char>(ch);
    hash *= prime;
  }
  return hash;
}

TEST(Checksum128, MatchesNativeInt128Reference) {
  Rng rng{7};
  std::vector<std::string> inputs = {"", "a", "ab",
                                     "the quick brown fox"};
  for (int i = 0; i < 64; ++i) {
    std::string s;
    const std::size_t len = rng.next_below(40);
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.next_below(256)));
    }
    inputs.push_back(std::move(s));
  }
  for (const std::string& s : inputs) {
    const Checksum128 got = fnv1a_128(s);
    const unsigned __int128 want = fnv1a_128_reference(s);
    EXPECT_EQ(got.hi, static_cast<std::uint64_t>(want >> 64)) << s.size();
    EXPECT_EQ(got.lo, static_cast<std::uint64_t>(want)) << s.size();
  }
}

TEST(Checksum128, EmptyInputIsTheOffsetBasis) {
  const Checksum128 h = fnv1a_128("");
  EXPECT_EQ(h.hi, 0x6c62272e07bb0142ULL);
  EXPECT_EQ(h.lo, 0x62b821756295c58dULL);
}

TEST(Checksum128, ChainingEqualsOneShot) {
  const Checksum128 whole = fnv1a_128("canonical ball");
  const Checksum128 chained = fnv1a_128(" ball", fnv1a_128("canonical"));
  EXPECT_TRUE(whole == chained);
  // Word chaining is byte chaining of the little-endian rendering.
  const std::uint64_t word = 0x0123456789abcdefULL;
  std::string le_bytes;
  for (int i = 0; i < 8; ++i) {
    le_bytes.push_back(static_cast<char>((word >> (8 * i)) & 0xffU));
  }
  EXPECT_TRUE(fnv1a_128_word(word, kFnv128OffsetBasis) ==
              fnv1a_128(le_bytes));
}

TEST(Checksum128, HexRendersRoundTrip) {
  const Checksum128 h = fnv1a_128("round trip");
  const std::string hex = checksum_to_hex(h);
  EXPECT_EQ(hex.size(), 32u);
  Checksum128 back;
  ASSERT_TRUE(checksum_from_hex(hex, back));
  EXPECT_TRUE(back == h);
  EXPECT_FALSE(checksum_from_hex("tooshort", back));
  EXPECT_FALSE(checksum_from_hex(hex.substr(0, 31) + "g", back));
}

TEST(Checksum128, NoCollisionsAcrossManyShortInputs) {
  // The Δ=20 working-ceiling argument (see checksum.hpp) rests on the
  // birthday bound; this cheap sweep at least pins pairwise distinctness
  // over 10^5 structured inputs — far beyond what a 32-bit-weak mix would
  // survive — and exercises mix() as the unordered-container hash.
  std::unordered_set<std::uint64_t> mixes;
  std::unordered_set<std::string> hexes;
  Checksum128 state = kFnv128OffsetBasis;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    state = fnv1a_128_word(i, kFnv128OffsetBasis);
    mixes.insert(state.mix());
    hexes.insert(checksum_to_hex(state));
  }
  EXPECT_EQ(hexes.size(), 100000u);   // 128-bit values all distinct
  EXPECT_EQ(mixes.size(), 100000u);   // and the 64-bit mix did not fold any
}

TEST(Checksum128, AbsorbIsInjectivePerStepAndOrderSensitive) {
  // fnv1a_128_absorb trades fnv1a_128_word's byte-at-a-time avalanche for
  // one multiply per word; what canonical keys actually need from it is
  // per-step injectivity (xor then multiply by the odd prime) and order
  // sensitivity. Pin both, plus the same 10^5 pairwise-distinctness sweep
  // the byte variant gets.
  std::unordered_set<std::string> hexes;
  for (std::uint64_t i = 0; i < 100000; ++i) {
    hexes.insert(checksum_to_hex(fnv1a_128_absorb(i, kFnv128OffsetBasis)));
  }
  EXPECT_EQ(hexes.size(), 100000u);

  const Checksum128 ab =
      fnv1a_128_absorb(2, fnv1a_128_absorb(1, kFnv128OffsetBasis));
  const Checksum128 ba =
      fnv1a_128_absorb(1, fnv1a_128_absorb(2, kFnv128OffsetBasis));
  EXPECT_FALSE(ab == ba);
  // Chaining from distinct states stays distinct (the step is a bijection
  // of the state for any fixed word).
  const Checksum128 a1 = fnv1a_128_absorb(7, ab);
  const Checksum128 b1 = fnv1a_128_absorb(7, ba);
  EXPECT_FALSE(a1 == b1);
}

}  // namespace
}  // namespace ldlb
