// Cross-validation of the canonical ball engine (view/ball_store) against
// the propagation-based rooted-isomorphism oracle (view/isomorphism).
//
// Certificate soundness rests on one equivalence: on properly coloured
// trees-with-loops (property (P3)), 128-bit canonical-key equality must
// coincide exactly with rooted ball isomorphism. These tests pit the O(1)
// key compare against the propagation oracle over random loopy trees and
// every level graph the adversary produces for Δ ∈ {3..12} — positive and
// negative pairs — and assert that the interned-key collision counter and
// the oracle disagreement counter both stay zero. The binary also covers
// the store's byte-budget/reset behaviour and the 128-bit FNV-1a the keys
// are built from (checked against an independent __int128 reference).
//
// LDLB_BALL_ORACLE=1 is exported before gtest spins up, so *every*
// balls_isomorphic_cached call in this binary — including the P1 checks
// inside run_adversary — is re-derived through propagation and recorded in
// the oracle counters.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <unordered_set>
#include <vector>

#include "ldlb/core/adversary.hpp"
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

// The oracle latch in isomorphism.cpp reads the environment once; set it
// before any static initialiser can trigger a key compare.
const bool g_oracle_env = [] {
  ::setenv("LDLB_BALL_ORACLE", "1", 1);
  return true;
}();

// Ground truth for one pair: extract both balls and run the propagation
// isomorphism. Returns the verdict; fails the current test if canonical
// keys are unavailable or disagree with the propagation oracle.
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
  const BallStoreStats stats = ball_store_stats();
  EXPECT_EQ(stats.collisions, 0u);
  EXPECT_EQ(stats.oracle_disagreements, 0u);
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

TEST(CanonicalKeys, CachedPredicateIsOracleCheckedAndAgrees) {
  const BallStoreStats before = ball_store_stats();
  Rng rng{77};
  Multigraph g = make_loopy_tree(6, 4, rng);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    for (NodeId w = 0; w < g.node_count(); ++w) {
      for (int radius = 0; radius <= 2; ++radius) {
        const bool truth = balls_isomorphic(extract_ball(g, u, radius),
                                            extract_ball(g, w, radius));
        EXPECT_EQ(balls_isomorphic_cached(g, u, g, w, radius), truth)
            << "nodes (" << u << ", " << w << ") radius " << radius;
      }
    }
  }
  const BallStoreStats after = ball_store_stats();
  // LDLB_BALL_ORACLE=1 re-derived every key compare through propagation.
  EXPECT_GT(after.oracle_checks, before.oracle_checks);
  EXPECT_EQ(after.oracle_disagreements, 0u);
  EXPECT_EQ(after.collisions, 0u);
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

TEST(CanonicalKeys, InternTableStructureSharesAcrossLevels) {
  clear_ball_store();
  const BallStoreStats before = ball_store_stats();
  SeqColorPacking alg{6};
  LowerBoundCertificate cert = run_adversary(alg, 6);
  for (const CertificateLevel& lv : cert.levels) {
    ASSERT_TRUE(canonical_ball_key(lv.g, lv.g_node, lv.level).has_value());
    ASSERT_TRUE(canonical_ball_key(lv.h, lv.h_node, lv.level).has_value());
  }
  const BallStoreStats after = ball_store_stats();
  // Level-(i+1) graphs are built out of level-i pieces, so most of their
  // sub-ball signatures are already interned: the run must see intern hits
  // (structure sharing) and memo hits (re-queried keys).
  EXPECT_GT(after.intern_lookups, before.intern_lookups);
  EXPECT_GT(after.intern_hits, before.intern_hits);
  EXPECT_GT(after.memo_hits, before.memo_hits);
  EXPECT_GT(after.interned_signatures, 0u);
  EXPECT_GT(ball_store_bytes(), 0u);
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

// Declared last so it runs after every suite above has hammered the store:
// the global soundness counters must end the binary at exactly zero.
TEST(ZFinal, CollisionAndDisagreementCountersAreZero) {
  const BallStoreStats stats = ball_store_stats();
  EXPECT_GT(stats.key_queries, 0u);
  EXPECT_GT(stats.oracle_checks, 0u);
  EXPECT_EQ(stats.collisions, 0u);
  EXPECT_EQ(stats.oracle_disagreements, 0u);
}

}  // namespace
}  // namespace ldlb
