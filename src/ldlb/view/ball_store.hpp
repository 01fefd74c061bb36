// Canonical ball engine: hash-consed colour-refinement keys for radius-r
// views (Section 3.1's τ_r balls).
//
// For the properly edge-coloured trees-with-loops of the Section 4
// construction (property (P3)), the radius-r view of a node is decided by
// iterated colour refinement: define
//
//     k_0(v) = K_leaf,
//     k_d(v) = H( sorted loop colours of v,
//                 sorted (colour(e), k_{d-1}(u)) over non-loop ends e = vu ),
//
// then k_r(v) = k_r(w) iff τ_r(G, v) ≅ τ_r(H, w) — on trees the depth-r
// view tree *is* the ball (a tree is its own universal cover), and the
// recursion is exactly the AHU canonical form of that view tree, folded
// into a 128-bit FNV-1a key instead of an unbounded string. Hot-path
// isomorphism checks become O(1) key compares; the propagation-based check
// stays available as an oracle (LDLB_BALL_ORACLE=1, see isomorphism.cpp).
//
// Every distinct signature (loop colours + (colour, child) list) is
// *interned* once in a global table, so the engine structure-shares across
// levels: a level-L+1 graph is a lift/mix of level-L graphs and its sub-ball
// signatures are already interned — computing its witness key is mostly
// table hits, not re-encoding. Keys are content-derived (chained from child
// *keys*, not table ids), hence independent of table state and stable
// across wholesale table resets.
//
// Memory sits under one byte budget (LDLB_BALL_CACHE_BYTES): per-(graph,
// node, radius) key memo entries evict LRU; the interned signature table
// resets wholesale under pressure — memoized keys stay valid across a reset
// because they are content-derived.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>

#include "ldlb/graph/multigraph.hpp"
#include "ldlb/util/checksum.hpp"

namespace ldlb {

/// Canonical key of τ_radius(g, v), or nullopt when `g` is not a properly
/// edge-coloured tree-with-loops (keys decide rooted ball isomorphism only
/// on that shape; callers fall back to propagation elsewhere).
[[nodiscard]] std::optional<Checksum128> canonical_ball_key(const Multigraph& g,
                                                            NodeId v,
                                                            int radius);

/// Telemetry counters for the engine (monotone since process start except
/// the byte gauges). `collisions` counts interned signatures whose 128-bit
/// keys clashed with a structurally different signature — certificate
/// soundness demands this stays zero, and the cross-validation suite
/// asserts it.
struct BallStoreStats {
  std::uint64_t key_queries = 0;      ///< canonical_ball_key calls
  std::uint64_t memo_hits = 0;        ///< answered from the (g, v, r) memo
  std::uint64_t intern_lookups = 0;   ///< signature intern operations
  std::uint64_t intern_hits = 0;      ///< ... that were already interned
  std::uint64_t collisions = 0;       ///< 128-bit key clashes (must be 0)
  std::uint64_t intern_resets = 0;    ///< wholesale table resets (pressure)
  std::uint64_t oracle_checks = 0;    ///< key results re-checked vs oracle
  std::uint64_t oracle_disagreements = 0;  ///< ... that disagreed (must be 0)
  std::size_t interned_signatures = 0;     ///< live entries in the table
  std::size_t bytes = 0;                   ///< memo + intern footprint
};

[[nodiscard]] BallStoreStats ball_store_stats();

/// Records an oracle cross-check (isomorphism.cpp calls this when
/// LDLB_BALL_ORACLE=1 re-derives a key compare via propagation).
void note_ball_oracle_check(bool agreed);

/// Drops every memoized key and interned signature (cold-cache timings).
void clear_ball_store();

/// Sets the engine's byte budget (memo + interned table). The memo evicts
/// LRU; the interned table resets wholesale when it alone exceeds the
/// budget. Defaults to LDLB_BALL_CACHE_BYTES (8 MiB when unset).
void set_ball_store_budget(std::size_t bytes);

/// Approximate bytes currently held (memo entries + interned signatures).
[[nodiscard]] std::size_t ball_store_bytes();

}  // namespace ldlb
