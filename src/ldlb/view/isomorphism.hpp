// Rooted isomorphism of properly coloured graphs.
//
// In a properly edge-coloured graph each node has at most one incident end
// per colour, so a colour-preserving isomorphism between connected graphs is
// *determined* by the image of a single node: fixing root ↦ root forces the
// images of all neighbours colour-by-colour. Isomorphism testing therefore
// reduces to one deterministic propagation pass — no search. This is how the
// library checks property (P1) of the lower-bound construction,
//     τ_i(G_i, g_i) ≅ τ_i(H_i, h_i),
// exactly rather than heuristically.
//
// Canonical encodings of rooted trees-with-loops (the shape of all graphs in
// the Section 4 construction, property (P3)) are also provided for hashing
// and deduplication.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ldlb/graph/digraph.hpp"
#include "ldlb/graph/multigraph.hpp"
#include "ldlb/view/ball.hpp"

namespace ldlb {

/// If the connected, properly coloured graphs (g, root_g) and (h, root_h)
/// are isomorphic as rooted edge-coloured multigraphs, returns the (unique)
/// isomorphism as a vector indexed by V(g); otherwise nullopt.
std::optional<std::vector<NodeId>> rooted_isomorphism(const Multigraph& g,
                                                      NodeId root_g,
                                                      const Multigraph& h,
                                                      NodeId root_h);

/// Convenience predicate over `rooted_isomorphism`.
bool rooted_isomorphic(const Multigraph& g, NodeId root_g, const Multigraph& h,
                       NodeId root_h);

/// Rooted isomorphism for PO digraphs (colour- and orientation-preserving).
std::optional<std::vector<NodeId>> rooted_isomorphism(const Digraph& g,
                                                      NodeId root_g,
                                                      const Digraph& h,
                                                      NodeId root_h);

bool rooted_isomorphic(const Digraph& g, NodeId root_g, const Digraph& h,
                       NodeId root_h);

/// True iff two balls are isomorphic as rooted coloured graphs.
bool balls_isomorphic(const Ball& a, const Ball& b);

/// AHU-style canonical string of a rooted coloured tree-with-loops; two such
/// graphs are rooted-isomorphic iff their canonical strings are equal.
/// Requires `g.is_forest_ignoring_loops()` and connectivity.
std::string canonical_tree_encoding(const Multigraph& g, NodeId root);

/// Equivalent to `balls_isomorphic(extract_ball(g, gv, r),
/// extract_ball(h, hv, r))` but answered by an O(1) compare of canonical
/// colour-refinement keys (view/ball_store) when both host graphs are
/// properly coloured trees-with-loops (always the case for the Section 4
/// construction, property (P3)); transparently falls back to ball
/// extraction + rooted isomorphism for other shapes. Setting
/// LDLB_BALL_ORACLE=1 re-derives every key compare through the propagation
/// path and aborts on disagreement.
bool balls_isomorphic_cached(const Multigraph& g, NodeId gv,
                             const Multigraph& h, NodeId hv, int radius);

/// Drops the canonical ball-key store (view/ball_store; mainly for tests
/// and benchmarks that want cold-cache timings).
void clear_ball_encoding_cache();

/// Sets the byte budget of the canonical ball-key store (see
/// set_ball_store_budget). The store evicts until it fits; a budget of 0
/// disables memoization entirely. The default is 8 MiB, overridable at
/// first use via the LDLB_BALL_CACHE_BYTES environment variable.
void set_ball_encoding_cache_budget(std::size_t bytes);

/// Approximate bytes currently held by the canonical ball-key store.
[[nodiscard]] std::size_t ball_encoding_cache_bytes();

}  // namespace ldlb
