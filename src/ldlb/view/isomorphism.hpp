// Rooted isomorphism of properly coloured graphs.
//
// In a properly edge-coloured graph each node has at most one incident end
// per colour, so a colour-preserving isomorphism between connected graphs is
// *determined* by the image of a single node: fixing root ↦ root forces the
// images of all neighbours colour-by-colour. Isomorphism testing therefore
// reduces to one deterministic propagation pass — no search. This is how the
// library checks property (P1) of the lower-bound construction,
//     τ_i(G_i, g_i) ≅ τ_i(H_i, h_i),
// exactly rather than heuristically (`balls_isomorphic_at`).
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

/// Decides τ_radius(g, gv) ≅ τ_radius(h, hv) — property (P1) — exactly:
/// equivalent to `balls_isomorphic(extract_ball(g, gv, radius),
/// extract_ball(h, hv, radius))` on every input. A lockstep BFS from
/// (gv, hv) builds the colour-forced map node by node, expanding only nodes
/// at depth < radius (Section 3.1), and stops when its frontier empties, so
/// any radius up to INT_MAX is fine. No hash, no cache, no search; scratch
/// is O(|V(g)| + |V(h)|) per call. When a ball is not properly coloured the
/// answer comes from the ball-extraction path.
bool balls_isomorphic_at(const Multigraph& g, NodeId gv, const Multigraph& h,
                         NodeId hv, int radius);

/// Forwards to `balls_isomorphic_at`. Kept because the certbench harness
/// compiles against this name and times it as its P1 span.
bool balls_isomorphic_cached(const Multigraph& g, NodeId gv,
                             const Multigraph& h, NodeId hv, int radius);

/// Drops the canonical ball-key store (view/ball_store). P1 no longer uses
/// the store; the certbench harness calls this for its cold-store timings.
void clear_ball_encoding_cache();

}  // namespace ldlb
