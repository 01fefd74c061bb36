#include "ldlb/view/isomorphism.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <tuple>

#include "ldlb/view/ball_store.hpp"

namespace ldlb {

namespace {

// colour -> (other endpoint, edge id) at node v.
std::map<Color, std::pair<NodeId, EdgeId>> ends_at(const Multigraph& g,
                                                   NodeId v) {
  std::map<Color, std::pair<NodeId, EdgeId>> out;
  for (EdgeId e : g.incident_edges(v)) {
    out[g.edge(e).color] = {g.other_endpoint(e, v), e};
  }
  return out;
}

}  // namespace

std::optional<std::vector<NodeId>> rooted_isomorphism(const Multigraph& g,
                                                      NodeId root_g,
                                                      const Multigraph& h,
                                                      NodeId root_h) {
  if (!g.has_proper_edge_coloring() || !h.has_proper_edge_coloring()) {
    return std::nullopt;
  }
  if (!g.is_connected() || g.node_count() != h.node_count() ||
      g.edge_count() != h.edge_count()) {
    return std::nullopt;
  }
  std::vector<NodeId> phi(static_cast<std::size_t>(g.node_count()), kNoNode);
  std::vector<NodeId> used(static_cast<std::size_t>(h.node_count()), kNoNode);
  phi[static_cast<std::size_t>(root_g)] = root_h;
  used[static_cast<std::size_t>(root_h)] = root_g;
  std::deque<NodeId> queue{root_g};
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    NodeId u2 = phi[static_cast<std::size_t>(u)];
    auto ends_g = ends_at(g, u);
    auto ends_h = ends_at(h, u2);
    if (ends_g.size() != ends_h.size()) return std::nullopt;
    for (const auto& [color, wg] : ends_g) {
      auto it = ends_h.find(color);
      if (it == ends_h.end()) return std::nullopt;
      NodeId w = wg.first;
      NodeId w2 = it->second.first;
      NodeId& img = phi[static_cast<std::size_t>(w)];
      if (img == kNoNode) {
        if (used[static_cast<std::size_t>(w2)] != kNoNode) return std::nullopt;
        img = w2;
        used[static_cast<std::size_t>(w2)] = w;
        queue.push_back(w);
      } else if (img != w2) {
        return std::nullopt;
      }
    }
  }
  // g connected => everything matched; node/edge counts equal and ends match
  // locally, so phi is an isomorphism.
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (phi[static_cast<std::size_t>(v)] == kNoNode) return std::nullopt;
  }
  return phi;
}

bool rooted_isomorphic(const Multigraph& g, NodeId root_g, const Multigraph& h,
                       NodeId root_h) {
  return rooted_isomorphism(g, root_g, h, root_h).has_value();
}

namespace {

std::map<std::tuple<int, Color>, NodeId> arc_ends_at(const Digraph& g,
                                                     NodeId v) {
  std::map<std::tuple<int, Color>, NodeId> out;
  for (EdgeId a : g.out_arcs(v)) out[{0, g.arc(a).color}] = g.arc(a).head;
  for (EdgeId a : g.in_arcs(v)) out[{1, g.arc(a).color}] = g.arc(a).tail;
  return out;
}

}  // namespace

std::optional<std::vector<NodeId>> rooted_isomorphism(const Digraph& g,
                                                      NodeId root_g,
                                                      const Digraph& h,
                                                      NodeId root_h) {
  if (!g.has_proper_po_coloring() || !h.has_proper_po_coloring()) {
    return std::nullopt;
  }
  if (!g.underlying_multigraph().is_connected() ||
      g.node_count() != h.node_count() || g.arc_count() != h.arc_count()) {
    return std::nullopt;
  }
  std::vector<NodeId> phi(static_cast<std::size_t>(g.node_count()), kNoNode);
  std::vector<NodeId> used(static_cast<std::size_t>(h.node_count()), kNoNode);
  phi[static_cast<std::size_t>(root_g)] = root_h;
  used[static_cast<std::size_t>(root_h)] = root_g;
  std::deque<NodeId> queue{root_g};
  while (!queue.empty()) {
    NodeId u = queue.front();
    queue.pop_front();
    NodeId u2 = phi[static_cast<std::size_t>(u)];
    auto ends_g = arc_ends_at(g, u);
    auto ends_h = arc_ends_at(h, u2);
    if (ends_g.size() != ends_h.size()) return std::nullopt;
    for (const auto& [key, w] : ends_g) {
      auto it = ends_h.find(key);
      if (it == ends_h.end()) return std::nullopt;
      NodeId w2 = it->second;
      NodeId& img = phi[static_cast<std::size_t>(w)];
      if (img == kNoNode) {
        if (used[static_cast<std::size_t>(w2)] != kNoNode) return std::nullopt;
        img = w2;
        used[static_cast<std::size_t>(w2)] = w;
        queue.push_back(w);
      } else if (img != w2) {
        return std::nullopt;
      }
    }
  }
  for (NodeId v = 0; v < g.node_count(); ++v) {
    if (phi[static_cast<std::size_t>(v)] == kNoNode) return std::nullopt;
  }
  return phi;
}

bool rooted_isomorphic(const Digraph& g, NodeId root_g, const Digraph& h,
                       NodeId root_h) {
  return rooted_isomorphism(g, root_g, h, root_h).has_value();
}

bool balls_isomorphic(const Ball& a, const Ball& b) {
  return a.radius == b.radius &&
         rooted_isomorphic(a.graph, a.center, b.graph, b.center);
}

std::string canonical_tree_encoding(const Multigraph& g, NodeId root) {
  LDLB_REQUIRE_MSG(g.is_forest_ignoring_loops(),
                   "canonical encoding needs a tree-with-loops");
  LDLB_REQUIRE(g.is_connected());

  // Iterative post-order so that deep adversary trees cannot overflow the
  // stack. state: 0 = enter, 1 = combine children.
  struct Frame {
    NodeId node;
    EdgeId via;
    int state;
  };
  std::vector<Frame> stack{{root, kNoEdge, 0}};
  // Completed subtree encodings; on combine, the top `child_count` entries
  // belong to the current frame.
  std::vector<std::string> done_stack;
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    if (f.state == 0) {
      stack.push_back({f.node, f.via, 1});
      for (EdgeId e : g.incident_edges(f.node)) {
        if (e == f.via || g.edge(e).is_loop()) continue;
        stack.push_back({g.other_endpoint(e, f.node), e, 0});
      }
    } else {
      // Children results are on done_stack (count = number of non-loop,
      // non-parent edges).
      std::vector<std::string> parts;
      for (EdgeId e : g.incident_edges(f.node)) {
        if (g.edge(e).is_loop()) {
          parts.push_back("l" + std::to_string(g.edge(e).color) + ";");
        }
      }
      int child_count = 0;
      for (EdgeId e : g.incident_edges(f.node)) {
        if (e != f.via && !g.edge(e).is_loop()) ++child_count;
      }
      // Pop that many child encodings; annotate with the colour of the edge
      // used. The children were pushed in incident order and processed LIFO,
      // but we sort all parts anyway, so order does not matter. Each child's
      // encoding already starts with its connecting colour.
      for (int i = 0; i < child_count; ++i) {
        parts.push_back(std::move(done_stack.back()));
        done_stack.pop_back();
      }
      std::sort(parts.begin(), parts.end());
      std::string enc;
      if (f.via != kNoEdge) {
        enc += "c" + std::to_string(g.edge(f.via).color);
      }
      enc += "(";
      for (const auto& p : parts) enc += p;
      enc += ")";
      done_stack.push_back(std::move(enc));
    }
  }
  LDLB_ENSURE(done_stack.size() == 1);
  return std::move(done_stack.back());
}

namespace {

// Colours at or above this bound get no slot table; the construction's
// colours lie in [0, Δ), far below it. Such balls take the extraction path.
constexpr Color kSlotColours = Color{1} << 16;

// Marks a colour slot whose G end an H end has already claimed.
constexpr NodeId kClaimed = -2;

// The materialised answer: extract both balls and propagate. Exact on any
// input; balls_isomorphic_at defers to it for balls it does not decide.
bool balls_isomorphic_by_extraction(const Multigraph& g, NodeId gv,
                                    const Multigraph& h, NodeId hv,
                                    int radius) {
  // ldlb-lint: allow(ball-extraction): the reference answer for balls that
  // are not properly coloured or whose colours exceed the slot table.
  Ball bg = extract_ball(g, gv, radius);
  // ldlb-lint: allow(ball-extraction): second half of the reference pair.
  Ball bh = extract_ball(h, hv, radius);
  return balls_isomorphic(bg, bh);
}

}  // namespace

bool balls_isomorphic_at(const Multigraph& g, NodeId gv, const Multigraph& h,
                         NodeId hv, int radius) {
  LDLB_REQUIRE(gv >= 0 && gv < g.node_count());
  LDLB_REQUIRE(hv >= 0 && hv < h.node_count());
  LDLB_REQUIRE(radius >= 0);
  const auto at = [](NodeId v) { return static_cast<std::size_t>(v); };
  const auto declined = [&] {
    return balls_isomorphic_by_extraction(g, gv, h, hv, radius);
  };

  // φ : V(g) -> V(h) and its inverse, grown in lockstep; depth is BFS depth
  // in g, which equals depth in h for every mapped pair.
  std::vector<NodeId> phi(at(g.node_count()), kNoNode);
  std::vector<NodeId> inv(at(h.node_count()), kNoNode);
  std::vector<int> depth(at(g.node_count()), -1);
  std::vector<NodeId> queue;
  queue.reserve(at(g.node_count()));
  // slot[c]: the far end of the colour-c edge at the node being expanded
  // (the node itself for a loop); reset through `touched` after each node.
  std::vector<NodeId> slot;
  std::vector<Color> touched;
  // Ball edges at a depth-radius node come only from depth-(radius-1)
  // nodes, so no expansion sees them together. A node reached by a second
  // such edge gets its colours checked once here.
  std::vector<char> rim_checked;
  std::vector<Color> rim_colours;
  const auto rim_proper = [&](NodeId w) {
    if (rim_checked.empty()) rim_checked.assign(at(g.node_count()), 0);
    if (rim_checked[at(w)] != 0) return true;
    rim_checked[at(w)] = 1;
    rim_colours.clear();
    for (EdgeId e : g.incident_edges(w)) {
      const Multigraph::Edge& ed = g.edge(e);
      const NodeId x = ed.u == w ? ed.v : ed.u;
      if (x != w && depth[at(x)] == radius - 1) rim_colours.push_back(ed.color);
    }
    std::sort(rim_colours.begin(), rim_colours.end());
    return rim_colours.front() >= 0 &&
           std::adjacent_find(rim_colours.begin(), rim_colours.end()) ==
               rim_colours.end();
  };

  phi[at(gv)] = hv;
  inv[at(hv)] = gv;
  depth[at(gv)] = 0;
  queue.push_back(gv);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId u = queue[head];
    const int du = depth[at(u)];
    if (du >= radius) break;  // BFS order: every later node is as deep
    const NodeId u2 = phi[at(u)];

    // Every end at u lies in the ball. A repeated or uncoloured end means
    // the ball is not properly coloured.
    touched.clear();
    for (EdgeId e : g.incident_edges(u)) {
      const Multigraph::Edge& ed = g.edge(e);
      const Color c = ed.color;
      if (c < 0 || c >= kSlotColours) return declined();
      if (at(c) >= slot.size()) {
        slot.resize(std::max(at(c) + 1, 2 * slot.size()), kNoNode);
      }
      if (slot[at(c)] != kNoNode) return declined();
      slot[at(c)] = ed.u == u ? ed.v : ed.u;
      touched.push_back(c);
    }

    // The colour-c end at u2 must match the colour-c end at u: both loops,
    // or non-loops whose far ends are both new or already paired.
    const IncidenceView ends_h = h.incident_edges(u2);
    if (ends_h.size() != touched.size()) return false;
    for (EdgeId e : ends_h) {
      const Multigraph::Edge& ed = h.edge(e);
      const Color c = ed.color;
      if (c < 0 || at(c) >= slot.size()) return false;
      const NodeId w = slot[at(c)];
      // Missing at u, or a second colour-c end at u2.
      if (w == kNoNode || w == kClaimed) return false;
      slot[at(c)] = kClaimed;
      const NodeId w2 = ed.u == u2 ? ed.v : ed.u;
      if ((w == u) != (w2 == u2)) return false;
      if (w == u) continue;
      NodeId& img = phi[at(w)];
      if (img == kNoNode) {
        if (inv[at(w2)] != kNoNode) return false;
        img = w2;
        inv[at(w2)] = w;
        depth[at(w)] = du + 1;
        queue.push_back(w);
      } else if (img != w2) {
        return false;
      } else if (depth[at(w)] == radius && !rim_proper(w)) {
        return declined();
      }
    }
    for (Color c : touched) slot[at(c)] = kNoNode;
  }
  return true;
}

bool balls_isomorphic_cached(const Multigraph& g, NodeId gv,
                             const Multigraph& h, NodeId hv, int radius) {
  return balls_isomorphic_at(g, gv, h, hv, radius);
}

void clear_ball_encoding_cache() { clear_ball_store(); }

}  // namespace ldlb
