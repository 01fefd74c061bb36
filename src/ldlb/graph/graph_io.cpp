#include "ldlb/graph/graph_io.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

#include "ldlb/util/error.hpp"
#include "ldlb/util/line_reader.hpp"
#include "ldlb/util/text_appender.hpp"

namespace ldlb {

namespace {

constexpr long long kMaxId = std::numeric_limits<NodeId>::max();

NodeId read_endpoint(LineReader& r, const char* what, NodeId nodes) {
  return static_cast<NodeId>(r.integer(what, 0, nodes - 1));
}

// Characters std::to_chars writes for `value`, sign included.
std::size_t decimal_width(long long value) {
  std::size_t width = value < 0 ? 2 : 1;
  // Negate in unsigned arithmetic: -LLONG_MIN overflows a long long.
  unsigned long long magnitude =
      value < 0 ? 0ULL - static_cast<unsigned long long>(value)
                : static_cast<unsigned long long>(value);
  while (magnitude >= 10) {
    magnitude /= 10;
    ++width;
  }
  return width;
}

// Upper bound on the text of an edge or arc list: the header, then per line
// the tag, three separators and the newline, two ids no wider than the node
// count, and a colour no wider than the widest of [lo, hi].
std::size_t line_list_bound(NodeId nodes, EdgeId lines, Color lo, Color hi) {
  const std::size_t per_line = 5 + 2 * decimal_width(nodes) +
                               std::max(decimal_width(lo), decimal_width(hi));
  return 40 + static_cast<std::size_t>(lines) * per_line;
}

Color read_color(LineReader& r) {
  return static_cast<Color>(r.integer("colour", kUncoloured, kMaxId));
}

Multigraph read_multigraph_body(LineReader& r) {
  r.expect("multigraph", "header");
  const NodeId nodes = static_cast<NodeId>(r.integer("node count", 0, kMaxId));
  const EdgeId edges = static_cast<EdgeId>(r.integer("edge count", 0, kMaxId));
  Multigraph g(nodes);
  for (EdgeId e = 0; e < edges; ++e) {
    const std::string_view tag = r.token("edge line");
    if (tag != "e") {
      r.fail(tag == "multigraph" ? "duplicated header inside edge list"
                                 : "expected edge line 'e <u> <v> <colour>'",
             tag);
    }
    NodeId u = read_endpoint(r, "edge endpoint u", nodes);
    NodeId v = read_endpoint(r, "edge endpoint v", nodes);
    g.add_edge(u, v, read_color(r));
  }
  return g;
}

Digraph read_digraph_body(LineReader& r) {
  r.expect("digraph", "header");
  const NodeId nodes = static_cast<NodeId>(r.integer("node count", 0, kMaxId));
  const EdgeId arcs = static_cast<EdgeId>(r.integer("arc count", 0, kMaxId));
  Digraph g(nodes);
  for (EdgeId a = 0; a < arcs; ++a) {
    const std::string_view tag = r.token("arc line");
    if (tag != "a") {
      r.fail(tag == "digraph" ? "duplicated header inside arc list"
                              : "expected arc line 'a <tail> <head> <colour>'",
             tag);
    }
    NodeId t = read_endpoint(r, "arc tail", nodes);
    NodeId h = read_endpoint(r, "arc head", nodes);
    g.add_arc(t, h, read_color(r));
  }
  return g;
}

}  // namespace

void write_graph(std::ostream& os, const Multigraph& g) {
  os << graph_to_string(g);
}

void write_graph(std::ostream& os, const Digraph& g) {
  os << graph_to_string(g);
}

Multigraph read_multigraph(std::istream& is) {
  LineReader r{is};
  return read_multigraph_body(r);
}

Digraph read_digraph(std::istream& is) {
  LineReader r{is};
  return read_digraph_body(r);
}

std::size_t edge_list_text_bound(const Multigraph& g) {
  Color lo = 0, hi = 0;
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    lo = std::min(lo, g.edge(e).color);
    hi = std::max(hi, g.edge(e).color);
  }
  return line_list_bound(g.node_count(), g.edge_count(), lo, hi);
}

void append_edge_list(TextAppender& out, std::string_view tag,
                      const Multigraph& g) {
  out << tag << ' ' << g.node_count() << ' ' << g.edge_count() << '\n';
  for (EdgeId e = 0; e < g.edge_count(); ++e) {
    const auto& ed = g.edge(e);
    out << "e " << ed.u << ' ' << ed.v << ' ' << ed.color << '\n';
  }
}

std::string graph_to_string(const Multigraph& g) {
  TextAppender out{edge_list_text_bound(g)};
  append_edge_list(out, "multigraph", g);
  return out.take();
}

std::string graph_to_string(const Digraph& g) {
  Color lo = 0, hi = 0;
  for (EdgeId a = 0; a < g.arc_count(); ++a) {
    lo = std::min(lo, g.arc(a).color);
    hi = std::max(hi, g.arc(a).color);
  }
  TextAppender out{line_list_bound(g.node_count(), g.arc_count(), lo, hi)};
  out << "digraph " << g.node_count() << ' ' << g.arc_count() << '\n';
  for (EdgeId a = 0; a < g.arc_count(); ++a) {
    const auto& arc = g.arc(a);
    out << "a " << arc.tail << ' ' << arc.head << ' ' << arc.color << '\n';
  }
  return out.take();
}

Multigraph multigraph_from_string(const std::string& text) {
  LineReader r{std::string_view{text}};
  Multigraph g = read_multigraph_body(r);
  if (!r.at_end()) r.fail("trailing garbage after graph", r.token("?"));
  return g;
}

Digraph digraph_from_string(const std::string& text) {
  LineReader r{std::string_view{text}};
  Digraph g = read_digraph_body(r);
  if (!r.at_end()) r.fail("trailing garbage after graph", r.token("?"));
  return g;
}

}  // namespace ldlb
