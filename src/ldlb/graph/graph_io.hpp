// Text serialisation of graphs (edge-list format).
//
// Lets users bring their own workloads to the examples and tools, and
// persists the adversary's constructions. Format:
//
//   multigraph <nodes> <edges>        |   digraph <nodes> <arcs>
//   e <u> <v> <colour>                |   a <tail> <head> <colour>
//   ...                               |   ...
//
// Colour -1 denotes an uncoloured edge.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <string_view>

#include "ldlb/graph/digraph.hpp"
#include "ldlb/graph/multigraph.hpp"

namespace ldlb {

class TextAppender;

void write_graph(std::ostream& os, const Multigraph& g);
void write_graph(std::ostream& os, const Digraph& g);

/// Parses the format above; throws ParseError (with the 1-based line number
/// and the offending token) on malformed input: bad header, out-of-range
/// endpoints, colours below -1, truncation. The stream readers stop after
/// the last edge line so several objects can share a stream; the
/// `*_from_string` variants additionally reject trailing garbage.
Multigraph read_multigraph(std::istream& is);
Digraph read_digraph(std::istream& is);

/// Appends "<tag> <nodes> <edges>" and the "e <u> <v> <colour>" lines of
/// `g`: the multigraph body above, and the "g" / "h" sections of the
/// certificate format (core/certificate_io.hpp).
void append_edge_list(TextAppender& out, std::string_view tag,
                      const Multigraph& g);

/// Upper bound on the bytes append_edge_list appends for `g` (any tag of up
/// to ten characters), for presizing the output.
[[nodiscard]] std::size_t edge_list_text_bound(const Multigraph& g);

std::string graph_to_string(const Multigraph& g);
std::string graph_to_string(const Digraph& g);
Multigraph multigraph_from_string(const std::string& text);
Digraph digraph_from_string(const std::string& text);

}  // namespace ldlb
