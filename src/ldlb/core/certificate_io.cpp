#include "ldlb/core/certificate_io.hpp"

#include <algorithm>
#include <limits>
#include <ostream>

#include "ldlb/graph/graph_io.hpp"
#include "ldlb/util/alloc_guard.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/text_appender.hpp"

namespace ldlb {

namespace {

constexpr long long kMaxId = std::numeric_limits<NodeId>::max();

// Shortest possible edge line, "e 0 0 0".
constexpr std::size_t kMinEdgeBytes = 7;

std::size_t level_text_bound(const CertificateLevel& lv) {
  return 256 + edge_list_text_bound(lv.g) + edge_list_text_bound(lv.h) +
         lv.g_weight.to_string().size() + lv.h_weight.to_string().size();
}

Multigraph read_graph(LineReader& r, std::string_view tag) {
  r.expect(tag, "graph header");
  const NodeId nodes = static_cast<NodeId>(r.integer("node count", 0, kMaxId));
  const EdgeId edges = static_cast<EdgeId>(r.integer("edge count", 0, kMaxId));
  Multigraph g(nodes);
  // Reserve from the header, capped by what the unread input can hold: a
  // hostile count must not force a huge allocation before the input ends.
  const std::size_t reserve = std::min(static_cast<std::size_t>(edges),
                                       r.records_left(kMinEdgeBytes));
  charge_alloc(reserve * sizeof(Multigraph::Edge));
  g.reserve_edges(static_cast<EdgeId>(reserve));
  for (EdgeId e = 0; e < edges; ++e) {
    r.expect("e", "edge line");
    NodeId u = static_cast<NodeId>(r.integer("edge endpoint u", 0, nodes - 1));
    NodeId v = static_cast<NodeId>(r.integer("edge endpoint v", 0, nodes - 1));
    Color c = static_cast<Color>(r.integer("colour", kUncoloured, kMaxId));
    g.add_edge(u, v, c);
  }
  return g;
}

Rational read_rational(LineReader& r, const char* what) {
  const std::string tok{r.token(what)};
  try {
    return Rational::from_string(tok);
  } catch (const Error&) {
    r.fail(std::string("malformed rational ") + what, tok);
  }
}

void append_certificate_header(TextAppender& out,
                               const LowerBoundCertificate& cert) {
  out << "ldlb-certificate 1\n"
      << "delta " << cert.delta << '\n'
      << "algorithm " << cert.algorithm_name << '\n';
}

constexpr std::string_view kCertificateTrailer = "end\n";

void append_level(TextAppender& out, const CertificateLevel& lv) {
  // A sentinel in a witness field means the level was never certified; the
  // parser range-rejects such values, so refuse to emit them in the first
  // place rather than writing a file no reader will accept.
  LDLB_REQUIRE_MSG(lv.g_node != kNoNode && lv.h_node != kNoNode &&
                       lv.g_loop != kNoEdge && lv.h_loop != kNoEdge &&
                       lv.c != kUncoloured,
                   "level " << lv.level
                            << " carries unpopulated witness sentinels");
  out << "level " << lv.level << '\n';
  append_edge_list(out, "g", lv.g);
  append_edge_list(out, "h", lv.h);
  out << "witness " << lv.g_node << ' ' << lv.h_node << ' ' << lv.c << ' '
      << lv.g_loop << ' ' << lv.h_loop << ' ' << lv.g_weight.to_string() << ' '
      << lv.h_weight.to_string() << ' ' << lv.propagation_steps << '\n';
}

LowerBoundCertificate read_certificate_body(LineReader& r) {
  r.expect("ldlb-certificate", "certificate magic");
  const long long version = r.integer("format version", 1, 1);
  (void)version;
  LowerBoundCertificate cert;
  r.expect("delta", "delta line");
  cert.delta = static_cast<int>(r.integer("delta", 0, kMaxId));
  r.expect("algorithm", "algorithm line");
  cert.algorithm_name = r.token("algorithm name");
  // ldlb-analyze: allow(cancellation): bounded by the input — every pass
  // consumes at least one token, and end of input throws ParseError.
  for (;;) {
    const std::string_view word = r.token("'level' or 'end'");
    if (word == "end") break;
    if (word != "level") r.fail("expected 'level' or 'end'", word);
    r.push_back(word);
    cert.levels.push_back(read_certificate_level(r));
  }
  return cert;
}

}  // namespace

std::string certificate_level_to_string(const CertificateLevel& lv) {
  TextAppender out{level_text_bound(lv)};
  append_level(out, lv);
  return out.take();
}

void write_certificate_level(std::ostream& os, const CertificateLevel& lv) {
  os << certificate_level_to_string(lv);
}

CertificateLevel read_certificate_level(LineReader& r) {
  r.expect("level", "level line");
  CertificateLevel lv;
  lv.level = static_cast<int>(r.integer("level index", 0, kMaxId));
  lv.g = read_graph(r, "g");
  lv.h = read_graph(r, "h");
  r.expect("witness", "witness line");
  lv.g_node = static_cast<NodeId>(
      r.integer("witness g node", 0, lv.g.node_count() - 1));
  lv.h_node = static_cast<NodeId>(
      r.integer("witness h node", 0, lv.h.node_count() - 1));
  lv.c = static_cast<Color>(r.integer("witness colour", 0, kMaxId));
  lv.g_loop = static_cast<EdgeId>(
      r.integer("witness g loop", 0, lv.g.edge_count() - 1));
  lv.h_loop = static_cast<EdgeId>(
      r.integer("witness h loop", 0, lv.h.edge_count() - 1));
  lv.g_weight = read_rational(r, "witness g weight");
  lv.h_weight = read_rational(r, "witness h weight");
  lv.propagation_steps =
      static_cast<int>(r.integer("propagation steps", 0, kMaxId));
  return lv;
}

void write_certificate(std::ostream& os, const LowerBoundCertificate& cert) {
  // One level at a time: the stream never needs the whole certificate
  // resident as text.
  TextAppender header;
  append_certificate_header(header, cert);
  os << header.take();
  for (const auto& lv : cert.levels) os << certificate_level_to_string(lv);
  os << kCertificateTrailer;
}

LowerBoundCertificate read_certificate(std::istream& is) {
  LineReader r{is};
  return read_certificate_body(r);
}

std::string certificate_to_string(const LowerBoundCertificate& cert) {
  std::size_t bound = 64 + cert.algorithm_name.size();
  for (const auto& lv : cert.levels) bound += level_text_bound(lv);
  TextAppender out{bound};
  append_certificate_header(out, cert);
  for (const auto& lv : cert.levels) append_level(out, lv);
  out << kCertificateTrailer;
  return out.take();
}

LowerBoundCertificate certificate_from_string(const std::string& text) {
  LineReader r{std::string_view{text}};
  return read_certificate_body(r);
}

void write_certificate_file(const std::string& path,
                            const LowerBoundCertificate& cert) {
  write_file_atomic(path, certificate_to_string(cert));
}

LowerBoundCertificate read_certificate_file(const std::string& path) {
  return certificate_from_string(read_file(path));
}

}  // namespace ldlb
