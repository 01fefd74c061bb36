// Malformed-input corpus for the text parsers (graph_io, certificate_io).
//
// Every entry must produce a typed ParseError — never a crash, never a
// silent acceptance — and the error must point at the right line. A
// randomised mutation sweep then hammers the parsers with corrupted
// round-trip text: any outcome other than "parsed" or "typed ldlb::Error"
// is a bug.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "ldlb/core/adversary.hpp"
#include "ldlb/core/certificate_io.hpp"
#include "ldlb/graph/edge_coloring.hpp"
#include "ldlb/graph/generators.hpp"
#include "ldlb/graph/graph_io.hpp"
#include "ldlb/matching/seq_color_packing.hpp"
#include "ldlb/recover/cert_log.hpp"
#include "ldlb/util/alloc_guard.hpp"
#include "ldlb/util/atomic_file.hpp"
#include "ldlb/util/checksum.hpp"
#include "ldlb/util/error.hpp"
#include "ldlb/util/rng.hpp"

namespace ldlb {
namespace {

// --- multigraph corpus -----------------------------------------------------

struct Malformed {
  const char* text;
  const char* why;
};

const Malformed kBadMultigraphs[] = {
    {"", "empty input"},
    {"multigraph", "truncated header: no counts"},
    {"multigraph 2", "truncated header: no edge count"},
    {"multigraph -1 0\n", "negative node count"},
    {"multigraph 2 -1\n", "negative edge count"},
    {"multigraph two 1\n", "non-numeric node count"},
    {"multigraph 2 1\n", "truncated edge list"},
    {"multigraph 2 2\ne 0 1 0\n", "one edge missing"},
    {"multigraph 2 1\nx 0 1 0\n", "bad edge tag"},
    {"multigraph 2 2\ne 0 1 0\nmultigraph 2 1\n", "duplicated header"},
    {"multigraph 2 1\ne 0 5 0\n", "endpoint out of range"},
    {"multigraph 2 1\ne -1 1 0\n", "negative endpoint"},
    {"multigraph 2 1\ne 0 1 -3\n", "colour below -1"},
    {"multigraph 2 1\ne 0 1 0.5\n", "fractional colour"},
    {"digraph 1 0\n", "wrong object kind"},
};

TEST(IoFuzz, MultigraphCorpusRejectedWithParseError) {
  for (const auto& bad : kBadMultigraphs) {
    try {
      multigraph_from_string(bad.text);
      FAIL() << "accepted " << bad.why << ": " << bad.text;
    } catch (const ParseError&) {
      // expected
    }
  }
}

TEST(IoFuzz, MultigraphTrailingGarbageRejected) {
  EXPECT_THROW(multigraph_from_string("multigraph 1 0\nleftover\n"),
               ParseError);
  // The plain stream reader stops after the last edge, so several graphs
  // can share one stream.
  std::istringstream two{"multigraph 1 0\nmultigraph 2 1\ne 0 1 4\n"};
  Multigraph first = read_multigraph(two);
  Multigraph second = read_multigraph(two);
  EXPECT_EQ(first.node_count(), 1);
  EXPECT_EQ(second.edge_count(), 1);
}

const Malformed kBadDigraphs[] = {
    {"", "empty input"},
    {"digraph 2", "truncated header"},
    {"digraph 2 1\n", "truncated arc list"},
    {"digraph 2 1\ne 0 1 0\n", "edge tag in a digraph"},
    {"digraph 2 1\na 0 9 0\n", "head out of range"},
    {"digraph 2 1\na 0 1 -2\n", "colour below -1"},
    {"multigraph 1 0\n", "wrong object kind"},
};

TEST(IoFuzz, DigraphCorpusRejectedWithParseError) {
  for (const auto& bad : kBadDigraphs) {
    try {
      digraph_from_string(bad.text);
      FAIL() << "accepted " << bad.why << ": " << bad.text;
    } catch (const ParseError&) {
      // expected
    }
  }
}

// --- certificate corpus ----------------------------------------------------

std::string valid_certificate_text() {
  // A syntactically complete single-level certificate: both graphs are one
  // node with two loops (colours 0 and 1).
  return "ldlb-certificate 1\n"
         "delta 2\n"
         "algorithm Test\n"
         "level 0\n"
         "g 1 2\n"
         "e 0 0 0\n"
         "e 0 0 1\n"
         "h 1 2\n"
         "e 0 0 0\n"
         "e 0 0 1\n"
         "witness 0 0 0 0 0 1/2 1/3 4\n"
         "end\n";
}

TEST(IoFuzz, ValidCertificateParses) {
  LowerBoundCertificate cert = certificate_from_string(valid_certificate_text());
  EXPECT_EQ(cert.delta, 2);
  ASSERT_EQ(cert.levels.size(), 1u);
  EXPECT_EQ(cert.levels[0].g_weight, Rational(1, 2));
  EXPECT_EQ(cert.levels[0].h_weight, Rational(1, 3));
  // Round-trip stability.
  EXPECT_EQ(certificate_to_string(cert), valid_certificate_text());
}

const Malformed kBadCertificates[] = {
    {"", "empty input"},
    {"ldlb-certificate 2\n", "unsupported version"},
    {"not-a-certificate 1\n", "wrong magic"},
    {"ldlb-certificate 1\ndelta 2\nalgorithm A\n", "missing end"},
    {"ldlb-certificate 1\ndelta 2\nalgorithm A\nlevel 0\nend\n",
     "level without graphs"},
    {"ldlb-certificate 1\nalgorithm A\ndelta 2\nend\n",
     "delta and algorithm swapped"},
};

TEST(IoFuzz, CertificateCorpusRejectedWithParseError) {
  for (const auto& bad : kBadCertificates) {
    try {
      certificate_from_string(bad.text);
      FAIL() << "accepted " << bad.why;
    } catch (const ParseError&) {
      // expected
    }
  }
}

TEST(IoFuzz, CertificateBadRationalDiagnosed) {
  std::string text = valid_certificate_text();
  const auto at = text.find("1/2");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 3, "1/x");
  try {
    certificate_from_string(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 11);  // the witness line
    EXPECT_EQ(e.token(), "1/x");
  }
}

TEST(IoFuzz, CertificateWitnessOutOfRangeDiagnosed) {
  std::string text = valid_certificate_text();
  const auto at = text.find("witness 0");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 9, "witness 5");  // g witness node out of range
  try {
    certificate_from_string(text);
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 11);
  }
}

TEST(IoFuzz, SentinelWitnessFieldsRejected) {
  // A witness field still carrying a kNoNode / kNoEdge / kUncoloured
  // sentinel (-1) is an uncertified level; the parser must range-reject it,
  // and the writer must refuse to produce such text in the first place.
  const std::string base = valid_certificate_text();
  const auto witness_at = base.find("witness ");
  ASSERT_NE(witness_at, std::string::npos);
  const auto witness_end = base.find('\n', witness_at);
  const std::string fields_text =
      base.substr(witness_at + 8, witness_end - witness_at - 8);
  // Fields: g_node h_node colour g_loop h_loop — poison each in turn.
  for (int field = 0; field < 5; ++field) {
    std::istringstream is{fields_text};
    std::ostringstream line;
    std::string tok;
    for (int i = 0; is >> tok; ++i) {
      line << (i == 0 ? "" : " ") << (i == field ? "-1" : tok);
    }
    const std::string text = base.substr(0, witness_at) + "witness " +
                             line.str() + base.substr(witness_end);
    EXPECT_THROW(certificate_from_string(text), ParseError)
        << "sentinel in witness field " << field << " accepted";
  }

  CertificateLevel unset;
  unset.g = Multigraph(1);
  unset.h = Multigraph(1);
  std::ostringstream os;
  EXPECT_THROW(write_certificate_level(os, unset), ContractViolation);
}

// --- tokenizer parity -----------------------------------------------------

// Pins the full diagnosis — line, offending token and message — of one
// malformed input, so the tokenizer's line accounting cannot drift.
template <typename Parse>
void expect_parse_error(Parse parse, const std::string& text, int line,
                        const std::string& token, const std::string& what) {
  SCOPED_TRACE("input: " + text);
  try {
    parse(text);
    ADD_FAILURE() << "accepted";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), line);
    EXPECT_EQ(e.token(), token);
    EXPECT_EQ(std::string(e.what()), what);
  }
}

const auto kParseMultigraph = [](const std::string& text) {
  return multigraph_from_string(text);
};
const auto kParseCertificate = [](const std::string& text) {
  return certificate_from_string(text);
};

TEST(IoFuzz, CrlfLineEndingsParseLikeLf) {
  const Multigraph g = multigraph_from_string("multigraph 2 1\r\ne 0 1 3\r\n");
  EXPECT_EQ(graph_to_string(g), "multigraph 2 1\ne 0 1 3\n");
  std::string crlf;
  for (char ch : valid_certificate_text()) {
    if (ch == '\n') crlf += '\r';
    crlf += ch;
  }
  EXPECT_EQ(certificate_to_string(certificate_from_string(crlf)),
            valid_certificate_text());
  expect_parse_error(kParseMultigraph, "multigraph 2 1\r\ne 0 5 0\r\n", 2, "5",
                     "line 2: edge endpoint v 5 out of range [0, 1], got '5'");
  expect_parse_error(kParseMultigraph, "multigraph 2 2\r\ne 0 1 0\r\n", 2, "",
                     "line 2: unexpected end of input — expected edge line");
}

TEST(IoFuzz, BlankLinesBetweenRecordsAreSkippedAndCounted) {
  const Multigraph g =
      multigraph_from_string("\nmultigraph 2 2\n\n\ne 0 1 0\n\ne 1 1 1\n\n");
  EXPECT_EQ(graph_to_string(g), "multigraph 2 2\ne 0 1 0\ne 1 1 1\n");
  expect_parse_error(kParseMultigraph, "multigraph 2 2\n\ne 0 1 0\n\n\n", 5, "",
                     "line 5: unexpected end of input — expected edge line");
  expect_parse_error(kParseMultigraph, "multigraph 2 1\n\n\nx 0 1 0\n", 4, "x",
                     "line 4: expected edge line 'e <u> <v> <colour>', got 'x'");
  expect_parse_error(
      kParseCertificate,
      "ldlb-certificate 1\n\ndelta 2\n\nalgorithm A\n\nlevel 0\n\ng 1 x\n", 9,
      "x", "line 9: expected integer edge count, got 'x'");
}

TEST(IoFuzz, WhitespaceOnlyLastLineWithoutNewline) {
  EXPECT_EQ(multigraph_from_string("multigraph 1 0\n \t ").node_count(), 1);
  expect_parse_error(kParseMultigraph, "multigraph 2 2\ne 0 1 0\n \t", 3, "",
                     "line 3: unexpected end of input — expected edge line");
  std::string text = valid_certificate_text();
  text.resize(text.size() - 4);  // drop "end\n"
  text += "  ";
  expect_parse_error(kParseCertificate, text, 12, "",
                     "line 12: unexpected end of input — expected 'level' or "
                     "'end'");
}

TEST(IoFuzz, EndOfInputMidEdgeNamesTheMissingField) {
  expect_parse_error(kParseMultigraph, "multigraph 2 1\ne 0 1", 2, "",
                     "line 2: unexpected end of input — expected colour");
  expect_parse_error(kParseMultigraph, "multigraph 2 1\ne 0 1\n", 2, "",
                     "line 2: unexpected end of input — expected colour");
  expect_parse_error(kParseMultigraph, "multigraph 2 1\ne", 2, "",
                     "line 2: unexpected end of input — expected edge endpoint "
                     "u");
  expect_parse_error(
      kParseCertificate,
      "ldlb-certificate 1\ndelta 2\nalgorithm A\nlevel 0\ng 1 1\ne 0 0", 6, "",
      "line 6: unexpected end of input — expected colour");
}

TEST(IoFuzz, LeadingPlusIntegersAreAccepted) {
  const Multigraph g = multigraph_from_string("multigraph +2 +1\ne +0 +1 +7\n");
  EXPECT_EQ(graph_to_string(g), "multigraph 2 1\ne 0 1 7\n");
  std::string text = valid_certificate_text();
  text.replace(text.find("delta 2"), 7, "delta +2");
  EXPECT_EQ(certificate_to_string(certificate_from_string(text)),
            valid_certificate_text());
  expect_parse_error(kParseMultigraph, "multigraph 2 1\ne 0 +-1 0\n", 2, "+-1",
                     "line 2: expected integer edge endpoint v, got '+-1'");
  expect_parse_error(kParseMultigraph, "multigraph 2 1\ne + 1 0\n", 2, "+",
                     "line 2: expected integer edge endpoint u, got '+'");
  expect_parse_error(kParseMultigraph, "multigraph 2 1\ne - 1 0\n", 2, "-",
                     "line 2: expected integer edge endpoint u, got '-'");
  expect_parse_error(kParseMultigraph, "multigraph 2 1\ne 0 1 0x1\n", 2, "0x1",
                     "line 2: expected integer colour, got '0x1'");
}

TEST(IoFuzz, Int64OverflowReportsTheClampedValue) {
  expect_parse_error(kParseMultigraph, "multigraph 99999999999999999999 0\n", 1,
                     "99999999999999999999",
                     "line 1: node count 9223372036854775807 out of range "
                     "[0, 2147483647], got '99999999999999999999'");
  expect_parse_error(kParseMultigraph,
                     "multigraph 2 1\ne 0 1 -99999999999999999999\n", 2,
                     "-99999999999999999999",
                     "line 2: colour -9223372036854775808 out of range "
                     "[-1, 2147483647], got '-99999999999999999999'");
  expect_parse_error(kParseMultigraph,
                     "multigraph 2 1\ne 0 1 +99999999999999999999\n", 2,
                     "+99999999999999999999",
                     "line 2: colour 9223372036854775807 out of range "
                     "[-1, 2147483647], got '+99999999999999999999'");
  // Overflowing digits followed by junk are not an integer at all.
  expect_parse_error(kParseMultigraph, "multigraph 99999999999999999999x 0\n",
                     1, "99999999999999999999x",
                     "line 1: expected integer node count, got "
                     "'99999999999999999999x'");
}

TEST(IoFuzz, TrailingGarbageAfterGraphIsSited) {
  expect_parse_error(kParseMultigraph, "multigraph 1 0\n\nleftover junk\n", 3,
                     "leftover",
                     "line 3: trailing garbage after graph, got 'leftover'");
  expect_parse_error(kParseMultigraph, "multigraph 2 1\ne 0 1 0 9\n", 2, "9",
                     "line 2: trailing garbage after graph, got '9'");
  expect_parse_error(
      [](const std::string& text) { return digraph_from_string(text); },
      "digraph 2 1\na 0 1 -1\r\n\t\r\na", 4, "a",
      "line 4: trailing garbage after graph, got 'a'");
}

// The stream reader counts lines the same way as the in-place one.
TEST(IoFuzz, StreamReaderDiagnosesLikeTheStringReader) {
  const auto parse_stream = [](const std::string& text) {
    std::istringstream is{text};
    return read_multigraph(is);
  };
  expect_parse_error(parse_stream, "multigraph 2 1\r\ne 0 5 0\r\n", 2, "5",
                     "line 2: edge endpoint v 5 out of range [0, 1], got '5'");
  expect_parse_error(parse_stream, "multigraph 2 2\n\ne 0 1 0\n\n\n", 5, "",
                     "line 5: unexpected end of input — expected edge line");
  expect_parse_error(parse_stream, "multigraph 2 2\ne 0 1 0\n \t", 3, "",
                     "line 3: unexpected end of input — expected edge line");
  expect_parse_error(parse_stream, "multigraph 2 1\ne 0 +-1 0\n", 2, "+-1",
                     "line 2: expected integer edge endpoint v, got '+-1'");
  expect_parse_error(parse_stream,
                     "multigraph 2 1\ne 0 1 -99999999999999999999\n", 2,
                     "-99999999999999999999",
                     "line 2: colour -9223372036854775808 out of range "
                     "[-1, 2147483647], got '-99999999999999999999'");
}

// A header that declares billions of edges and then ends must be rejected
// as truncated input, not honoured with a matching reservation: the edge
// reservation is capped by what the remaining bytes can hold.
TEST(IoFuzz, HostileEdgeCountCannotForceAHugeReservation) {
  const std::string prefix =
      "ldlb-certificate 1\ndelta 2\nalgorithm A\nlevel 0\n";
  for (const std::string& graphs :
       {std::string("g 1 2147483647\n"),
        std::string("g 1 1\ne 0 0 0\nh 1 2147483647\ne 0 0 0\n")}) {
    SCOPED_TRACE(graphs);
    ScopedAllocBudget budget{4u << 20};
    try {
      certificate_from_string(prefix + graphs);
      ADD_FAILURE() << "accepted";
    } catch (const ParseError& e) {
      EXPECT_NE(std::string(e.what()).find("unexpected end of input"),
                std::string::npos)
          << e.what();
    }
  }
}

// --- encoder byte identity -------------------------------------------------

// Every encoder entry point produces the same bytes, and those bytes are
// pinned by checksum so the on-disk format cannot drift.
TEST(IoFuzz, EncodersAgreeByteForByte) {
  SeqColorPacking alg{8};
  const LowerBoundCertificate cert = run_adversary(alg, 8);
  const std::string text = certificate_to_string(cert);
  std::ostringstream streamed;
  write_certificate(streamed, cert);
  EXPECT_EQ(streamed.str(), text);
  std::ostringstream levels;
  levels << "ldlb-certificate 1\ndelta " << cert.delta << "\nalgorithm "
         << cert.algorithm_name << "\n";
  for (const auto& lv : cert.levels) write_certificate_level(levels, lv);
  levels << "end\n";
  EXPECT_EQ(levels.str(), text);
  EXPECT_EQ(text.size(), 15476u);
  EXPECT_EQ(fnv1a_64(text), 0xa97277a033608e31ULL);

  Multigraph g(3);
  g.add_edge(0, 1, 2);
  g.add_edge(2, 2, kUncoloured);
  g.add_edge(1, 2, 1234567);
  Digraph d(3);
  d.add_arc(2, 0, kUncoloured);
  d.add_arc(0, 0, 5);
  d.add_arc(1, 2, -1);
  const std::string g_text = graph_to_string(g);
  const std::string d_text = graph_to_string(d);
  EXPECT_EQ(g_text, "multigraph 3 3\ne 0 1 2\ne 2 2 -1\ne 1 2 1234567\n");
  EXPECT_EQ(d_text, "digraph 3 3\na 2 0 -1\na 0 0 5\na 1 2 -1\n");
  std::ostringstream g_os, d_os;
  write_graph(g_os, g);
  write_graph(d_os, d);
  EXPECT_EQ(g_os.str(), g_text);
  EXPECT_EQ(d_os.str(), d_text);
  EXPECT_EQ(fnv1a_64(g_text), 0xe741606f363892dfULL);
  EXPECT_EQ(fnv1a_64(d_text), 0xfec73eeb750d9b47ULL);
}

// --- certificate byte-flip sweep -------------------------------------------

// Every byte of a small valid certificate, flipped to a seeded random value:
// each flip is a ParseError, a certificate the validator (or the Δ check a
// consumer makes) rejects, or one that re-encodes to the original bytes.
// The validator does not vouch for the algorithm name or the informational
// propagation-step counts, so a flip confined to those may survive; it must
// then leave every other byte intact.
TEST(IoFuzz, CertificateByteFlipSweep) {
  constexpr int kDelta = 6;
  SeqColorPacking alg{kDelta};
  const LowerBoundCertificate ref = run_adversary(alg, kDelta);
  const std::string full = certificate_to_string(ref);
  Rng rng{20260417};
  int parse_errors = 0, rejected = 0, identical = 0, metadata = 0;
  for (std::size_t at = 0; at < full.size(); ++at) {
    std::string text = full;
    // Half digits (the flips most likely to parse), a quarter whitespace
    // (the flips that must re-encode unchanged), a quarter any byte.
    char flipped = 0;
    switch (rng.next_below(4)) {
      case 0:
      case 1:
        flipped = static_cast<char>('0' + rng.next_below(10));
        break;
      case 2:
        flipped = " \t\r\n\v\f"[rng.next_below(6)];
        break;
      default:
        flipped = static_cast<char>(rng.next_below(256));
        break;
    }
    if (flipped == text[at]) flipped = static_cast<char>(flipped ^ 0x01);
    text[at] = flipped;
    LowerBoundCertificate cert;
    try {
      cert = certificate_from_string(text);
    } catch (const ParseError&) {
      ++parse_errors;
      continue;
    }
    if (certificate_to_string(cert) == full) {
      ++identical;
      continue;
    }
    if (cert.delta != kDelta || !certificate_is_valid(cert, alg)) {
      ++rejected;
      continue;
    }
    ASSERT_EQ(cert.levels.size(), ref.levels.size()) << "flip at byte " << at;
    cert.algorithm_name = ref.algorithm_name;
    for (std::size_t i = 0; i < cert.levels.size(); ++i) {
      cert.levels[i].propagation_steps = ref.levels[i].propagation_steps;
    }
    EXPECT_EQ(certificate_to_string(cert), full)
        << "flip at byte " << at << " accepted with different content";
    ++metadata;
  }
  // Every outcome class must occur for the sweep to mean anything.
  EXPECT_GT(parse_errors, 0);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(identical, 0);
  EXPECT_GT(metadata, 0);
}

// --- truncation sweeps -----------------------------------------------------

// Every byte-prefix of a certificate must either parse to the full chain or
// raise a line-sited ParseError — no crashes, no silent partial loads.
TEST(IoFuzz, CertificateTruncationSweep) {
  SeqColorPacking alg{4};
  const std::string full =
      certificate_to_string(run_adversary(alg, 4));
  int parsed = 0;
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    const std::string text = full.substr(0, cut);
    try {
      LowerBoundCertificate cert = certificate_from_string(text);
      // The only acceptable accepted prefix is the whole chain (the final
      // newline is optional for a line-oriented reader).
      EXPECT_EQ(certificate_to_string(cert), full) << "cut at byte " << cut;
      ++parsed;
    } catch (const ParseError& e) {
      EXPECT_GE(e.line(), 0) << "cut at byte " << cut;
    }
    // Anything else escapes the test as a failure.
  }
  EXPECT_EQ(parsed, 1);  // exactly the cut through the final newline
}

// --- certificate-log damage sweeps ----------------------------------------

// The append-only certificate log (recover/cert_log) promises more than a
// parse-or-throw: every corruption lands in the *typed* damage taxonomy —
// kTornTail is repaired, everything else rejects the artefact — and load()
// never throws, never invents levels, never returns anything but a
// byte-exact prefix of the clean chain.

// The loader's degradation contract: whatever it salvages must be a byte
// -exact prefix of the clean chain's levels — never reordered, never
// repeated, never invented.
void expect_clean_prefix(const LowerBoundCertificate& loaded,
                         const LowerBoundCertificate& chain) {
  ASSERT_LE(loaded.levels.size(), chain.levels.size());
  for (std::size_t i = 0; i < loaded.levels.size(); ++i) {
    std::ostringstream got, want;
    write_certificate_level(got, loaded.levels[i]);
    write_certificate_level(want, chain.levels[i]);
    EXPECT_EQ(got.str(), want.str()) << "level " << i;
  }
}

struct CertLogFixture {
  LowerBoundCertificate chain;
  std::string full;   // clean serialized log
  std::string path;
  std::vector<std::uint64_t> offsets;  // record start offsets + end-of-file
};

CertLogFixture make_cert_log_fixture(const char* name) {
  CertLogFixture f;
  SeqColorPacking alg{4};
  f.chain = run_adversary(alg, 4);
  f.full = CertificateLog::serialize(f.chain);
  f.path =
      (std::filesystem::path(::testing::TempDir()) / name).string();
  write_file_atomic(f.path, f.full);
  const CertLogReport clean = inspect_certificate_log(
      f.path,
      [&](const CertLogRecordInfo& rec) { f.offsets.push_back(rec.offset); });
  EXPECT_EQ(clean.damage, LogDamage::kNone);
  f.offsets.push_back(f.full.size());
  return f;
}

// Every single-byte flip must be classified (never kNone, never a crash)
// and load() must still salvage a clean prefix.
TEST(IoFuzz, CertLogEveryByteFlipLandsInTheTaxonomy) {
  CertLogFixture f = make_cert_log_fixture("io_log_flip.log");
  CertificateLog log{f.path};
  for (std::size_t at = 0; at < f.full.size(); ++at) {
    std::string text = f.full;
    text[at] = static_cast<char>(text[at] ^ 0x01);  // guaranteed change
    write_file_atomic(f.path, text);
    const CertLogReport report = log.scan();
    EXPECT_NE(report.damage, LogDamage::kNone) << "flip at byte " << at;
    CertLogReport recovery;
    LowerBoundCertificate loaded = log.load(&recovery);  // must not throw
    EXPECT_EQ(recovery.damage, report.damage) << "flip at byte " << at;
    if (!report.recoverable()) {
      EXPECT_TRUE(loaded.levels.empty()) << "flip at byte " << at;
    }
    expect_clean_prefix(loaded, f.chain);
  }
  log.remove();
}

// Every truncation point is either clean (a record boundary) or a torn
// tail — always recoverable — and checkpoint() repairs the file back to
// the byte-identical clean log.
TEST(IoFuzz, CertLogEveryTruncationPointIsTornOrClean) {
  CertLogFixture f = make_cert_log_fixture("io_log_trunc.log");
  CertificateLog log{f.path};
  for (std::size_t cut = 0; cut <= f.full.size(); ++cut) {
    write_file_atomic(f.path, f.full.substr(0, cut));
    const CertLogReport report = log.scan();
    EXPECT_TRUE(report.recoverable()) << "cut at byte " << cut;
    const bool boundary =
        std::find(f.offsets.begin(), f.offsets.end(), cut) != f.offsets.end();
    EXPECT_EQ(report.damage == LogDamage::kNone, boundary)
        << "cut at byte " << cut;
    EXPECT_LE(report.valid_bytes, cut);
    if (cut % 7 == 0 || cut + 1 == f.full.size()) {
      // Torn-tail repair: truncate to the valid prefix, append the rest.
      log.checkpoint(f.chain);
      EXPECT_EQ(read_file(f.path), f.full) << "cut at byte " << cut;
      write_file_atomic(f.path, f.full.substr(0, cut));  // re-tear
    }
  }
  log.remove();
}

// Records spliced out of order — duplicated or swapped — break the
// predecessor chain exactly at the splice.
TEST(IoFuzz, CertLogSplicedRecordsAreChainBreaks) {
  CertLogFixture f = make_cert_log_fixture("io_log_splice.log");
  CertificateLog log{f.path};
  const std::size_t n = f.offsets.size() - 1;  // record count
  ASSERT_GE(n, 3u);
  const auto record = [&](std::size_t i) {
    return f.full.substr(f.offsets[i], f.offsets[i + 1] - f.offsets[i]);
  };
  const std::string header = f.full.substr(0, f.offsets[0]);

  for (std::size_t k = 0; k < n; ++k) {
    SCOPED_TRACE("duplicated record " + std::to_string(k));
    std::string text = header;
    for (std::size_t i = 0; i <= k; ++i) text += record(i);
    text += record(k);  // the duplicate
    for (std::size_t i = k + 1; i < n; ++i) text += record(i);
    write_file_atomic(f.path, text);
    const CertLogReport report = log.scan();
    EXPECT_EQ(report.damage, LogDamage::kChainBreak);
    EXPECT_EQ(report.defect_level, static_cast<int>(k + 1));
    EXPECT_TRUE(log.load().levels.empty());  // rejected wholesale
  }

  for (std::size_t k = 0; k + 1 < n; ++k) {
    SCOPED_TRACE("swapped records " + std::to_string(k) + "," +
                 std::to_string(k + 1));
    std::string text = header;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = (i == k) ? k + 1 : (i == k + 1) ? k : i;
      text += record(j);
    }
    write_file_atomic(f.path, text);
    const CertLogReport report = log.scan();
    EXPECT_EQ(report.damage, LogDamage::kChainBreak);
    EXPECT_EQ(report.defect_level, static_cast<int>(k));
    EXPECT_TRUE(log.load().levels.empty());
  }
  log.remove();
}

// A record spliced in from a *different* log (same delta, different
// algorithm name in the header) fails the chain even when its self
// checksum verifies — the chain is seeded from the header.
TEST(IoFuzz, CertLogForeignRecordIsAChainBreak) {
  CertLogFixture f = make_cert_log_fixture("io_log_foreign.log");
  // Same chain re-serialized under a different header.
  LowerBoundCertificate relabeled = f.chain;
  relabeled.algorithm_name = "Imposter";
  const std::string foreign = CertificateLog::serialize(relabeled);
  const std::size_t foreign_body = foreign.find("record ");
  ASSERT_NE(foreign_body, std::string::npos);
  // Foreign header + original records: genesis differs, so record 0's
  // chain checksum no longer verifies.
  const std::string text =
      foreign.substr(0, foreign_body) + f.full.substr(f.offsets[0]);
  write_file_atomic(f.path, text);
  CertificateLog log{f.path};
  const CertLogReport report = log.scan();
  EXPECT_EQ(report.damage, LogDamage::kChainBreak);
  EXPECT_EQ(report.defect_level, 0);
  EXPECT_TRUE(log.load().levels.empty());
  log.remove();
}

// --- randomised mutation sweep --------------------------------------------

// Mutates valid serialisations and checks the parsers never do anything
// except parse or throw a typed ldlb error.
TEST(IoFuzz, RandomMutationsNeverEscapeTheTaxonomy) {
  Rng rng{20140721};
  Multigraph g = greedy_edge_coloring(make_cycle(7));
  const std::string base = graph_to_string(g);
  int parsed = 0, rejected = 0;
  for (int trial = 0; trial < 500; ++trial) {
    std::string text = base;
    switch (rng.next_below(3)) {
      case 0:  // flip one byte to a random printable character
        text[rng.next_below(text.size())] =
            static_cast<char>(' ' + rng.next_below(95));
        break;
      case 1:  // truncate
        text.resize(rng.next_below(text.size()));
        break;
      default:  // duplicate a chunk in place
        text.insert(rng.next_below(text.size()),
                    text.substr(0, rng.next_below(text.size())));
        break;
    }
    try {
      Multigraph back = multigraph_from_string(text);
      (void)back;
      ++parsed;
    } catch (const Error&) {
      ++rejected;
    }
    // Anything else (std::bad_alloc aside) escapes the test as a failure.
  }
  // The sweep must exercise both outcomes to be meaningful.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(parsed + rejected, 499);
}

}  // namespace
}  // namespace ldlb
