// Serialisation of lower-bound certificates.
//
// Certificates are the repository's primary artefact: a third party should
// be able to store one, ship it, reload it and re-validate it against the
// algorithm without trusting the process that produced it. The format is a
// line-oriented text format (stable, diff-able, no external dependencies):
//
//   ldlb-certificate 1
//   delta <d>
//   algorithm <name>
//   level <i>
//   g <nodes> <edges>
//   e <u> <v> <colour>        (edges of G_i, in id order)
//   h <nodes> <edges>
//   e <u> <v> <colour>        (edges of H_i)
//   witness <g_node> <h_node> <colour> <g_loop> <h_loop> <w_g> <w_h> <steps>
//   ...
//   end
//
// Weights are exact rationals rendered as "num/den".
//
// The codec is zero-copy on the hot paths. The encoder renders through one
// std::to_chars appender (util/text_appender.hpp) into a string presized
// from an upper bound on the output, and every entry point — the string,
// stream, per-level and file writers — goes through it, so their bytes
// cannot drift apart. The string and file readers tokenize their buffer in
// place (util/line_reader.hpp), and read_certificate_file reads the file in
// one presized buffer (util/atomic_file.hpp). A graph header's edge count
// reserves edge storage only up to what the unread input can hold, so a
// hostile count cannot force a huge allocation.
#pragma once

#include <iosfwd>
#include <string>

#include "ldlb/core/certificate.hpp"
#include "ldlb/util/line_reader.hpp"

namespace ldlb {

/// Writes the certificate in the text format above.
void write_certificate(std::ostream& os, const LowerBoundCertificate& cert);

/// Parses a certificate; throws ParseError (with the 1-based line number
/// and the offending token) on malformed input.
LowerBoundCertificate read_certificate(std::istream& is);

/// Writes one level in the chain format ("level" through "witness" lines).
/// Requires the witness fields to be populated — a level still carrying the
/// kNoNode / kNoEdge sentinels is not serialisable evidence.
void write_certificate_level(std::ostream& os, const CertificateLevel& lv);

/// The bytes write_certificate_level writes, as a string — the record
/// payload of the certificate log.
std::string certificate_level_to_string(const CertificateLevel& lv);

/// Reads one level, starting at its "level" keyword; throws ParseError on
/// malformed input. Shared by read_certificate and the certificate log
/// (recover/cert_log.hpp), so the two formats cannot drift apart.
CertificateLevel read_certificate_level(LineReader& r);

/// Round-trips through strings; certificate_from_string tokenizes `text`
/// in place.
std::string certificate_to_string(const LowerBoundCertificate& cert);
LowerBoundCertificate certificate_from_string(const std::string& text);

/// Atomically replaces `path` with the serialised certificate (temp file +
/// fsync + rename, see util/atomic_file.hpp): a crash mid-write leaves the
/// previous file intact instead of a torn certificate. Throws IoError when
/// the filesystem refuses.
void write_certificate_file(const std::string& path,
                            const LowerBoundCertificate& cert);

/// Reads a certificate from a file; throws IoError when the file cannot be
/// read and ParseError when its content is malformed.
LowerBoundCertificate read_certificate_file(const std::string& path);

}  // namespace ldlb
