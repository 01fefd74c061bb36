// The two halves of a certificate job, as certificate_tool runs them:
//
//   generate  run_adversary, then write_certificate_file;
//   verify    read_certificate_file, then validate_certificate
//             (check_loopiness = false).
//
// Each half runs in its own process (child.hpp), starts with a cleared ball
// store, and reports a Record: named numbers plus, when traced, the spans
// recorded around its calls into the engine. Only public functions of
// src/ldlb are called; every layer number is timed from out here.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace certbench {

struct JobSpec {
  std::string algorithm;  ///< "seq" (SeqColorPacking) or "po" (EcFromPo)
  int delta = 0;
  int threads = 1;        ///< global pool size inside the job's processes
  std::string cert_path;  ///< where generate writes and verify reads
  bool traced = false;    ///< record spans around the engine calls: one per
                          ///< layer call on 1 thread, whole calls on a pool
  bool tamper = false;    ///< corrupt one witness weight before writing
};

/// A half's numbers ("m <key> <value>" lines) and spans ("span ..." lines)
/// in the text form that crosses the pipe from the child.
struct Record {
  std::map<std::string, double> m;
  std::vector<Span> spans;

  [[nodiscard]] double get(const std::string& key) const {
    auto it = m.find(key);
    return it == m.end() ? 0.0 : it->second;
  }
  [[nodiscard]] std::string to_text() const;
  static Record parse(const std::string& text);
};

/// Bodies run inside the child; each returns Record::to_text(). Verify
/// reports the FNV-1a 64 of the certificate's content as it was read back
/// (content_hi, content_lo: the upper and lower 32 bits).
std::string generate_half(const JobSpec& spec);
std::string verify_half(const JobSpec& spec);

/// Microbenchmarks on fixed inputs from the certificate at spec.cert_path:
/// simulator messages/s, ball keys/s (cold store) and Rational ops/s, each
/// measured for about `seconds` on one thread.
std::string micro_half(const JobSpec& spec, double seconds);

}  // namespace certbench
