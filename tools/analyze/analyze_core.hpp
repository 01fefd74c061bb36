// ldlb_analyze — cross-translation-unit architecture & concurrency
// analyzer.
//
// Where ldlb_lint (tools/lint) checks line-local invariants, this tool
// checks the *global* ones that protect the byte-identical-certificate
// guarantee: four graph-aware passes run over a whole-program symbol index
// of src/ldlb built on the shared tools/srcmodel lexer.
//
//   layering      — the include graph must respect the declared layer
//                   order in tools/analyze/layers.txt (no back-edges, no
//                   include cycles; the offending chain is printed);
//   determinism   — no function transitively reachable from a
//                   certificate-producing entry point (run_adversary*,
//                   plan/combine_adversary_step, validators, serializers)
//                   may reach a clock/random/env/locale source; the full
//                   call chain is printed;
//   locks         — every field annotated `// ldlb: guarded_by(<mutex>)`
//                   is accessed only inside a lexical scope holding that
//                   mutex, and observed nested acquisitions must form a
//                   consistent global lock order;
//   cancellation  — every while/unbounded-for loop in core/ and the
//                   simulator must reach a cancel/poll/deadline check
//                   through its body's call graph.
//
// Suppressions share ldlb_lint's shape with the analyzer's own marker:
//
//   // ldlb-analyze: allow(<pass>): <reason>
//
// trailing the offending line or on a comment line directly above it; the
// reason is mandatory and stale suppressions are themselves reported.
//
// Pass semantics, the layers.txt format, the annotation grammar, and the
// resolver's known approximations: docs/STATIC_ANALYSIS.md.
#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "srcmodel.hpp"

namespace ldlb::analyze {

using srcmodel::Diagnostic;
using srcmodel::format;

struct Options {
  std::filesystem::path root = ".";
  /// Layer declaration; empty means <root>/tools/analyze/layers.txt.
  std::filesystem::path layers_file;
  /// When non-empty, only diagnostics anchored in these root-relative
  /// files are reported — the analysis itself always runs whole-tree, so
  /// reachability and layering stay exact under --changed filtering.
  std::vector<std::string> only;
};

/// Names of the four passes, for allow() validation and --list-passes.
[[nodiscard]] const std::vector<std::string>& pass_names();

/// Runs all passes over <root>/src/ldlb. Diagnostics are sorted by
/// (path, line, pass, message). Throws std::runtime_error on a missing
/// tree or unreadable layers file.
[[nodiscard]] std::vector<Diagnostic> analyze_tree(const Options& options);

/// Diagnostics as a JSON array of {path, line, pass, message} objects.
[[nodiscard]] std::string to_json(const std::vector<Diagnostic>& diagnostics);

/// Parsed layers.txt: module name -> layer index (0 = lowest). Exposed
/// for tests; `source` is the file's text.
[[nodiscard]] std::vector<std::vector<std::string>> parse_layers(
    const std::string& source);

}  // namespace ldlb::analyze
