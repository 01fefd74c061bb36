// Internal source model for ldlb_analyze: a token-level symbol indexer
// built on the shared tools/srcmodel lexer.
//
// The indexer is deliberately approximate — no preprocessor, no template
// instantiation, no overload resolution — but errs on the side the passes
// need: call sites resolve by name to *every* definition with that name
// (conservative for taint), lock scopes are lexical brace scopes, and
// loops/locks/sources carry byte positions into the stripped text so the
// passes can reason about containment. docs/STATIC_ANALYSIS.md lists the
// known approximations.
#pragma once

#include <cstddef>
#include <filesystem>
#include <string>
#include <unordered_map>
#include <vector>

#include "srcmodel.hpp"

namespace ldlb::analyze {

/// A call site inside a function body: `name(` possibly qualified.
struct CallSite {
  std::string name;       // simple name, e.g. "now"
  std::string qualified;  // as written, e.g. "Clock::now"
  std::string receiver;   // object of a member call: "cancel" in
                          // `options.cancel->check()`; empty otherwise
  std::size_t pos = 0;    // byte offset into the stripped text
  int line = 0;
};

/// A `while`, unbounded `for (;;)`, or `do` loop. The span runs from the
/// loop keyword through the end of the body so condition calls count.
struct LoopSite {
  std::size_t span_begin = 0;
  std::size_t span_end = 0;
  int line = 0;
  std::string keyword;  // "while", "for", "do"
};

/// A lexical lock acquisition: std::lock_guard / unique_lock / scoped_lock
/// construction. `scope_end` is the byte offset of the innermost enclosing
/// close brace, i.e. where the guard is destroyed.
struct LockSite {
  std::string mutex;  // normalized argument text, e.g. "g_mutex"
  std::size_t pos = 0;
  std::size_t scope_end = 0;
  int line = 0;
};

/// A nondeterminism source token (clock/random/env/locale) in a body.
struct SourceSite {
  std::string token;     // e.g. "getenv(" or "Clock::now("
  std::string category;  // "clock", "random", "env", "locale"
  std::size_t pos = 0;
  int line = 0;
};

struct Function {
  std::string name;       // simple name, e.g. "run_adversary"
  std::string qualified;  // e.g. "ldlb::ThreadPool::run"
  int line = 0;
  std::size_t body_begin = 0;  // just after the opening brace
  std::size_t body_end = 0;    // the closing brace
  std::vector<CallSite> calls;
  std::vector<LoopSite> loops;
  std::vector<LockSite> locks;
  std::vector<SourceSite> sources;
};

/// One resolved in-tree include directive.
struct IncludeEdge {
  std::string target;  // repo-root-relative path of the included file
  int line = 0;
};

/// A `// ldlb: guarded_by(<mutex>)` field annotation.
struct GuardedField {
  std::string field;
  std::string mutex;  // normalized, e.g. "g_mutex" or "mutex_"
  int line = 0;       // line of the field declaration
};

struct FileModel {
  std::string path;    // repo-root-relative, forward slashes
  std::string module;  // first component under src/ldlb/, e.g. "core"
  srcmodel::Stripped stripped;
  std::vector<IncludeEdge> includes;
  std::vector<Function> functions;
  std::vector<GuardedField> guarded_fields;
  std::vector<srcmodel::Annotation> annotations;  // ldlb-analyze: allow(...)
};

struct SourceModel {
  std::vector<FileModel> files;
  /// simple name -> (file index, function index) of every definition.
  std::unordered_map<std::string, std::vector<std::pair<int, int>>> by_name;
  /// Unsuppressible meta-diagnostics (bad-annotation, unknown-rule, ...).
  std::vector<srcmodel::Diagnostic> meta;
};

/// Indexes one file. `rel_path` keys module scoping and include
/// resolution; meta-diagnostics (malformed annotations) land in `meta`.
[[nodiscard]] FileModel index_file(const std::string& rel_path,
                                   const std::string& content,
                                   std::vector<srcmodel::Diagnostic>& meta);

/// Indexes every listed file and builds the cross-file name table.
[[nodiscard]] SourceModel build_model(const std::filesystem::path& root,
                                      const std::vector<std::string>& rel_paths);

/// 1-based line number of byte offset `pos` in `text`.
[[nodiscard]] int line_at(const std::string& text, std::size_t pos);

/// Strips whitespace, a leading '&', and a leading 'this->' from a lock
/// argument / guarded_by mutex name so the two spellings compare equal.
[[nodiscard]] std::string normalize_mutex(std::string name);

}  // namespace ldlb::analyze
