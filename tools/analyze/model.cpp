// Token-level symbol indexer for ldlb_analyze.
//
// One forward pass over the stripped source builds the file model: a
// scope-tracking declaration scanner finds function definitions (including
// out-of-line methods and constructors with init lists), and a body walker
// records call sites, loops, and lexical lock acquisitions. Source-token
// sites (clocks, randomness, env, locale) and guarded-field annotations
// are collected per body with plain regexes over the stripped text, which
// cannot false-positive on comments or string literals.

#include <algorithm>
#include <cctype>
#include <regex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze_core.hpp"
#include "model.hpp"

namespace ldlb::analyze {

namespace {

struct Token {
  enum Kind { kIdent, kPunct };
  Kind kind = kPunct;
  std::string text;
  std::size_t pos = 0;
  int line = 0;
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Tokenizes stripped source into identifiers and punctuation; "::" is one
// token. Preprocessor lines (including backslash continuations) and the
// residual quote characters left by the stripper are skipped entirely.
std::vector<Token> tokenize(const std::string& text) {
  std::vector<Token> tokens;
  const std::size_t n = text.size();
  int line = 1;
  bool at_line_start = true;
  std::size_t i = 0;
  while (i < n) {
    const char c = text[i];
    if (c == '\n') {
      ++line;
      at_line_start = true;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c)) != 0) {
      ++i;
      continue;
    }
    if (at_line_start && c == '#') {
      while (i < n && text[i] != '\n') {
        if (text[i] == '\\' && i + 1 < n && text[i + 1] == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      continue;
    }
    at_line_start = false;
    if (is_ident_char(c)) {
      const std::size_t start = i;
      while (i < n && is_ident_char(text[i])) ++i;
      tokens.push_back(
          {Token::kIdent, text.substr(start, i - start), start, line});
      continue;
    }
    if (c == '"' || c == '\'') {
      ++i;  // literal delimiters survive stripping; their contents did not
      continue;
    }
    if (c == ':' && i + 1 < n && text[i + 1] == ':') {
      tokens.push_back({Token::kPunct, "::", i, line});
      i += 2;
      continue;
    }
    tokens.push_back({Token::kPunct, std::string(1, c), i, line});
    ++i;
  }
  return tokens;
}

// Keywords that look like `name(...)` but are neither calls nor function
// definitions.
bool is_excluded_name(const std::string& name) {
  static const std::set<std::string> kExcluded = {
      "if",          "for",           "while",      "switch",
      "catch",       "return",        "sizeof",     "alignof",
      "alignas",     "decltype",      "noexcept",   "static_assert",
      "new",         "delete",        "throw",      "co_return",
      "co_await",    "co_yield",      "assert",     "defined",
      "static_cast", "dynamic_cast",  "const_cast", "reinterpret_cast",
      "typeid",      "__builtin_expect"};
  return kExcluded.count(name) > 0;
}

struct Matcher {
  const std::vector<Token>& t;
  const std::string& text;

  [[nodiscard]] std::size_t size() const { return t.size(); }
  [[nodiscard]] const std::string& at(std::size_t i) const {
    static const std::string kEnd;
    return i < t.size() ? t[i].text : kEnd;
  }
  [[nodiscard]] bool ident(std::size_t i) const {
    return i < t.size() && t[i].kind == Token::kIdent;
  }

  // Index just past the token matching `open` (e.g. '(' -> ')').
  [[nodiscard]] std::size_t skip_balanced(std::size_t i, const char* open,
                                          const char* close) const {
    int depth = 0;
    for (; i < t.size(); ++i) {
      if (t[i].text == open) ++depth;
      if (t[i].text == close && --depth == 0) return i + 1;
    }
    return t.size();
  }

  // Index just past the ';' closing a declaration/statement, consuming
  // balanced (), {}, [] so initializer lists and lambdas do not derail it.
  [[nodiscard]] std::size_t skip_to_semicolon(std::size_t i) const {
    int paren = 0, brace = 0, bracket = 0;
    for (; i < t.size(); ++i) {
      const std::string& s = t[i].text;
      if (s == "(") ++paren;
      if (s == ")") --paren;
      if (s == "{") ++brace;
      if (s == "}") --brace;
      if (s == "[") ++bracket;
      if (s == "]") --bracket;
      if (s == ";" && paren <= 0 && brace <= 0 && bracket <= 0) return i + 1;
      if (s == "}" && brace < 0) return i;  // ran off the enclosing scope
    }
    return t.size();
  }

  // Index just past a balanced template argument list opened at `<`.
  [[nodiscard]] std::size_t skip_angles(std::size_t i) const {
    int depth = 0, paren = 0;
    for (; i < t.size(); ++i) {
      const std::string& s = t[i].text;
      if (s == "(") ++paren;
      if (s == ")") --paren;
      if (paren > 0) continue;
      if (s == "<") ++depth;
      if (s == ">" && --depth == 0) return i + 1;
      if (s == ";" || s == "{") return i;  // not a template list after all
    }
    return t.size();
  }
};

class Indexer {
 public:
  Indexer(FileModel& file, const std::vector<Token>& tokens)
      : file_(file), m_{tokens, file.stripped.text} {}

  void run() {
    std::vector<std::string> scope;
    parse_decl_region(0, m_.size(), scope);
  }

 private:
  FileModel& file_;
  Matcher m_;

  // --- declaration scope ---------------------------------------------------

  // Parses tokens [i, end) as namespace/class/top-level declarations.
  void parse_decl_region(std::size_t i, std::size_t end,
                         std::vector<std::string>& scope) {
    while (i < end) {
      const std::string& s = m_.at(i);
      if (s == "}") return;  // caller consumed the matching open
      if (s == "namespace") {
        i = parse_namespace(i, scope);
        continue;
      }
      if (s == "template") {
        i = (m_.at(i + 1) == "<") ? m_.skip_angles(i + 1) : i + 1;
        continue;
      }
      if ((s == "class" || s == "struct" || s == "union") &&
          m_.at(i + 1) != "{" && !(i > 0 && m_.at(i - 1) == "enum")) {
        i = parse_class(i, scope);
        continue;
      }
      if (s == "enum") {
        // enum [class] Name [: type] { ... };  — no functions inside.
        std::size_t j = i + 1;
        while (j < end && m_.at(j) != "{" && m_.at(j) != ";") ++j;
        i = (m_.at(j) == "{") ? m_.skip_balanced(j, "{", "}") : j + 1;
        continue;
      }
      if (s == "using" || s == "typedef" || s == "friend" ||
          s == "static_assert") {
        i = m_.skip_to_semicolon(i);
        continue;
      }
      if (s == "{") {  // anonymous block / aggregate at decl scope
        i = m_.skip_balanced(i, "{", "}");
        continue;
      }
      if (s == ";" || s == "public" || s == "private" || s == "protected" ||
          s == ":") {
        ++i;
        continue;
      }
      i = parse_declaration(i, end, scope);
    }
  }

  std::size_t parse_namespace(std::size_t i, std::vector<std::string>& scope) {
    if (i > 0 && m_.at(i - 1) == "using") return m_.skip_to_semicolon(i);
    std::size_t j = i + 1;
    std::vector<std::string> parts;
    while (m_.ident(j)) {
      parts.push_back(m_.at(j));
      ++j;
      if (m_.at(j) == "::") ++j;
    }
    if (m_.at(j) == "=") return m_.skip_to_semicolon(j);  // namespace alias
    if (m_.at(j) != "{") return j + 1;
    const std::size_t close = m_.skip_balanced(j, "{", "}");
    const std::size_t depth_before = scope.size();
    for (const std::string& p : parts) scope.push_back(p);
    parse_decl_region(j + 1, close - 1, scope);
    scope.resize(depth_before);
    return close;
  }

  std::size_t parse_class(std::size_t i, std::vector<std::string>& scope) {
    // class [attrs] Name [final] [: bases] { ... } [vars] ;
    std::size_t j = i + 1;
    std::string name;
    while (j < m_.size()) {
      const std::string& s = m_.at(j);
      if (s == ";") return j + 1;  // forward declaration
      if (s == "{") break;
      if (s == ":") break;  // base clause; name was the last identifier
      if (s == "<") {
        j = m_.skip_angles(j);  // specialization arguments
        continue;
      }
      if (m_.ident(j) && s != "final" && s != "alignas") name = s;
      ++j;
    }
    while (j < m_.size() && m_.at(j) != "{" && m_.at(j) != ";") ++j;
    if (m_.at(j) != "{") return j + 1;
    const std::size_t close = m_.skip_balanced(j, "{", "}");
    scope.push_back(name);
    parse_decl_region(j + 1, close - 1, scope);
    scope.pop_back();
    // Trailing declarator list (`} x, y;`) is skipped by the caller loop.
    return close;
  }

  // Parses one declaration starting at `i`; records a Function when it is
  // a definition. Returns the index to continue from.
  std::size_t parse_declaration(std::size_t i, std::size_t end,
                                std::vector<std::string>& scope) {
    // Scan forward for the declarator's '(' — the earliest of '(', '=',
    // ';', '{' decides the shape.
    std::size_t j = i;
    while (j < end) {
      const std::string& s = m_.at(j);
      if (s == "(") break;
      if (s == "=" || s == ";") return m_.skip_to_semicolon(j);
      if (s == "{") return m_.skip_balanced(j, "{", "}");
      if (s == "<") {
        const std::size_t after = m_.skip_angles(j);
        if (after == j) return j + 1;  // stray '<'
        j = after;
        continue;
      }
      if (s == "}") return j;
      ++j;
    }
    if (j >= end) return end;

    // Name: the identifier chain immediately before '('. `operator` forms
    // get the keyword as their simple name — enough to skip them cleanly.
    std::string simple, written;
    for (std::size_t k = j; k-- > i;) {
      if (m_.ident(k)) {
        if (simple.empty()) simple = m_.at(k);
        written = m_.at(k) + written;
        if (k >= 1 && m_.at(k - 1) == "::") {
          written = "::" + written;
          --k;
          continue;
        }
      }
      break;
    }
    // Nameless/operator/keyword candidates still get the trailing-token
    // scan (so an `operator()` body cannot derail its siblings) but are
    // not recorded — calls through functors are outside the model anyway.
    const bool record = !simple.empty() && !is_excluded_name(simple);

    const int name_line = j > 0 ? m_.t[j - 1].line : m_.t[j].line;
    std::size_t after_params = m_.skip_balanced(j, "(", ")");

    // Between the parameter list and the body: cv/ref qualifiers, noexcept
    // (with or without arguments), attributes, trailing return types, and
    // constructor initializer lists.
    std::size_t k = after_params;
    while (k < m_.size()) {
      const std::string& s = m_.at(k);
      if (s == "{") {
        if (record) record_function(simple, written, name_line, k, scope);
        return m_.skip_balanced(k, "{", "}");
      }
      if (s == ";") return k + 1;
      if (s == "=") return m_.skip_to_semicolon(k);  // = default / delete / 0
      if (s == ":") {  // constructor initializer list
        std::size_t b = k + 1;
        int paren = 0, brace = 0;
        while (b < m_.size()) {
          const std::string& u = m_.at(b);
          if (u == "(") ++paren;
          if (u == ")") --paren;
          if (u == "{" && paren == 0 && brace == 0) break;
          if (u == "{") ++brace;
          if (u == "}") --brace;
          if (u == ";") return b + 1;  // not an initializer list after all
          ++b;
        }
        if (b >= m_.size()) return b;
        if (record) record_function(simple, written, name_line, b, scope);
        return m_.skip_balanced(b, "{", "}");
      }
      if (s == "(") {  // noexcept(...), or a second declarator's initializer
        after_params = m_.skip_balanced(k, "(", ")");
        k = after_params;
        continue;
      }
      if (s == "<") {
        k = m_.skip_angles(k);
        continue;
      }
      if (s == "," || s == "}") return m_.skip_to_semicolon(k);
      ++k;
    }
    return k;
  }

  void record_function(const std::string& simple, const std::string& written,
                       int line, std::size_t open_brace_token,
                       const std::vector<std::string>& scope) {
    Function fn;
    fn.name = simple;
    std::string qual;
    for (const std::string& s : scope) {
      if (!s.empty()) qual += s + "::";
    }
    // An out-of-line `Class::name` already carries its qualifier.
    fn.qualified = qual + written;
    fn.line = line;
    const std::size_t close = m_.skip_balanced(open_brace_token, "{", "}");
    fn.body_begin = m_.t[open_brace_token].pos + 1;
    fn.body_end =
        close - 1 < m_.size() ? m_.t[close - 1].pos : m_.text.size();
    parse_body(fn, open_brace_token + 1, close - 1);
    file_.functions.push_back(std::move(fn));
  }

  [[nodiscard]] std::size_t text_size() const { return m_.text.size(); }

  // --- function bodies -----------------------------------------------------

  void parse_body(Function& fn, std::size_t i, std::size_t end) {
    std::vector<std::size_t> brace_stack;  // token indices of open braces
    while (i < end) {
      const std::string& s = m_.at(i);
      if (s == "{") {
        brace_stack.push_back(i);
        ++i;
        continue;
      }
      if (s == "}") {
        if (!brace_stack.empty()) brace_stack.pop_back();
        ++i;
        continue;
      }
      if (s == "while" || s == "do" || s == "for") {
        i = parse_loop(fn, i);
        continue;
      }
      if (s == "lock_guard" || s == "unique_lock" || s == "scoped_lock") {
        i = parse_lock(fn, i, brace_stack);
        continue;
      }
      if (m_.ident(i) && m_.at(i + 1) == "(" && !is_excluded_name(s)) {
        CallSite call;
        call.name = s;
        call.pos = m_.t[i].pos;
        call.line = m_.t[i].line;
        call.qualified = s;
        for (std::size_t k = i; k >= 2 && m_.at(k - 1) == "::"; k -= 2) {
          if (!m_.ident(k - 2)) break;
          call.qualified = m_.at(k - 2) + "::" + call.qualified;
        }
        // `x.name(` or `x->name(` ("->" is two punctuation tokens).
        if (i >= 2 && m_.at(i - 1) == "." && m_.ident(i - 2)) {
          call.receiver = m_.at(i - 2);
        } else if (i >= 3 && m_.at(i - 1) == ">" && m_.at(i - 2) == "-" &&
                   m_.ident(i - 3)) {
          call.receiver = m_.at(i - 3);
        }
        fn.calls.push_back(std::move(call));
        ++i;
        continue;
      }
      ++i;
    }
  }

  // Records while / do / unbounded-for loops; returns the index just past
  // the loop header (the body is walked by the main loop so nested calls
  // and locks are still collected).
  std::size_t parse_loop(Function& fn, std::size_t i) {
    const std::string keyword = m_.at(i);
    std::size_t after_cond = i + 1;
    bool record = true;
    if (keyword == "do") {
      if (m_.at(i + 1) != "{") return i + 1;  // `do` identifier elsewhere
    } else {
      if (m_.at(i + 1) != "(") return i + 1;
      after_cond = m_.skip_balanced(i + 1, "(", ")");
      if (keyword == "while" && m_.at(after_cond) == ";") {
        return after_cond + 1;  // do-while tail; the `do` recorded the loop
      }
      if (keyword == "for") {
        // Unbounded only: `for (init; ; step)` — an empty condition between
        // the two top-level semicolons.
        int depth = 0, semis = 0;
        bool cond_empty = true;
        for (std::size_t k = i + 1; k + 1 < after_cond; ++k) {
          const std::string& u = m_.at(k);
          if (u == "(") ++depth;
          if (u == ")") --depth;
          if (depth != 1) continue;
          if (u == ";") {
            ++semis;
            continue;
          }
          if (semis == 1) cond_empty = false;
        }
        record = (semis == 2 && cond_empty);
      }
    }
    // Body span: a block, or a single statement.
    std::size_t body_start = keyword == "do" ? i + 1 : after_cond;
    std::size_t body_close;
    if (m_.at(body_start) == "{") {
      body_close = m_.skip_balanced(body_start, "{", "}");
    } else {
      body_close = m_.skip_to_semicolon(body_start);
    }
    if (record) {
      LoopSite loop;
      loop.span_begin = m_.t[i].pos;
      loop.span_end = body_close - 1 < m_.size()
                          ? m_.t[body_close - 1].pos + m_.at(body_close - 1).size()
                          : text_size();
      loop.line = m_.t[i].line;
      loop.keyword = keyword;
      fn.loops.push_back(std::move(loop));
    }
    return keyword == "do" ? body_start : after_cond;
  }

  std::size_t parse_lock(Function& fn, std::size_t i,
                         const std::vector<std::size_t>& brace_stack) {
    std::size_t j = i + 1;
    if (m_.at(j) == "<") j = m_.skip_angles(j);
    if (!m_.ident(j)) return i + 1;  // e.g. a type mention without a variable
    ++j;                             // the guard variable name
    if (m_.at(j) != "(" && m_.at(j) != "{") return i + 1;
    const std::string open = m_.at(j);
    const std::string close = open == "(" ? ")" : "}";
    const std::size_t args_end = m_.skip_balanced(j, open.c_str(), close.c_str());
    // The enclosing lexical scope pins the guard's lifetime.
    std::size_t scope_end = fn.body_end;
    if (!brace_stack.empty()) {
      const std::size_t open_tok = brace_stack.back();
      const std::size_t close_tok = m_.skip_balanced(open_tok, "{", "}");
      if (close_tok - 1 < m_.size()) scope_end = m_.t[close_tok - 1].pos;
    }
    // One LockSite per top-level argument (std::scoped_lock takes several).
    std::string arg;
    int depth = 0;
    auto flush = [&](std::size_t /*at*/) {
      const std::string mutex = normalize_mutex(arg);
      if (!mutex.empty() && mutex != "std::adopt_lock" &&
          mutex != "std::defer_lock" && mutex != "std::try_to_lock") {
        LockSite lock;
        lock.mutex = mutex;
        lock.pos = m_.t[i].pos;
        lock.scope_end = scope_end;
        lock.line = m_.t[i].line;
        fn.locks.push_back(std::move(lock));
      }
      arg.clear();
    };
    for (std::size_t k = j + 1; k + 1 < args_end; ++k) {
      const std::string& u = m_.at(k);
      if (u == "(" || u == "[" || u == "{") ++depth;
      if (u == ")" || u == "]" || u == "}") --depth;
      if (u == "," && depth == 0) {
        flush(k);
        continue;
      }
      arg += u;
    }
    flush(args_end);
    return args_end;
  }
};

// --- regex site collection ---------------------------------------------

struct SourcePattern {
  std::regex re;
  std::string category;
};

const std::vector<SourcePattern>& source_patterns() {
  static const std::vector<SourcePattern> kPatterns = [] {
    std::vector<SourcePattern> p;
    auto add = [&p](const char* re, const char* cat) {
      p.push_back({std::regex(re), cat});
    };
    add(R"(\b(?:system_clock|steady_clock|high_resolution_clock)\b)", "clock");
    add(R"(\b[A-Za-z_]\w*::now\s*\()", "clock");
    add(R"(\btime\s*\()", "clock");
    add(R"(\b(?:clock_gettime|gettimeofday|localtime|gmtime)\s*\()", "clock");
    add(R"(\b(?:rand|srand|getrandom)\s*\()", "random");
    add(R"(\brandom_device\b)", "random");
    add(R"(\bmt19937\w*\b)", "random");
    add(R"(\b(?:getenv|secure_getenv)\s*\()", "env");
    add(R"(\bsetlocale\s*\()", "locale");
    add(R"(\bstd::locale\b)", "locale");
    return p;
  }();
  return kPatterns;
}

void collect_sources(const std::string& text, Function& fn) {
  const std::string body =
      text.substr(fn.body_begin, fn.body_end - fn.body_begin);
  for (const SourcePattern& sp : source_patterns()) {
    for (std::sregex_iterator it(body.begin(), body.end(), sp.re), end;
         it != end; ++it) {
      SourceSite site;
      site.token = it->str();
      while (!site.token.empty() &&
             (site.token.back() == '(' ||
              std::isspace(static_cast<unsigned char>(site.token.back())) !=
                  0)) {
        site.token.pop_back();
      }
      site.category = sp.category;
      site.pos = fn.body_begin + static_cast<std::size_t>(it->position());
      site.line = line_at(text, site.pos);
      fn.sources.push_back(std::move(site));
    }
  }
  std::sort(fn.sources.begin(), fn.sources.end(),
            [](const SourceSite& a, const SourceSite& b) {
              return a.pos < b.pos;
            });
}

// Extracts `// ldlb: guarded_by(<mutex>)` annotations. The grammar
// mirrors the suppression comments: trailing the field declaration or on
// the comment line directly above it.
void collect_guarded_fields(FileModel& file,
                            std::vector<srcmodel::Diagnostic>& meta) {
  static const std::regex kGuard(
      R"(ldlb:\s*guarded_by\(\s*([A-Za-z0-9_:.&>\-]+)\s*\))");
  static const std::regex kMarker(R"(guarded_by)");
  static const std::regex kField(R"(([A-Za-z_]\w*)\s*[;={(])");

  std::vector<std::size_t> starts{0};
  const std::string& text = file.stripped.text;
  for (std::size_t k = 0; k < text.size(); ++k) {
    if (text[k] == '\n') starts.push_back(k + 1);
  }
  auto line_text = [&](int ln) -> std::string {
    if (ln < 1 || ln > static_cast<int>(starts.size())) return {};
    const std::size_t from = starts[static_cast<std::size_t>(ln - 1)];
    const std::size_t to = ln < static_cast<int>(starts.size())
                               ? starts[static_cast<std::size_t>(ln)]
                               : text.size();
    return text.substr(from, to - from);
  };
  auto has_code = [&](int ln) {
    const std::string t = line_text(ln);
    return std::any_of(t.begin(), t.end(), [](char c) {
      return std::isspace(static_cast<unsigned char>(c)) == 0;
    });
  };

  for (const srcmodel::Comment& comment : file.stripped.comments) {
    if (!std::regex_search(comment.text, kMarker)) continue;
    std::smatch m;
    if (!std::regex_search(comment.text, m, kGuard)) {
      meta.push_back({file.path, comment.line, "bad-annotation",
                      "malformed guarded_by annotation; expected "
                      "'ldlb: guarded_by(<mutex>)'"});
      continue;
    }
    int target = 0;
    if (comment.code_before) {
      target = comment.line;
    } else {
      for (int ln = comment.line + 1; ln <= static_cast<int>(starts.size());
           ++ln) {
        if (has_code(ln)) {
          target = ln;
          break;
        }
      }
    }
    std::smatch fm;
    const std::string decl = line_text(target);
    if (target == 0 || !std::regex_search(decl, fm, kField)) {
      meta.push_back({file.path, comment.line, "bad-annotation",
                      "guarded_by(" + m[1].str() +
                          ") has no field declaration to attach to"});
      continue;
    }
    GuardedField gf;
    gf.field = fm[1].str();
    gf.mutex = normalize_mutex(m[1].str());
    gf.line = target;
    file.guarded_fields.push_back(std::move(gf));
  }
}

std::string module_of(const std::string& rel_path) {
  static const std::string kPrefix = "src/ldlb/";
  std::string sub = rel_path;
  if (sub.rfind(kPrefix, 0) == 0) sub = sub.substr(kPrefix.size());
  const std::size_t slash = sub.find('/');
  return slash == std::string::npos ? std::string("(top)")
                                    : sub.substr(0, slash);
}

void collect_includes(FileModel& file, const std::string& original) {
  // The stripper blanks the include *path* (it is a string literal), so
  // the directive is detected in the stripped text and the path read from
  // the original line — a commented-out #include never counts.
  static const std::regex kDirective(R"(^\s*#\s*include\s*\")");
  static const std::regex kPath(R"(#\s*include\s*\"([^\"]+)\")");
  std::istringstream stripped_lines(file.stripped.text);
  std::istringstream original_lines(original);
  std::string sline, oline;
  int line_no = 0;
  while (std::getline(stripped_lines, sline)) {
    std::getline(original_lines, oline);
    ++line_no;
    if (!std::regex_search(sline, kDirective)) continue;
    std::smatch m;
    if (!std::regex_search(oline, m, kPath)) continue;
    std::string target = m[1].str();
    if (target.rfind("ldlb/", 0) == 0) {
      target = "src/" + target;
    } else if (target.find('/') == std::string::npos) {
      // Same-directory relative include.
      const std::size_t slash = file.path.find_last_of('/');
      if (slash != std::string::npos) {
        target = file.path.substr(0, slash + 1) + target;
      }
    }
    file.includes.push_back({std::move(target), line_no});
  }
}

}  // namespace

int line_at(const std::string& text, std::size_t pos) {
  pos = std::min(pos, text.size());
  return 1 + static_cast<int>(
                 std::count(text.begin(),
                            text.begin() + static_cast<std::ptrdiff_t>(pos),
                            '\n'));
}

std::string normalize_mutex(std::string name) {
  std::string out;
  for (char c : name) {
    if (std::isspace(static_cast<unsigned char>(c)) == 0) out += c;
  }
  if (!out.empty() && out.front() == '&') out.erase(0, 1);
  if (out.rfind("this->", 0) == 0) out.erase(0, 6);
  if (out.rfind("this.", 0) == 0) out.erase(0, 5);
  return out;
}

FileModel index_file(const std::string& rel_path, const std::string& content,
                     std::vector<srcmodel::Diagnostic>& meta) {
  FileModel file;
  file.path = rel_path;
  file.module = module_of(rel_path);
  file.stripped = srcmodel::strip_source(content);
  file.annotations = srcmodel::parse_allow_annotations(
      file.stripped, rel_path, "ldlb-analyze", pass_names(), meta);
  collect_includes(file, content);
  collect_guarded_fields(file, meta);

  const std::vector<Token> tokens = tokenize(file.stripped.text);
  Indexer indexer(file, tokens);
  indexer.run();
  for (Function& fn : file.functions) {
    collect_sources(file.stripped.text, fn);
  }
  return file;
}

SourceModel build_model(const std::filesystem::path& root,
                        const std::vector<std::string>& rel_paths) {
  SourceModel model;
  for (const std::string& rel : rel_paths) {
    model.files.push_back(
        index_file(rel, srcmodel::read_file(root / rel), model.meta));
  }
  for (int f = 0; f < static_cast<int>(model.files.size()); ++f) {
    const FileModel& file = model.files[static_cast<std::size_t>(f)];
    for (int i = 0; i < static_cast<int>(file.functions.size()); ++i) {
      model.by_name[file.functions[static_cast<std::size_t>(i)].name]
          .push_back({f, i});
    }
  }
  return model;
}

}  // namespace ldlb::analyze
