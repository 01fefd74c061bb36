// Line-tracking tokenizer for the text parsers (graph_io, certificate_io).
//
// The formats are line-oriented; reading through LineReader lets a parser
// attribute every defect to a 1-based line number and the offending token,
// which ParseError then carries to the caller. Tokens are separated by the
// C-locale whitespace set (space, \t, \n, \v, \f, \r — so CRLF input reads
// like LF input) and never span lines.
//
// A reader over a string_view tokenizes the buffer in place: token() hands
// out views into it and integer() parses them with std::from_chars, so a
// multi-megabyte certificate is read without a single per-token copy. A
// reader over a std::istream pulls one getline at a time into a reused
// buffer and never reads past the line holding its last token, so several
// objects can share one stream.
#pragma once

#include <charconv>
#include <cstddef>
#include <istream>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>

#include "ldlb/util/error.hpp"

namespace ldlb {

class LineReader {
 public:
  /// Tokenizes `text` in place; it must outlive the reader and every token
  /// the reader hands out.
  explicit LineReader(std::string_view text)
      : text_begin_(text.data()), text_end_(text.data() + text.size()) {}
  /// A temporary would dangle under the in-place tokenizer.
  explicit LineReader(std::string&&) = delete;
  explicit LineReader(std::istream& is) : is_(&is) {}

  /// Next token; `what` names the expected item for the error message when
  /// the input ends instead. The view stays valid until the next token is
  /// read (for an in-place reader: as long as the text).
  std::string_view token(const char* what) {
    if (has_pushed_back_) {
      has_pushed_back_ = false;
      return pushed_back_;
    }
    while (!skip_space()) {
      if (!next_chunk()) {
        fail(std::string("unexpected end of input — expected ") + what);
      }
    }
    const char* begin = cur_;
    while (cur_ != chunk_end_ && !is_space(*cur_)) ++cur_;
    return {begin, static_cast<std::size_t>(cur_ - begin)};
  }

  /// Next token parsed as an integer in [lo, hi]. Accepts what strtoll
  /// accepts in base 10 (an optional sign, '+' included); a value beyond
  /// the int64 range is reported clamped, as strtoll clamps it.
  long long integer(const char* what, long long lo, long long hi) {
    // Fast path: a token of at most 18 plain digits cannot overflow, so it
    // is parsed in the same pass that finds its end.
    if (!has_pushed_back_ && skip_space()) {
      const char* begin = cur_;
      const char* stop = chunk_end_ - begin > 18 ? begin + 18 : chunk_end_;
      const char* p = begin;
      long long value = 0;
      while (p != stop && *p >= '0' && *p <= '9') {
        value = value * 10 + (*p++ - '0');
      }
      if (p != begin && (p == chunk_end_ || is_space(*p))) {
        cur_ = p;
        return in_range(value, what, lo, hi,
                        {begin, static_cast<std::size_t>(p - begin)});
      }
    }
    const std::string_view tok = token(what);
    const char* first = tok.data();
    const char* last = first + tok.size();
    // from_chars takes '-' but not '+': strip a '+' that a digit follows.
    if (first != last && *first == '+' && last - first > 1 &&
        first[1] != '-') {
      ++first;
    }
    long long value = 0;
    const auto [end, ec] = std::from_chars(first, last, value);
    if (ec == std::errc::invalid_argument || end != last) {
      fail(std::string("expected integer ") + what, tok);
    }
    if (ec == std::errc::result_out_of_range) {
      value = *first == '-' ? std::numeric_limits<long long>::min()
                            : std::numeric_limits<long long>::max();
    }
    return in_range(value, what, lo, hi, tok);
  }

  /// Consumes the next token and requires it to equal `expected`.
  void expect(std::string_view expected, const char* what) {
    const std::string_view tok = token(what);
    if (tok != expected) {
      fail("expected '" + std::string(expected) + "' (" + what + ")", tok);
    }
  }

  /// Returns a token to the reader; the next token() call yields it again.
  /// At most one token can be pushed back at a time (parsers use this for
  /// one-token lookahead, e.g. 'level' vs 'end'), and it must be the token
  /// most recently read, so the view is still valid.
  void push_back(std::string_view tok) {
    LDLB_REQUIRE_MSG(!has_pushed_back_,
                     "LineReader holds at most one pushed-back token");
    pushed_back_ = tok;
    has_pushed_back_ = true;
  }

  /// True when only whitespace remains. A probed token is pushed back and
  /// returned by the next token() call.
  bool at_end() {
    if (has_pushed_back_) return false;
    while (!skip_space()) {
      if (!next_chunk()) return true;
    }
    push_back(token("?"));
    return false;
  }

  /// Upper bound on how many `min_bytes`-byte records the unread input can
  /// still hold, given that consecutive records need a separator byte the
  /// last one may omit — what a parser may reserve for a declared count
  /// without letting a hostile header force a huge allocation. A stream
  /// reader knows only its current line.
  [[nodiscard]] std::size_t records_left(std::size_t min_bytes) const {
    return (static_cast<std::size_t>(chunk_end_ - cur_) + 1) / (min_bytes + 1);
  }

  /// Line of the most recently read token (1-based; 0 before any read).
  [[nodiscard]] int line() const { return line_; }

  /// Throws ParseError anchored at the current line.
  [[noreturn]] void fail(const std::string& msg,
                         std::string_view tok = {}) const {
    std::string what = "line " + std::to_string(line_) + ": " + msg;
    if (!tok.empty()) {
      what += ", got '";
      what += tok;
      what += "'";
    }
    throw ParseError(what, line_, std::string(tok));
  }

 private:
  long long in_range(long long value, const char* what, long long lo,
                     long long hi, std::string_view tok) const {
    if (value < lo || value > hi) {
      fail(std::string(what) + " " + std::to_string(value) + " out of range [" +
               std::to_string(lo) + ", " + std::to_string(hi) + "]",
           tok);
    }
    return value;
  }

  static bool is_space(char ch) {
    return ch == ' ' || (ch >= '\t' && ch <= '\r');
  }

  // Skips whitespace in the current chunk; false when the chunk is used up.
  // An in-place reader's chunk is the whole text, so the line count rises
  // at each '\n' that more bytes follow — exactly where getline would have
  // fetched another line.
  bool skip_space() {
    while (cur_ != chunk_end_ && is_space(*cur_)) {
      if (*cur_ == '\n' && cur_ + 1 != chunk_end_) ++line_;
      ++cur_;
    }
    return cur_ != chunk_end_;
  }

  // Makes the next chunk current: the next getline of a stream reader (which
  // never holds a '\n'), or the whole text of an in-place reader, once.
  bool next_chunk() {
    if (is_ != nullptr) {
      if (!std::getline(*is_, buf_)) return false;
      cur_ = buf_.data();
      chunk_end_ = cur_ + buf_.size();
    } else {
      if (text_begin_ == text_end_) return false;
      cur_ = text_begin_;
      chunk_end_ = text_end_;
      text_begin_ = text_end_;
    }
    ++line_;
    return true;
  }

  std::istream* is_ = nullptr;  ///< stream source; null for in-place text
  std::string buf_;             ///< the current line of a stream source
  const char* text_begin_ = nullptr;  ///< in-place text not yet made current
  const char* text_end_ = nullptr;
  const char* cur_ = nullptr;  ///< next unread byte of the current chunk
  const char* chunk_end_ = nullptr;
  std::string_view pushed_back_;
  bool has_pushed_back_ = false;
  int line_ = 0;
};

}  // namespace ldlb
