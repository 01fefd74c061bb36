// Append-only encoder for the line-oriented text formats.
//
// Every writer of the certificate, graph and certificate-log formats
// renders through TextAppender. Integers go through std::to_chars into a
// small staging buffer that is flushed into the output string a few
// hundred bytes at a time, so an edge line costs a handful of pointer
// bumps, not one out-of-line string append per field. There is no ostream,
// locale or intermediate copy on the way. The appender owns the text until
// take() hands it out, so no second writer can interleave with the staged
// bytes. One encoder per record kind, shared by all of its entry points,
// keeps their bytes from drifting apart.
#pragma once

#include <charconv>
#include <cstddef>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>

namespace ldlb {

class TextAppender {
 public:
  /// Starts an empty text with room for `expected_bytes`: an upper bound
  /// on the output lets the whole encode run without a reallocation.
  explicit TextAppender(std::size_t expected_bytes = 0) {
    text_.reserve(expected_bytes);
  }
  TextAppender(const TextAppender&) = delete;
  TextAppender& operator=(const TextAppender&) = delete;

  TextAppender& operator<<(std::string_view text) {
    if (text.size() > kStage - used_) {
      flush();
      if (text.size() > kStage) {
        text_.append(text);
        return *this;
      }
    }
    std::memcpy(stage_ + used_, text.data(), text.size());
    used_ += text.size();
    return *this;
  }

  TextAppender& operator<<(char ch) {
    if (used_ == kStage) flush();
    stage_[used_++] = ch;
    return *this;
  }

  /// Integers in plain decimal, exactly as `std::ostream <<` renders them.
  template <typename Int,
            std::enable_if_t<std::is_integral_v<Int> &&
                                 !std::is_same_v<Int, char> &&
                                 !std::is_same_v<Int, bool>,
                             int> = 0>
  TextAppender& operator<<(Int value) {
    if (kStage - used_ < kMaxIntChars) flush();
    used_ = static_cast<std::size_t>(
        std::to_chars(stage_ + used_, stage_ + kStage, value).ptr - stage_);
    return *this;
  }

  /// The text written so far; the appender is left empty.
  [[nodiscard]] std::string take() {
    flush();
    std::string out = std::move(text_);
    text_.clear();
    return out;
  }

 private:
  static constexpr std::size_t kStage = 512;
  // The widest 64-bit integer: a sign and 19 digits, or 20 digits.
  static constexpr std::size_t kMaxIntChars = 20;

  void flush() {
    text_.append(stage_, used_);
    used_ = 0;
  }

  std::string text_;
  char stage_[kStage] = {};
  std::size_t used_ = 0;
};

}  // namespace ldlb
