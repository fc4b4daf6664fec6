// printf-style string formatting and joining helpers, plus the field
// reader and number writers the line-oriented text records (profile log,
// configuration record) are parsed and written with.

#ifndef COIGN_SRC_SUPPORT_STR_UTIL_H_
#define COIGN_SRC_SUPPORT_STR_UTIL_H_

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace coign {

// printf into a std::string.
std::string StrFormat(const char* format, ...) __attribute__((format(printf, 1, 2)));

std::string JoinStrings(const std::vector<std::string>& parts, std::string_view sep);

// Splits on a single-character separator; keeps empty fields.
std::vector<std::string> SplitString(std::string_view text, char sep);

bool StartsWith(std::string_view text, std::string_view prefix);

// Human-readable byte counts: "512 B", "4.0 KB", "3.2 MB".
std::string FormatBytes(uint64_t bytes);

// Parses exactly `digits` (<= 16) lowercase hex digits — the "%0Nx" fields
// the checksummed storage formats write. False on any other length or
// character.
bool ParseFixedHex(std::string_view hex, size_t digits, uint64_t* out);

// Parses a whole field as a base-10 integer or a finite double with
// std::from_chars. The number must fill the field: no leading or trailing
// characters, no '+', no '-' on an unsigned type, and no value out of the
// type's range. A double may not be inf or nan.
template <typename T>
bool ParseNumber(std::string_view field, T* out) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  const char* const end = field.data() + field.size();
  const std::from_chars_result parsed = std::from_chars(field.data(), end, *out);
  if (parsed.ec != std::errc() || parsed.ptr != end) {
    return false;
  }
  if constexpr (std::is_floating_point_v<T>) {
    return std::isfinite(*out);
  }
  return true;
}

// Parses "x:y:z", three numbers joined by ':' (ParseNumber rules for each).
template <typename A, typename B, typename C>
bool ParseColonTriple(std::string_view field, A* a, B* b, C* c) {
  const size_t first = field.find(':');
  if (first == std::string_view::npos) {
    return false;
  }
  const size_t second = field.find(':', first + 1);
  if (second == std::string_view::npos) {
    return false;
  }
  return ParseNumber(field.substr(0, first), a) &&
         ParseNumber(field.substr(first + 1, second - first - 1), b) &&
         ParseNumber(field.substr(second + 1), c);
}

// Walks a line-oriented text record over a string_view, without copies:
// lines end at '\n' (as std::getline splits them) and split into fields
// on runs of the "C" locale's isspace characters (as operator>> splits
// them).
class FieldReader {
 public:
  explicit FieldReader(std::string_view text) : unread_(text) {}

  // Moves to the next line: the bytes up to the next '\n', which is
  // consumed but not part of the line. False once no bytes are left.
  bool NextLine();
  std::string_view line() const { return line_; }
  // The text after the current line and its '\n'.
  std::string_view unread() const { return unread_; }

  // The next field of the current line; empty once none is left.
  std::string_view Field();
  // Reads the next field with ParseNumber.
  template <typename T>
  bool Number(T* out) {
    return ParseNumber(Field(), out);
  }
  // The unsplit rest of the current line after the last field read.
  std::string_view LineTail() const { return line_.substr(pos_); }
  // True when only field spaces are left on the current line.
  bool LineDone() { return Field().empty(); }

 private:
  std::string_view unread_;
  std::string_view line_;
  size_t pos_ = 0;
};

// StrAppend's pieces: characters and strings as they are, integers in
// decimal (as printf's %d/%u/%llu would write them).
inline void AppendPiece(std::string* out, char c) { out->push_back(c); }
inline void AppendPiece(std::string* out, std::string_view text) { out->append(text); }
template <typename T>
  requires(std::is_integral_v<T> && !std::is_same_v<T, bool> && !std::is_same_v<T, char>)
void AppendPiece(std::string* out, T value) {
  char buffer[24];
  const std::to_chars_result written = std::to_chars(buffer, buffer + sizeof(buffer), value);
  out->append(buffer, written.ptr);
}

// Appends each piece to `out` (see AppendPiece).
template <typename... Pieces>
void StrAppend(std::string* out, const Pieces&... pieces) {
  (AppendPiece(out, pieces), ...);
}

// Appends a double as printf's "%.9e" would: ten significant digits, an
// exponent of at least two digits.
void AppendScientific9(std::string* out, double value);

}  // namespace coign

#endif  // COIGN_SRC_SUPPORT_STR_UTIL_H_
