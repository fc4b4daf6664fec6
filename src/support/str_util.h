// printf-style string formatting and joining helpers.

#ifndef COIGN_SRC_SUPPORT_STR_UTIL_H_
#define COIGN_SRC_SUPPORT_STR_UTIL_H_

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
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

// True when every extraction from `fields` succeeded and only whitespace
// remains: a text record line carried exactly the fields it should.
bool FieldsConsumed(std::istream& fields);

}  // namespace coign

#endif  // COIGN_SRC_SUPPORT_STR_UTIL_H_
