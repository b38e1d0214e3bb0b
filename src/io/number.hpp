// Strict numeric parsing for the text formats (GENLIB, BLIF) and the
// CLI's flag values.  `std::stod` delegates to the C library's `strtod`, which
// honors `setlocale(LC_NUMERIC, ...)` — under a comma-decimal locale
// (de_DE and friends) it stops at the '.' in "1.5" and silently returns
// 1.0, corrupting every delay and area in a parsed library.  This
// helper always parses the C-locale ('.') format, regardless of the C
// or C++ global locale.
#pragma once

#include <optional>
#include <string_view>

namespace dagmap {

/// Parses the *entire* token as a decimal floating-point number in the
/// C locale ("1", "-0.5", "1e3", an optional leading '+').  Returns
/// nullopt on trailing garbage, partial parses, or empty input.
std::optional<double> parse_double_strict(std::string_view token);

/// Parses the *entire* token as a decimal unsigned integer: digits only
/// (no sign, no whitespace).  Returns nullopt on a negative value,
/// trailing garbage, empty input, or a value beyond `unsigned`.
std::optional<unsigned> parse_unsigned_strict(std::string_view token);

}  // namespace dagmap
