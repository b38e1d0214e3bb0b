#include "io/number.hpp"

#include <charconv>
#include <version>

#if !(defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L)
#include <locale>
#include <sstream>
#include <string>
#endif

namespace dagmap {

std::optional<double> parse_double_strict(std::string_view token) {
  // `std::from_chars` does not accept a leading '+'; GENLIB files in
  // the wild use it.
  if (!token.empty() && token.front() == '+') token.remove_prefix(1);
  if (token.empty()) return std::nullopt;
#if defined(__cpp_lib_to_chars) && __cpp_lib_to_chars >= 201611L
  double value = 0.0;
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
#else
  // Fallback for standard libraries without floating-point from_chars:
  // a stream pinned to the classic locale is immune to both
  // `setlocale` and `std::locale::global`.
  std::istringstream in{std::string(token)};
  in.imbue(std::locale::classic());
  double value = 0.0;
  in >> value;
  if (!in || in.peek() != std::char_traits<char>::eof()) return std::nullopt;
  return value;
#endif
}

std::optional<unsigned> parse_unsigned_strict(std::string_view token) {
  // Unlike std::stoul, from_chars never skips whitespace and rejects a
  // '-' for unsigned types, so "-1" cannot wrap to UINT_MAX.
  unsigned value = 0;
  const char* last = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

}  // namespace dagmap
