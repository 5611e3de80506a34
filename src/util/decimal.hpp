// stgcc -- strict parsing of unsigned decimal counts.
//
// Every count read from outside the program (a CLI flag value, a token
// count in a .g file, a PNML marking or inscription) goes through
// parse_decimal, so a sign, a trailing character or a value that does not
// fit is rejected instead of wrapping, saturating or being cut short.
#pragma once

#include <charconv>
#include <cstdint>
#include <optional>
#include <string_view>

namespace stgcc::util {

/// A whole unsigned decimal: one or more digits spanning all of `text`, at
/// most `max`.  nullopt for anything else (empty, a sign, a space, a
/// trailing character, a value above `max` or beyond 64 bits).
[[nodiscard]] inline std::optional<std::uint64_t> parse_decimal(
    std::string_view text, std::uint64_t max = UINT64_MAX) {
    // from_chars takes no sign, space or empty string for an unsigned type
    // and reports overflow instead of wrapping or saturating.
    std::uint64_t value = 0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value > max) return std::nullopt;
    return value;
}

}  // namespace stgcc::util
