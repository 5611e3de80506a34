// stgcc -- reader/writer for the ASTG `.g` interchange format used by
// petrify, punf, mpsat and the rest of the asynchronous-synthesis toolchain.
//
// Supported directives: .model .name .inputs .outputs .internal .dummy
// .graph .marking .capacity (parsed and validated) .end, `#` comments,
// implicit `<t1,t2>` places and `/k` transition instance suffixes.
#pragma once

#include <iosfwd>
#include <string>

#include "stg/stg.hpp"

namespace stgcc::stg {

/// Parse an STG from ASTG text.  Throws ModelError with a line number on
/// malformed input.
[[nodiscard]] Stg parse_astg(std::istream& in);
[[nodiscard]] Stg parse_astg_string(const std::string& text);

/// Load an STG from a .g file.
[[nodiscard]] Stg load_astg_file(const std::string& path);

/// Serialise an STG to ASTG text.  Implicit places (one producer, one
/// consumer) are collapsed to direct transition->transition arcs.
void write_astg(std::ostream& out, const Stg& stg);
[[nodiscard]] std::string write_astg_string(const Stg& stg);

}  // namespace stgcc::stg
