// stgcc -- minimal PNML (Petri Net Markup Language) interchange.
//
// Writes and reads the standard place/transition subset of PNML
// (http://www.pnml.org): <place> with <initialMarking>, <transition>,
// <arc source target>, names as <name><text>.  Enough to move the nets
// underlying STGs between this library and mainstream Petri-net tools.
// The reader accepts exactly the subset the writer produces plus
// whitespace/attribute-order variations; it is not a general XML parser.
// Everything that would change the net's behaviour and that the ordinary,
// safe-by-construction substrate cannot represent -- arc weights other
// than 1, non-normal arc types, place capacities, high-level (coloured)
// annotations, reference nodes, several nets in one file -- is rejected with a ModelError instead of being dropped.
// Layout-only elements (<graphics>, <toolspecific>, pages) are ignored.
#pragma once

#include <iosfwd>
#include <string>

#include "petri/net_system.hpp"

namespace stgcc::petri {

void write_pnml(std::ostream& out, const NetSystem& sys,
                const std::string& net_id = "net1");
[[nodiscard]] std::string write_pnml_string(const NetSystem& sys);

[[nodiscard]] NetSystem parse_pnml(std::istream& in);
[[nodiscard]] NetSystem parse_pnml_string(const std::string& text);

void save_pnml_file(const std::string& path, const NetSystem& sys);
[[nodiscard]] NetSystem load_pnml_file(const std::string& path);

}  // namespace stgcc::petri
