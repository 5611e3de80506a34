#include "petri/pnml.hpp"

#include <fstream>
#include <map>
#include <sstream>
#include <vector>

#include "util/decimal.hpp"

namespace stgcc::petri {

namespace {

std::string xml_escape(const std::string& s) {
    std::string out;
    for (char c : s) {
        switch (c) {
            case '<': out += "&lt;"; break;
            case '>': out += "&gt;"; break;
            case '&': out += "&amp;"; break;
            case '"': out += "&quot;"; break;
            default: out += c;
        }
    }
    return out;
}

std::string xml_unescape(const std::string& s) {
    std::string out;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '&') {
            out += s[i];
            continue;
        }
        const auto end = s.find(';', i);
        if (end == std::string::npos) throw ModelError("pnml: bad entity");
        const std::string ent = s.substr(i + 1, end - i - 1);
        if (ent == "lt") out += '<';
        else if (ent == "gt") out += '>';
        else if (ent == "amp") out += '&';
        else if (ent == "quot") out += '"';
        else throw ModelError("pnml: unknown entity &" + ent + ";");
        i = end;
    }
    return out;
}

/// A minimal pull scanner over the PNML subset: yields tags with their
/// attributes and detects self-closing / closing forms.
struct Tag {
    std::string name;
    std::map<std::string, std::string> attrs;
    bool closing = false;       // </name>
    bool self_closing = false;  // <name ... />
    std::string following_text; // text up to the next '<'
};

class Scanner {
public:
    explicit Scanner(const std::string& text) : text_(text) {}

    std::optional<Tag> next() {
        const auto open = text_.find('<', pos_);
        if (open == std::string::npos) return std::nullopt;
        const auto close = text_.find('>', open);
        if (close == std::string::npos) throw ModelError("pnml: unterminated tag");
        std::string body = text_.substr(open + 1, close - open - 1);
        pos_ = close + 1;
        Tag tag;
        if (!body.empty() && body[0] == '?') {  // <?xml ...?>
            tag.name = "?";
            return tag;
        }
        if (!body.empty() && body[0] == '/') {
            tag.closing = true;
            body = body.substr(1);
        }
        if (!body.empty() && body.back() == '/') {
            tag.self_closing = true;
            body.pop_back();
        }
        // name then attributes key="value"
        std::istringstream in(body);
        in >> tag.name;
        std::string rest;
        std::getline(in, rest);
        std::size_t i = 0;
        while (i < rest.size()) {
            while (i < rest.size() && std::isspace((unsigned char)rest[i])) ++i;
            if (i >= rest.size()) break;
            const auto eq = rest.find('=', i);
            if (eq == std::string::npos)
                throw ModelError("pnml: malformed attribute in <" + tag.name + ">");
            std::string key = rest.substr(i, eq - i);
            while (!key.empty() && std::isspace((unsigned char)key.back()))
                key.pop_back();
            const auto q1 = rest.find('"', eq);
            const auto q2 = q1 == std::string::npos ? std::string::npos
                                                    : rest.find('"', q1 + 1);
            if (q2 == std::string::npos)
                throw ModelError("pnml: unterminated attribute value");
            tag.attrs[key] = xml_unescape(rest.substr(q1 + 1, q2 - q1 - 1));
            i = q2 + 1;
        }
        // capture text content until next '<'
        const auto next_open = text_.find('<', pos_);
        tag.following_text = xml_unescape(text_.substr(
            pos_, (next_open == std::string::npos ? text_.size() : next_open) -
                      pos_));
        return tag;
    }

private:
    const std::string& text_;
    std::size_t pos_ = 0;
};

std::string trim(const std::string& s) {
    std::size_t a = 0, b = s.size();
    while (a < b && std::isspace((unsigned char)s[a])) ++a;
    while (b > a && std::isspace((unsigned char)s[b - 1])) --b;
    return s.substr(a, b - a);
}

std::uint32_t parse_count(const std::string& value, const char* what) {
    if (const auto n = util::parse_decimal(value, UINT32_MAX))
        return static_cast<std::uint32_t>(*n);
    throw ModelError(std::string("pnml: bad ") + what + " '" + value + "'");
}

/// Why `tag` carries semantics the ordinary P/T substrate cannot represent
/// (nullptr when it does not): rejecting beats verifying a different net.
const char* unsupported(const Tag& tag) {
    const std::string& n = tag.name;
    if (n == "hlinitialMarking" || n == "hlinscription" || n == "condition" ||
        n == "declaration" || n == "structure")
        return "high-level (coloured) net annotations are not supported";
    if (n == "referencePlace" || n == "referenceTransition")
        return "reference nodes are not supported";
    // Inhibitor / reset / read arcs: an arc "type" attribute, or a
    // <type value="..."/> child.
    const auto type = tag.attrs.find(n == "type" ? "value" : "type");
    if ((n == "arc" || n == "type") && type != tag.attrs.end() &&
        type->second != "normal")
        return "only normal arcs are supported";
    return nullptr;
}

}  // namespace

void write_pnml(std::ostream& out, const NetSystem& sys, const std::string& net_id) {
    const Net& net = sys.net();
    out << "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
        << "<pnml xmlns=\"http://www.pnml.org/version-2009/grammar/pnml\">\n"
        << "  <net id=\"" << xml_escape(net_id)
        << "\" type=\"http://www.pnml.org/version-2009/grammar/ptnet\">\n"
        << "    <page id=\"page0\">\n";
    for (PlaceId p = 0; p < net.num_places(); ++p) {
        out << "      <place id=\"p" << p << "\">\n"
            << "        <name><text>" << xml_escape(net.place_name(p))
            << "</text></name>\n";
        if (sys.initial_marking()[p] > 0)
            out << "        <initialMarking><text>" << sys.initial_marking()[p]
                << "</text></initialMarking>\n";
        out << "      </place>\n";
    }
    for (TransitionId t = 0; t < net.num_transitions(); ++t)
        out << "      <transition id=\"t" << t << "\">\n"
            << "        <name><text>" << xml_escape(net.transition_name(t))
            << "</text></name>\n"
            << "      </transition>\n";
    std::size_t arc = 0;
    for (TransitionId t = 0; t < net.num_transitions(); ++t) {
        for (PlaceId p : net.pre(t))
            out << "      <arc id=\"a" << arc++ << "\" source=\"p" << p
                << "\" target=\"t" << t << "\"/>\n";
        for (PlaceId p : net.post(t))
            out << "      <arc id=\"a" << arc++ << "\" source=\"t" << t
                << "\" target=\"p" << p << "\"/>\n";
    }
    out << "    </page>\n  </net>\n</pnml>\n";
}

std::string write_pnml_string(const NetSystem& sys) {
    std::ostringstream out;
    write_pnml(out, sys);
    return out.str();
}

NetSystem parse_pnml(std::istream& in) {
    std::stringstream buffer;
    buffer << in.rdbuf();
    const std::string text = buffer.str();
    Scanner scanner(text);

    Net net;
    std::map<std::string, PlaceId> places;
    std::map<std::string, TransitionId> transitions;
    std::map<std::string, std::uint32_t> marking;  // by pnml id
    struct Arc {
        std::string source, target;
    };
    std::vector<Arc> arcs;

    enum class In { None, Place, Transition, Name, InitialMarking, Inscription,
                    Capacity };
    std::string current_id;
    bool current_is_place = false;
    std::string current_name;
    std::uint32_t current_marking = 0;
    In context = In::None;

    auto finish_node = [&]() {
        if (current_id.empty()) return;
        const std::string name =
            current_name.empty() ? current_id : current_name;
        if (places.count(current_id) || transitions.count(current_id))
            throw ModelError("pnml: duplicate node id '" + current_id + "'");
        if (net.find_place(name) != kNoPlace ||
            net.find_transition(name) != kNoTransition)
            throw ModelError("pnml: duplicate node name '" + name + "'");
        if (current_is_place) {
            const PlaceId p = net.add_place(name);
            places[current_id] = p;
            if (current_marking > 0) marking[current_id] = current_marking;
        } else {
            transitions[current_id] = net.add_transition(name);
        }
        current_id.clear();
        current_name.clear();
        current_marking = 0;
    };

    bool seen_net = false;
    while (auto tag = scanner.next()) {
        if (tag->name == "?" ) continue;
        if (const char* why = unsupported(*tag))
            throw ModelError("pnml: <" + tag->name + ">: " + why);
        if (tag->name == "net" && !tag->closing) {
            if (seen_net)
                throw ModelError("pnml: several <net> elements in one file "
                                 "are not supported");
            seen_net = true;
        } else if (tag->name == "place" && !tag->closing) {
            finish_node();
            current_id = tag->attrs.count("id") ? tag->attrs["id"] : "";
            if (current_id.empty()) throw ModelError("pnml: place without id");
            current_is_place = true;
            context = In::Place;
            if (tag->self_closing) finish_node();
        } else if (tag->name == "transition" && !tag->closing) {
            finish_node();
            current_id = tag->attrs.count("id") ? tag->attrs["id"] : "";
            if (current_id.empty())
                throw ModelError("pnml: transition without id");
            current_is_place = false;
            context = In::Transition;
            if (tag->self_closing) finish_node();
        } else if ((tag->name == "place" || tag->name == "transition") &&
                   tag->closing) {
            finish_node();
            context = In::None;
        } else if (tag->name == "arc" && !tag->closing) {
            finish_node();
            if (!tag->attrs.count("source") || !tag->attrs.count("target"))
                throw ModelError("pnml: arc without source/target");
            arcs.push_back(Arc{tag->attrs["source"], tag->attrs["target"]});
        } else if (tag->name == "inscription" && !tag->closing) {
            if (arcs.empty())
                throw ModelError("pnml: <inscription> outside an arc");
            context = In::Inscription;
        } else if (tag->name == "capacity" && !tag->closing) {
            context = In::Capacity;
        } else if (tag->name == "name" && !tag->closing) {
            if (context == In::Place || context == In::Transition)
                context = In::Name;
        } else if (tag->name == "initialMarking" && !tag->closing) {
            context = In::InitialMarking;
        } else if (tag->name == "text" && !tag->closing) {
            const std::string value = trim(tag->following_text);
            if (context == In::Name) {
                current_name = value;
            } else if (context == In::InitialMarking) {
                current_marking = parse_count(value, "initialMarking");
            } else if (context == In::Inscription &&
                       parse_count(value, "inscription") != 1) {
                const Arc& arc = arcs.back();
                throw ModelError("pnml: arc " + arc.source + " -> " +
                                 arc.target + " has weight " + value +
                                 "; only ordinary (weight-1) arcs are "
                                 "supported");
            } else if (context == In::Capacity &&
                       parse_count(value, "capacity") != 0) {
                throw ModelError("pnml: place '" + current_id +
                                 "' has capacity " + value +
                                 "; place capacities are not supported");
            }
        } else if ((tag->name == "name" || tag->name == "initialMarking" ||
                    tag->name == "inscription" || tag->name == "capacity") &&
                   tag->closing) {
            context = current_id.empty()
                          ? In::None
                          : (current_is_place ? In::Place : In::Transition);
        }
    }
    finish_node();

    for (const Arc& a : arcs) {
        const bool src_place = places.count(a.source) > 0;
        const bool tgt_place = places.count(a.target) > 0;
        if (src_place && transitions.count(a.target)) {
            if (net.has_arc_pt(places[a.source], transitions[a.target]))
                throw ModelError("pnml: duplicate arc " + a.source + " -> " +
                                 a.target);
            net.add_arc_pt(places[a.source], transitions[a.target]);
        } else if (transitions.count(a.source) && tgt_place) {
            if (net.has_arc_tp(transitions[a.source], places[a.target]))
                throw ModelError("pnml: duplicate arc " + a.source + " -> " +
                                 a.target);
            net.add_arc_tp(transitions[a.source], places[a.target]);
        } else {
            throw ModelError("pnml: arc endpoints unknown or same-kind: " +
                             a.source + " -> " + a.target);
        }
    }
    Marking m0(net.num_places());
    for (const auto& [id, count] : marking) m0.set(places.at(id), count);
    return NetSystem(std::move(net), std::move(m0));
}

NetSystem parse_pnml_string(const std::string& text) {
    std::istringstream in(text);
    return parse_pnml(in);
}

void save_pnml_file(const std::string& path, const NetSystem& sys) {
    std::ofstream out(path);
    if (!out) throw ModelError("cannot write PNML file: " + path);
    write_pnml(out, sys);
}

NetSystem load_pnml_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw ModelError("cannot open PNML file: " + path);
    return parse_pnml(in);
}

}  // namespace stgcc::petri
