#include "stg/astg.hpp"

#include <algorithm>
#include <fstream>
#include <optional>
#include <sstream>
#include <vector>

#include "stg/builder.hpp"
#include "util/decimal.hpp"

namespace stgcc::stg {

namespace {

[[noreturn]] void parse_fail(std::size_t line, const std::string& msg) {
    throw ModelError("astg parse error at line " + std::to_string(line) + ": " + msg);
}

/// A token or capacity count: a whole unsigned decimal that fits 32 bits.
std::uint32_t parse_count(const std::string& text, std::size_t line,
                          const char* what) {
    if (const auto n = util::parse_decimal(text, UINT32_MAX))
        return static_cast<std::uint32_t>(*n);
    parse_fail(line, std::string("bad ") + what + " '" + text + "'");
}

/// Split a line into whitespace-separated tokens, keeping `<a,b>` groups
/// (which may contain no spaces in practice, but we tolerate `< a , b >`).
std::vector<std::string> tokenize(const std::string& line, std::size_t lineno) {
    std::vector<std::string> tokens;
    std::size_t i = 0;
    while (i < line.size()) {
        if (std::isspace(static_cast<unsigned char>(line[i]))) {
            ++i;
            continue;
        }
        if (line[i] == '#') break;  // comment to end of line
        if (line[i] == '<') {
            const auto end = line.find('>', i);
            if (end == std::string::npos) parse_fail(lineno, "unterminated '<'");
            std::string tok = line.substr(i, end - i + 1);
            tok.erase(std::remove_if(tok.begin(), tok.end(),
                                     [](unsigned char c) { return std::isspace(c); }),
                      tok.end());
            tokens.push_back(std::move(tok));
            i = end + 1;
            // Allow a trailing =k token count glued to the group.
            if (i < line.size() && line[i] == '=') {
                const std::size_t start = i;
                while (i < line.size() &&
                       !std::isspace(static_cast<unsigned char>(line[i])))
                    ++i;
                tokens.back() += line.substr(start, i - start);
            }
            continue;
        }
        const std::size_t start = i;
        while (i < line.size() && !std::isspace(static_cast<unsigned char>(line[i])) &&
               line[i] != '#')
            ++i;
        tokens.push_back(line.substr(start, i - start));
    }
    return tokens;
}

/// Split an implicit-place token "<a,b>" into its two transition names.
std::pair<std::string, std::string> split_implicit(const std::string& tok,
                                                   std::size_t lineno) {
    const auto comma = tok.find(',');
    if (tok.size() < 5 || tok.front() != '<' || tok.back() != '>' ||
        comma == std::string::npos)
        parse_fail(lineno, "malformed implicit place token: " + tok);
    return {tok.substr(1, comma - 1), tok.substr(comma + 1, tok.size() - comma - 2)};
}

bool is_place_token(const std::string& tok, const Stg&, bool has_edge_chars) {
    // Heuristic per the ASTG convention: tokens ending in +/- (possibly with
    // /k) are transitions; everything else in the .graph section that is not
    // a declared dummy is a place.
    (void)has_edge_chars;
    return tok.find('+') == std::string::npos && tok.find('-') == std::string::npos;
}

}  // namespace

Stg parse_astg(std::istream& in) {
    std::optional<StgBuilder> builder;
    std::string model_name = "stg";
    std::vector<std::pair<std::string, SignalKind>> pending_signals;
    std::vector<std::string> pending_dummies;
    bool in_graph = false;
    bool saw_graph = false;
    bool saw_marking = false;
    bool saw_end = false;
    std::vector<std::string> declared_dummies;

    // Places are not declared in .g; remember every bare token we have seen
    // as a source/target so markings can reference them.
    auto ensure_builder = [&]() -> StgBuilder& {
        if (!builder) {
            builder.emplace(model_name);
            for (auto& [name, kind] : pending_signals) builder->signal(name, kind);
            for (auto& d : pending_dummies) builder->dummy(d);
        }
        return *builder;
    };

    std::string line;
    std::size_t lineno = 0;
    std::vector<std::vector<std::string>> graph_lines;
    std::vector<std::size_t> graph_linenos;
    std::vector<std::string> marking_tokens;
    std::size_t marking_lineno = 0;
    std::vector<std::pair<std::string, std::uint32_t>> capacities;

    while (std::getline(in, line)) {
        ++lineno;
        auto tokens = tokenize(line, lineno);
        if (tokens.empty()) continue;
        const std::string& head = tokens[0];
        if (head[0] == '.') {
            in_graph = false;
            if (head == ".model" || head == ".name") {
                if (tokens.size() >= 2) model_name = tokens[1];
            } else if (head == ".inputs" || head == ".outputs" ||
                       head == ".internal") {
                const SignalKind kind = head == ".inputs" ? SignalKind::Input
                                        : head == ".outputs" ? SignalKind::Output
                                                             : SignalKind::Internal;
                for (std::size_t i = 1; i < tokens.size(); ++i)
                    pending_signals.emplace_back(tokens[i], kind);
            } else if (head == ".dummy") {
                for (std::size_t i = 1; i < tokens.size(); ++i)
                    pending_dummies.push_back(tokens[i]);
            } else if (head == ".graph") {
                in_graph = true;
                saw_graph = true;
            } else if (head == ".marking") {
                saw_marking = true;
                marking_lineno = lineno;
                for (std::size_t i = 1; i < tokens.size(); ++i) {
                    std::string tok = tokens[i];
                    // Strip braces, tolerate "{a" / "b}" / "{" / "}".
                    std::erase(tok, '{');
                    std::erase(tok, '}');
                    if (!tok.empty()) marking_tokens.push_back(tok);
                }
            } else if (head == ".capacity") {
                for (std::size_t i = 1; i < tokens.size(); ++i) {
                    const auto eq = tokens[i].find('=');
                    if (eq == std::string::npos)
                        parse_fail(lineno, ".capacity entries must be place=k");
                    capacities.emplace_back(
                        tokens[i].substr(0, eq),
                        parse_count(tokens[i].substr(eq + 1), lineno, "capacity"));
                }
            } else if (head == ".end") {
                saw_end = true;
                break;
            } else {
                parse_fail(lineno, "unknown directive: " + head);
            }
            continue;
        }
        if (!in_graph) parse_fail(lineno, "node line outside .graph section");
        graph_lines.push_back(std::move(tokens));
        graph_linenos.push_back(lineno);
    }
    if (!saw_graph) parse_fail(lineno, "missing .graph section");
    if (!saw_end) parse_fail(lineno, "missing .end");

    StgBuilder& b = ensure_builder();

    // First pass: declare every place-looking token so arcs resolve them.
    Stg probe;  // unused; is_place_token ignores it
    std::vector<std::string> place_tokens;
    auto is_dummy_name = [&](const std::string& tok) {
        std::string base = tok;
        const auto slash = base.rfind('/');
        if (slash != std::string::npos) base = base.substr(0, slash);
        return std::find_if(pending_dummies.begin(), pending_dummies.end(),
                            [&](const std::string& d) { return d == base; }) !=
               pending_dummies.end();
    };
    for (std::size_t li = 0; li < graph_lines.size(); ++li) {
        for (const std::string& tok : graph_lines[li]) {
            if (tok.front() == '<') continue;  // implicit place reference
            if (!is_place_token(tok, probe, false)) continue;
            if (is_dummy_name(tok)) continue;
            if (std::find(place_tokens.begin(), place_tokens.end(), tok) ==
                place_tokens.end()) {
                place_tokens.push_back(tok);
                b.place(tok, 0);
            }
        }
    }

    // Second pass: arcs.  A graph line "src tgt1 tgt2 ..." adds arcs
    // src->tgt_i.  "<a,b>" as a source/target refers to the implicit place,
    // which is created by an a->b arc; we translate it accordingly.
    for (std::size_t li = 0; li < graph_lines.size(); ++li) {
        const auto& tokens = graph_lines[li];
        const std::size_t lno = graph_linenos[li];
        if (tokens.size() < 2)
            parse_fail(lno, "graph line needs a source and at least one target");
        if (tokens[0].front() == '<')
            parse_fail(lno, "implicit place cannot be a source node in .graph");
        for (std::size_t i = 1; i < tokens.size(); ++i) {
            if (tokens[i].front() == '<')
                parse_fail(lno, "implicit place cannot be a target node in .graph");
            b.arc(tokens[0], tokens[i]);
        }
    }

    // Marking.
    for (const std::string& tok : marking_tokens) {
        std::string name = tok;
        std::uint32_t count = 1;
        const auto eq = name.find('=');
        if (eq != std::string::npos && name.front() != '<') {
            count = parse_count(name.substr(eq + 1), marking_lineno, "token count");
            name = name.substr(0, eq);
        } else if (name.front() == '<') {
            const auto eq2 = name.find(">=");
            if (eq2 != std::string::npos) {
                count = parse_count(name.substr(eq2 + 2), marking_lineno,
                                    "token count");
                name = name.substr(0, eq2 + 1);
            }
        }
        if (name.front() == '<') {
            auto [from, to] = split_implicit(name, marking_lineno);
            b.token_between(from, to, count);
        } else {
            b.tokens(name, count);
        }
    }
    if (!saw_marking) parse_fail(lineno, "missing .marking section");
    (void)capacities;  // capacities are validated syntactically only

    return b.build();
}

Stg parse_astg_string(const std::string& text) {
    std::istringstream in(text);
    return parse_astg(in);
}

Stg load_astg_file(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw ModelError("cannot open ASTG file: " + path);
    Stg stg = parse_astg(in);
    return stg;
}

void write_astg(std::ostream& out, const Stg& stg) {
    const petri::Net& net = stg.net();
    out << ".model " << stg.name() << "\n";
    auto emit_signals = [&](const char* directive, SignalKind kind) {
        std::string line;
        for (SignalId z = 0; z < stg.num_signals(); ++z)
            if (stg.signal_kind(z) == kind) line += " " + stg.signal_name(z);
        if (!line.empty()) out << directive << line << "\n";
    };
    emit_signals(".inputs", SignalKind::Input);
    emit_signals(".outputs", SignalKind::Output);
    emit_signals(".internal", SignalKind::Internal);
    {
        std::string line;
        for (petri::TransitionId t = 0; t < net.num_transitions(); ++t)
            if (stg.is_dummy(t)) {
                // Dummy "signals" are the transition base names.
                std::string base = net.transition_name(t);
                const auto slash = base.rfind('/');
                if (slash != std::string::npos) base = base.substr(0, slash);
                if (line.find(" " + base) == std::string::npos) line += " " + base;
            }
        if (!line.empty()) out << ".dummy" << line << "\n";
    }

    // A place is collapsible when it has exactly one producer and one
    // consumer; it is then rendered as a direct t->u arc and appears in the
    // marking as <t,u>.
    auto collapsible = [&](petri::PlaceId p) {
        return net.pre_of_place(p).size() == 1 && net.post_of_place(p).size() == 1;
    };

    out << ".graph\n";
    for (petri::TransitionId t = 0; t < net.num_transitions(); ++t) {
        std::string line = net.transition_name(t);
        bool any = false;
        for (petri::PlaceId p : net.post(t)) {
            any = true;
            if (collapsible(p))
                line += " " + net.transition_name(net.post_of_place(p)[0]);
            else
                line += " " + net.place_name(p);
        }
        if (any) out << line << "\n";
    }
    for (petri::PlaceId p = 0; p < net.num_places(); ++p) {
        if (collapsible(p)) continue;
        if (net.post_of_place(p).empty()) continue;
        std::string line = net.place_name(p);
        for (petri::TransitionId t : net.post_of_place(p))
            line += " " + net.transition_name(t);
        out << line << "\n";
    }

    out << ".marking {";
    const petri::Marking& m0 = stg.system().initial_marking();
    bool first = true;
    for (petri::PlaceId p = 0; p < net.num_places(); ++p) {
        if (m0[p] == 0) continue;
        out << (first ? " " : " ");
        first = false;
        std::string name;
        if (collapsible(p))
            name = "<" + net.transition_name(net.pre_of_place(p)[0]) + "," +
                   net.transition_name(net.post_of_place(p)[0]) + ">";
        else
            name = net.place_name(p);
        out << name;
        if (m0[p] > 1) out << "=" << m0[p];
    }
    out << " }\n.end\n";
}

std::string write_astg_string(const Stg& stg) {
    std::ostringstream out;
    write_astg(out, stg);
    return out.str();
}

}  // namespace stgcc::stg
