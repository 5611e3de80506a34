#include "core/report_codec.hpp"

#include <algorithm>
#include <sstream>

#include "cache/result_cache.hpp"

namespace stgcc::core {

std::string canonical_text(const stg::Stg& stg) {
    // Deterministic, name-complete rendering: section per element kind,
    // arc lists sorted by endpoint name.  Element *order* in the file does
    // not matter to structural identity, so names are sorted too -- two
    // nets built in different insertion orders canonicalize identically.
    const petri::Net& net = stg.net();
    std::ostringstream out;
    out << "stgcanon/1\n";

    // Signal *order* is significant (codes and Out sets index by SignalId),
    // so signal lines are not sorted; place/transition order is not -- the
    // report codec addresses those by name.
    out << "signals " << stg.num_signals() << "\n";
    for (stg::SignalId z = 0; z < stg.num_signals(); ++z)
        out << stg.signal_name(z) << " "
            << std::to_string(static_cast<int>(stg.signal_kind(z))) << "\n";

    std::vector<std::string> lines;
    for (petri::PlaceId p = 0; p < net.num_places(); ++p)
        lines.push_back(net.place_name(p) + " " +
                        std::to_string(stg.system().initial_marking()[p]));
    std::sort(lines.begin(), lines.end());
    out << "places " << lines.size() << "\n";
    for (const std::string& l : lines) out << l << "\n";

    lines.clear();
    for (petri::TransitionId t = 0; t < net.num_transitions(); ++t) {
        std::string line = net.transition_name(t) + " " + stg.label_text(t);
        std::vector<std::string> pre, post;
        for (petri::PlaceId p : net.pre(t)) pre.push_back(net.place_name(p));
        for (petri::PlaceId p : net.post(t)) post.push_back(net.place_name(p));
        std::sort(pre.begin(), pre.end());
        std::sort(post.begin(), post.end());
        line += " <-";
        for (const std::string& p : pre) line += " " + p;
        line += " ->";
        for (const std::string& p : post) line += " " + p;
        lines.push_back(std::move(line));
    }
    std::sort(lines.begin(), lines.end());
    out << "transitions " << lines.size() << "\n";
    for (const std::string& l : lines) out << l << "\n";
    return out.str();
}

std::uint64_t semantic_hash(const stg::Stg& stg) {
    return cache::fnv1a64(canonical_text(stg));
}

namespace {

// --- encoding helpers ------------------------------------------------------

obs::Json trace_json(const stg::Stg& s,
                     const std::vector<petri::TransitionId>& trace) {
    obs::Json a = obs::Json::array();
    for (petri::TransitionId t : trace) a.push(s.net().transition_name(t));
    return a;
}

obs::Json marking_json(const stg::Stg& s, const petri::Marking& m) {
    // Sparse name->count pairs; zero entries are implicit.
    obs::Json a = obs::Json::array();
    for (petri::PlaceId p = 0; p < s.net().num_places(); ++p)
        if (m[p] != 0)
            a.push(obs::Json::array()
                       .push(s.net().place_name(p))
                       .push(static_cast<std::uint64_t>(m[p])));
    return a;
}

obs::Json conflict_json(const stg::Stg& s, const stg::ConflictWitness& w) {
    return obs::Json::object()
        .set("code", w.code.to_string())
        .set("m1", marking_json(s, w.m1))
        .set("m2", marking_json(s, w.m2))
        .set("out1", w.out1.to_string())
        .set("out2", w.out2.to_string())
        .set("trace1", trace_json(s, w.trace1))
        .set("trace2", trace_json(s, w.trace2));
}

obs::Json normalcy_witness_json(const stg::Stg& s,
                                const stg::NormalcyWitness& w) {
    return obs::Json::object()
        .set("signal", s.signal_name(w.signal))
        .set("m1", marking_json(s, w.m1))
        .set("m2", marking_json(s, w.m2))
        .set("code1", w.code1.to_string())
        .set("code2", w.code2.to_string())
        .set("nxt1", w.nxt1)
        .set("nxt2", w.nxt2)
        .set("trace1", trace_json(s, w.trace1))
        .set("trace2", trace_json(s, w.trace2));
}

// --- decoding helpers ------------------------------------------------------

bool decode_trace(const obs::Json* j, const stg::Stg& s,
                  std::vector<petri::TransitionId>& out) {
    if (!j || j->kind() != obs::Json::Kind::Array) return false;
    out.clear();
    for (std::size_t i = 0; i < j->size(); ++i) {
        const petri::TransitionId t =
            s.net().find_transition(j->at(i).as_string());
        if (t == petri::kNoTransition) return false;
        out.push_back(t);
    }
    return true;
}

bool decode_marking(const obs::Json* j, const stg::Stg& s,
                    petri::Marking& out) {
    if (!j || j->kind() != obs::Json::Kind::Array) return false;
    out = petri::Marking(s.net().num_places());
    for (std::size_t i = 0; i < j->size(); ++i) {
        const obs::Json& pair = j->at(i);
        if (pair.kind() != obs::Json::Kind::Array || pair.size() != 2)
            return false;
        const petri::PlaceId p = s.net().find_place(pair.at(0).as_string());
        if (p == petri::kNoPlace) return false;
        out.set(p, static_cast<std::uint32_t>(pair.at(1).as_uint()));
    }
    return true;
}

bool decode_bits(const obs::Json* j, std::size_t size, BitVec& out) {
    if (!j || j->kind() != obs::Json::Kind::String) return false;
    const std::string& s = j->as_string();
    if (s.size() != size) return false;
    out = BitVec(size);
    for (std::size_t i = 0; i < size; ++i) {
        if (s[i] == '1')
            out.set(i);
        else if (s[i] != '0')
            return false;
    }
    return true;
}

bool decode_conflict(const obs::Json* j, const stg::Stg& s,
                     std::optional<stg::ConflictWitness>& out) {
    if (!j) return true;  // absent witness is fine
    if (j->kind() != obs::Json::Kind::Object) return false;
    stg::ConflictWitness w;
    if (!decode_bits(j->find("code"), s.num_signals(), w.code)) return false;
    if (!decode_bits(j->find("out1"), s.num_signals(), w.out1)) return false;
    if (!decode_bits(j->find("out2"), s.num_signals(), w.out2)) return false;
    if (!decode_marking(j->find("m1"), s, w.m1)) return false;
    if (!decode_marking(j->find("m2"), s, w.m2)) return false;
    if (!decode_trace(j->find("trace1"), s, w.trace1)) return false;
    if (!decode_trace(j->find("trace2"), s, w.trace2)) return false;
    out = std::move(w);
    return true;
}

bool decode_normalcy_witness(const obs::Json* j, const stg::Stg& s,
                             std::optional<stg::NormalcyWitness>& out) {
    if (!j) return true;
    if (j->kind() != obs::Json::Kind::Object) return false;
    stg::NormalcyWitness w;
    const obs::Json* sig = j->find("signal");
    if (!sig) return false;
    w.signal = s.find_signal(sig->as_string());
    if (w.signal == stg::kNoSignal) return false;
    if (!decode_marking(j->find("m1"), s, w.m1)) return false;
    if (!decode_marking(j->find("m2"), s, w.m2)) return false;
    if (!decode_bits(j->find("code1"), s.num_signals(), w.code1)) return false;
    if (!decode_bits(j->find("code2"), s.num_signals(), w.code2)) return false;
    const obs::Json* n1 = j->find("nxt1");
    const obs::Json* n2 = j->find("nxt2");
    if (!n1 || !n2) return false;
    w.nxt1 = n1->as_bool();
    w.nxt2 = n2->as_bool();
    if (!decode_trace(j->find("trace1"), s, w.trace1)) return false;
    if (!decode_trace(j->find("trace2"), s, w.trace2)) return false;
    out = std::move(w);
    return true;
}

}  // namespace

obs::Json encode_report(const VerificationReport& r, const stg::Stg& s) {
    obs::Json out = obs::Json::object();
    out.set("codec", kReportCodecVersion);
    out.set("prefix", obs::Json::object()
                          .set("conditions", r.prefix.conditions)
                          .set("events", r.prefix.events)
                          .set("cutoffs", r.prefix.cutoffs));
    out.set("consistent", r.consistent);
    if (!r.consistent) {
        out.set("inconsistency_reason", r.inconsistency_reason);
        return out;
    }
    out.set("initial_code", r.initial_code.to_string());

    obs::Json usc = obs::Json::object().set("holds", r.usc.holds);
    if (r.usc.witness) usc.set("witness", conflict_json(s, *r.usc.witness));
    out.set("usc", std::move(usc));
    obs::Json csc = obs::Json::object().set("holds", r.csc.holds);
    if (r.csc.witness) csc.set("witness", conflict_json(s, *r.csc.witness));
    out.set("csc", std::move(csc));

    if (r.normalcy_checked) {
        obs::Json per = obs::Json::array();
        for (const stg::SignalNormalcy& sn : r.normalcy.per_signal) {
            obs::Json entry = obs::Json::object()
                                  .set("signal", s.signal_name(sn.signal))
                                  .set("p_normal", sn.p_normal)
                                  .set("n_normal", sn.n_normal);
            if (sn.p_violation)
                entry.set("p_violation",
                          normalcy_witness_json(s, *sn.p_violation));
            if (sn.n_violation)
                entry.set("n_violation",
                          normalcy_witness_json(s, *sn.n_violation));
            per.push(std::move(entry));
        }
        out.set("normalcy", obs::Json::object()
                                .set("normal", r.normalcy.normal)
                                .set("per_signal", std::move(per)));
    }
    if (r.deadlock_checked) {
        obs::Json d = obs::Json::object().set("free", r.deadlock_free);
        if (!r.deadlock_free) d.set("trace", trace_json(s, r.deadlock_trace));
        out.set("deadlock", std::move(d));
    }
    if (r.persistency_checked) {
        obs::Json p = obs::Json::object().set("persistent", r.persistent);
        if (r.persistency_violation) {
            const auto& v = *r.persistency_violation;
            p.set("violation",
                  obs::Json::object()
                      .set("output", s.net().transition_name(v.output))
                      .set("disabler", s.net().transition_name(v.disabler))
                      .set("trace", trace_json(s, v.trace)));
        }
        out.set("persistency", std::move(p));
    }
    return out;
}

std::optional<VerificationReport> decode_report(const obs::Json& payload,
                                                const stg::Stg& s) {
    if (payload.kind() != obs::Json::Kind::Object) return std::nullopt;
    const obs::Json* codec = payload.find("codec");
    if (!codec || codec->as_int() != kReportCodecVersion) return std::nullopt;

    VerificationReport r;
    const obs::Json* prefix = payload.find("prefix");
    if (!prefix) return std::nullopt;
    const obs::Json* conditions = prefix->find("conditions");
    const obs::Json* events = prefix->find("events");
    const obs::Json* cutoffs = prefix->find("cutoffs");
    if (!conditions || !events || !cutoffs) return std::nullopt;
    r.prefix.conditions = conditions->as_uint();
    r.prefix.events = events->as_uint();
    r.prefix.cutoffs = cutoffs->as_uint();

    const obs::Json* consistent = payload.find("consistent");
    if (!consistent) return std::nullopt;
    r.consistent = consistent->as_bool();
    if (!r.consistent) {
        const obs::Json* reason = payload.find("inconsistency_reason");
        if (!reason) return std::nullopt;
        r.inconsistency_reason = reason->as_string();
        return r;
    }
    if (!decode_bits(payload.find("initial_code"), s.num_signals(),
                     r.initial_code))
        return std::nullopt;

    const obs::Json* usc = payload.find("usc");
    const obs::Json* csc = payload.find("csc");
    if (!usc || !csc) return std::nullopt;
    const obs::Json* usc_holds = usc->find("holds");
    const obs::Json* csc_holds = csc->find("holds");
    if (!usc_holds || !csc_holds) return std::nullopt;
    r.usc.holds = usc_holds->as_bool();
    r.csc.holds = csc_holds->as_bool();
    if (!decode_conflict(usc->find("witness"), s, r.usc.witness))
        return std::nullopt;
    if (!decode_conflict(csc->find("witness"), s, r.csc.witness))
        return std::nullopt;

    if (const obs::Json* normalcy = payload.find("normalcy")) {
        r.normalcy_checked = true;
        const obs::Json* normal = normalcy->find("normal");
        const obs::Json* per = normalcy->find("per_signal");
        if (!normal || !per || per->kind() != obs::Json::Kind::Array)
            return std::nullopt;
        r.normalcy.normal = normal->as_bool();
        for (std::size_t i = 0; i < per->size(); ++i) {
            const obs::Json& e = per->at(i);
            stg::SignalNormalcy sn;
            const obs::Json* sig = e.find("signal");
            const obs::Json* pn = e.find("p_normal");
            const obs::Json* nn = e.find("n_normal");
            if (!sig || !pn || !nn) return std::nullopt;
            sn.signal = s.find_signal(sig->as_string());
            if (sn.signal == stg::kNoSignal) return std::nullopt;
            sn.p_normal = pn->as_bool();
            sn.n_normal = nn->as_bool();
            if (!decode_normalcy_witness(e.find("p_violation"), s,
                                         sn.p_violation))
                return std::nullopt;
            if (!decode_normalcy_witness(e.find("n_violation"), s,
                                         sn.n_violation))
                return std::nullopt;
            r.normalcy.per_signal.push_back(std::move(sn));
        }
    }
    if (const obs::Json* deadlock = payload.find("deadlock")) {
        r.deadlock_checked = true;
        const obs::Json* free = deadlock->find("free");
        if (!free) return std::nullopt;
        r.deadlock_free = free->as_bool();
        if (!r.deadlock_free &&
            !decode_trace(deadlock->find("trace"), s, r.deadlock_trace))
            return std::nullopt;
    }
    if (const obs::Json* persistency = payload.find("persistency")) {
        r.persistency_checked = true;
        const obs::Json* persistent = persistency->find("persistent");
        if (!persistent) return std::nullopt;
        r.persistent = persistent->as_bool();
        if (const obs::Json* v = persistency->find("violation")) {
            VerificationReport::PersistencyViolation pv;
            const obs::Json* output = v->find("output");
            const obs::Json* disabler = v->find("disabler");
            if (!output || !disabler) return std::nullopt;
            pv.output = s.net().find_transition(output->as_string());
            pv.disabler = s.net().find_transition(disabler->as_string());
            if (pv.output == petri::kNoTransition ||
                pv.disabler == petri::kNoTransition)
                return std::nullopt;
            if (!decode_trace(v->find("trace"), s, pv.trace))
                return std::nullopt;
            r.persistency_violation = std::move(pv);
        }
        if (!r.persistent && !r.persistency_violation) return std::nullopt;
    }
    return r;
}

}  // namespace stgcc::core
