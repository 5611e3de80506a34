#include "stg/state_checks.hpp"

#include <unordered_map>

#include "obs/trace.hpp"

namespace stgcc::stg {

namespace {

ConflictWitness make_witness(const StateGraph& sg, petri::StateId s1,
                             petri::StateId s2) {
    ConflictWitness w;
    w.code = sg.code(s1);
    w.m1 = sg.graph().marking(s1);
    w.m2 = sg.graph().marking(s2);
    w.out1 = sg.out_set(s1);
    w.out2 = sg.out_set(s2);
    w.trace1 = sg.graph().path_to(s1);
    w.trace2 = sg.graph().path_to(s2);
    return w;
}

void require_consistent(const StateGraph& sg) {
    if (!sg.consistent())
        throw ModelError("STG '" + sg.stg().name() +
                         "' is inconsistent: " + sg.inconsistency_reason());
}

}  // namespace

CodingCheckResult check_usc_sg(const StateGraph& sg) {
    require_consistent(sg);
    obs::Span span("sg.check_usc");
    CodingCheckResult result;
    result.stats.states = sg.num_states();

    std::unordered_map<BitVec, petri::StateId, BitVecHash> by_code;
    by_code.reserve(sg.num_states());
    for (petri::StateId s = 0; s < sg.num_states(); ++s) {
        auto [it, inserted] = by_code.emplace(sg.code(s), s);
        if (!inserted) {
            // Two distinct interned states with the same code: USC conflict.
            result.holds = false;
            result.witness = make_witness(sg, it->second, s);
            break;
        }
    }
    result.stats.seconds = span.seconds();
    span.attr("states", result.stats.states);
    span.attr("holds", result.holds);
    return result;
}

CodingCheckResult check_csc_sg(const StateGraph& sg) {
    require_consistent(sg);
    obs::Span span("sg.check_csc");
    CodingCheckResult result;
    result.stats.states = sg.num_states();

    // Per code, remember one representative per distinct Out set (two
    // suffice: any third state matches one of them or conflicts with both).
    struct Group {
        petri::StateId rep;
        BitVec out;
    };
    std::unordered_map<BitVec, Group, BitVecHash> by_code;
    by_code.reserve(sg.num_states());
    for (petri::StateId s = 0; s < sg.num_states(); ++s) {
        BitVec out = sg.out_set(s);
        auto [it, inserted] = by_code.emplace(sg.code(s), Group{s, out});
        if (!inserted && !(it->second.out == out)) {
            result.holds = false;
            result.witness = make_witness(sg, it->second.rep, s);
            break;
        }
    }
    result.stats.seconds = span.seconds();
    span.attr("states", result.stats.states);
    span.attr("holds", result.holds);
    return result;
}

NormalcyResult check_normalcy_sg(const StateGraph& sg) {
    require_consistent(sg);
    obs::Span span("sg.check_normalcy");
    const Stg& stg = sg.stg();
    NormalcyResult result;

    // Group states by code; per code and output signal remember a state
    // with Nxt=0 and one with Nxt=1 (both can exist only when CSC is
    // violated for that signal, but the definition quantifies over states,
    // so we keep both).
    struct CodeInfo {
        BitVec code;
        std::vector<petri::StateId> nxt0, nxt1;  // indexed by output position
    };
    const std::vector<SignalId> outputs = stg.circuit_driven_signals();
    std::unordered_map<BitVec, std::size_t, BitVecHash> index;
    std::vector<CodeInfo> groups;
    for (petri::StateId s = 0; s < sg.num_states(); ++s) {
        BitVec code = sg.code(s);
        auto [it, inserted] = index.emplace(code, groups.size());
        if (inserted) {
            groups.push_back(CodeInfo{code,
                                      std::vector<petri::StateId>(outputs.size(),
                                                                  petri::kNoState),
                                      std::vector<petri::StateId>(outputs.size(),
                                                                  petri::kNoState)});
        }
        CodeInfo& g = groups[it->second];
        for (std::size_t oi = 0; oi < outputs.size(); ++oi) {
            const bool v = sg.nxt(s, outputs[oi]);
            auto& slot = v ? g.nxt1[oi] : g.nxt0[oi];
            if (slot == petri::kNoState) slot = s;
        }
    }
    result.stats.states = sg.num_states();

    auto make_nw = [&](SignalId z, petri::StateId lo, petri::StateId hi) {
        NormalcyWitness w;
        w.signal = z;
        w.m1 = sg.graph().marking(lo);
        w.m2 = sg.graph().marking(hi);
        w.code1 = sg.code(lo);
        w.code2 = sg.code(hi);
        w.nxt1 = sg.nxt(lo, z);
        w.nxt2 = sg.nxt(hi, z);
        w.trace1 = sg.graph().path_to(lo);
        w.trace2 = sg.graph().path_to(hi);
        return w;
    };

    result.per_signal.resize(outputs.size());
    for (std::size_t oi = 0; oi < outputs.size(); ++oi)
        result.per_signal[oi].signal = outputs[oi];

    // All ordered pairs of comparable codes (including equal codes, where a
    // 0/1 Nxt mix already violates both normalcy directions), until every
    // p/n flag is falsified: each keeps the first violating pair in (i, j)
    // order, so stopping then changes no witness.
    std::size_t open_flags = 2 * outputs.size();
    for (std::size_t i = 0; i < groups.size() && open_flags > 0; ++i) {
        for (std::size_t j = 0; j < groups.size() && open_flags > 0; ++j) {
            if (!groups[i].code.subset_of(groups[j].code)) continue;
            // code_i <= code_j componentwise.
            for (std::size_t oi = 0; oi < outputs.size(); ++oi) {
                SignalNormalcy& sn = result.per_signal[oi];
                // p-violation: Nxt(lo)=1, Nxt(hi)=0.
                if (sn.p_normal && groups[i].nxt1[oi] != petri::kNoState &&
                    groups[j].nxt0[oi] != petri::kNoState) {
                    sn.p_normal = false;
                    --open_flags;
                    sn.p_violation =
                        make_nw(outputs[oi], groups[i].nxt1[oi], groups[j].nxt0[oi]);
                }
                // n-violation: Nxt(lo)=0, Nxt(hi)=1.
                if (sn.n_normal && groups[i].nxt0[oi] != petri::kNoState &&
                    groups[j].nxt1[oi] != petri::kNoState) {
                    sn.n_normal = false;
                    --open_flags;
                    sn.n_violation =
                        make_nw(outputs[oi], groups[i].nxt0[oi], groups[j].nxt1[oi]);
                }
            }
        }
    }
    for (const auto& sn : result.per_signal)
        if (!sn.normal()) result.normal = false;
    result.stats.seconds = span.seconds();
    span.attr("states", result.stats.states);
    span.attr("normal", result.normal);
    return result;
}

}  // namespace stgcc::stg
