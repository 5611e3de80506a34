#include "stg/state_graph.hpp"

#include <deque>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stgcc::stg {

StateGraph::StateGraph(const Stg& stg, petri::ReachOptions opts)
    : stg_(&stg), rg_(stg.system(), opts) {
    obs::Span span("sg.build");
    obs::counter("sg.builds").add();
    obs::counter("sg.states").add(rg_.num_states());
    obs::counter("sg.edges").add(rg_.num_edges());
    if (span.recording()) {
        obs::gauge("sg.hash_load_permille")
            .set(static_cast<std::int64_t>(rg_.hash_load_factor() * 1000.0f));
        span.attr("states", rg_.num_states());
        span.attr("edges", rg_.num_edges());
        span.attr("hash_load", rg_.hash_load_factor());
    }
    using petri::StateId;
    const std::size_t z_count = stg.num_signals();

    // Phase 1: propagate change-vector parities delta(s) over the graph.
    delta_.assign(rg_.num_states(), BitVec());
    std::vector<bool> have(rg_.num_states(), false);
    delta_[0] = BitVec(z_count);
    have[0] = true;
    std::deque<StateId> work{0};
    while (!work.empty() && consistent_) {
        const StateId s = work.front();
        work.pop_front();
        for (const auto& edge : rg_.successors(s)) {
            BitVec next = delta_[s];
            if (!stg.is_dummy(edge.transition))
                next.assign_bit(stg.label(edge.transition).signal,
                                !next.test(stg.label(edge.transition).signal));
            if (!have[edge.target]) {
                delta_[edge.target] = std::move(next);
                have[edge.target] = true;
                work.push_back(edge.target);
            } else if (!(delta_[edge.target] == next)) {
                consistent_ = false;
                inconsistency_reason_ =
                    "two firing sequences reach marking " +
                    rg_.marking(edge.target).to_string(stg.net()) +
                    " with different signal change vectors";
                break;
            }
        }
    }

    // Phase 2: derive v0 from edge signs; every edge of signal z determines
    // v0_z, and all determinations must agree (signal alternation).
    initial_code_ = BitVec(z_count);
    if (consistent_) {
        std::vector<int> v0(z_count, -1);  // -1 = undetermined
        for (StateId s = 0; s < rg_.num_states() && consistent_; ++s) {
            for (const auto& edge : rg_.successors(s)) {
                if (stg.is_dummy(edge.transition)) continue;
                const Label l = stg.label(edge.transition);
                // Value of z at s is v0_z XOR delta(s)_z and must be 0 before
                // a rising edge, 1 before a falling edge.
                const bool before = l.polarity == Polarity::Falling;
                const int implied =
                    static_cast<int>(before != delta_[s].test(l.signal));
                if (v0[l.signal] == -1) {
                    v0[l.signal] = implied;
                } else if (v0[l.signal] != implied) {
                    consistent_ = false;
                    inconsistency_reason_ =
                        "signal " + stg.signal_name(l.signal) +
                        " does not alternate: conflicting implied initial values";
                    break;
                }
            }
        }
        if (consistent_)
            for (SignalId z = 0; z < z_count; ++z)
                if (v0[z] == 1) initial_code_.set(z);
    }
}

Code StateGraph::code(petri::StateId s) const {
    STGCC_REQUIRE(consistent_);
    STGCC_REQUIRE(s < delta_.size());
    Code c = initial_code_;
    c ^= delta_[s];
    return c;
}

}  // namespace stgcc::stg
