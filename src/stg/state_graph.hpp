// stgcc -- the state graph SG_Gamma of an STG.
//
// Wraps an explicit reachability graph with the state assignment function
// Code : S -> {0,1}^Z.  Construction simultaneously decides consistency: the
// code-change parity must be well defined per marking and all first
// occurrences of a signal must have the same sign (paper, section 2.1).
// The initial code v0 is derived from those first occurrences.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "petri/reachability.hpp"
#include "stg/stg.hpp"

namespace stgcc::stg {

class StateGraph {
public:
    /// Build the full state graph; throws ModelError on unbounded nets or
    /// when the state limit is exceeded.
    explicit StateGraph(const Stg& stg, petri::ReachOptions opts = {});

    [[nodiscard]] const Stg& stg() const noexcept { return *stg_; }
    [[nodiscard]] const petri::ReachabilityGraph& graph() const noexcept { return rg_; }
    [[nodiscard]] std::size_t num_states() const noexcept { return rg_.num_states(); }

    /// True when the STG is consistent (all codes well defined and binary).
    [[nodiscard]] bool consistent() const noexcept { return consistent_; }
    /// Human-readable reason when not consistent.
    [[nodiscard]] const std::string& inconsistency_reason() const noexcept {
        return inconsistency_reason_;
    }

    /// Initial code v0; only meaningful when consistent().  Signals that
    /// never fire default to 0.
    [[nodiscard]] const Code& initial_code() const {
        STGCC_REQUIRE(consistent_);
        return initial_code_;
    }

    /// Code(M) of a state; only meaningful when consistent().
    [[nodiscard]] Code code(petri::StateId s) const;

    /// Out(M): enabled circuit-driven signals of a state.
    [[nodiscard]] BitVec out_set(petri::StateId s) const {
        return stg_->out_signals(rg_.marking(s));
    }

    /// Nxt_z(M) for a state.
    [[nodiscard]] bool nxt(petri::StateId s, SignalId z) const {
        return stg_->nxt(rg_.marking(s), code(s), z);
    }

private:
    const Stg* stg_;
    petri::ReachabilityGraph rg_;
    std::vector<BitVec> delta_;  // per state: parity of signal changes
    Code initial_code_;
    bool consistent_ = true;
    std::string inconsistency_reason_;
};

}  // namespace stgcc::stg
