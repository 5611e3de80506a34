// stgcc -- result types shared by the state-based baseline checkers and the
// unfolding + integer-programming checkers.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "petri/marking.hpp"
#include "petri/net.hpp"
#include "stg/stg.hpp"

namespace stgcc::stg {

/// Counters describing the work a check performed; used by the benches to
/// report the machine-independent cost measures from the paper's argument.
struct CheckStats {
    /// States materialised (state-based) -- the memory the paper's method avoids.
    std::size_t states = 0;
    /// Branch-and-bound nodes visited (IP-based).
    std::size_t search_nodes = 0;
    /// Candidate solutions reaching a leaf predicate evaluation.
    std::size_t leaves = 0;
    /// Closure/interval propagations (IP-based): the number of variable
    /// bits committed by the propagation rounds of the word-parallel
    /// CompatSolver (MCC closure, linking and per-signal interval forcing),
    /// summed over every round, the rounds of failed assignments included.
    std::size_t propagations = 0;
    /// Deepest DFS recursion reached.
    std::size_t max_depth = 0;
    /// Wall-clock seconds.
    double seconds = 0.0;
    /// Seconds inside propagation/bounding (assign + closure); only
    /// measured while a trace is recording, 0 otherwise.  The branch side
    /// of the split is seconds - bound_seconds.
    double bound_seconds = 0.0;

    /// Fold in another search's stats: counts and times add, depth maxes.
    void add(const CheckStats& o) noexcept {
        states += o.states;
        search_nodes += o.search_nodes;
        leaves += o.leaves;
        propagations += o.propagations;
        if (o.max_depth > max_depth) max_depth = o.max_depth;
        seconds += o.seconds;
        bound_seconds += o.bound_seconds;
    }
};

/// A pair of reachable states demonstrating a USC or CSC conflict, together
/// with execution paths leading to them -- the witnesses the paper highlights
/// as a benefit of the IP method.
struct ConflictWitness {
    Code code;                 ///< The shared binary code of the two states.
    petri::Marking m1, m2;     ///< The two conflicting markings.
    BitVec out1, out2;         ///< Enabled circuit-driven signal sets.
    std::vector<petri::TransitionId> trace1, trace2;  ///< Paths from M0.

    /// True when the witness is also a CSC conflict (Out sets differ).
    [[nodiscard]] bool is_csc() const { return !(out1 == out2); }
};

/// Outcome of a USC or CSC check.
struct CodingCheckResult {
    bool holds = true;  ///< Property satisfied (no conflict found).
    std::optional<ConflictWitness> witness;
    CheckStats stats;
};

/// A pair of states demonstrating a normalcy violation for one signal.
struct NormalcyWitness {
    SignalId signal = kNoSignal;
    petri::Marking m1, m2;
    Code code1, code2;  ///< code1 <= code2 componentwise.
    bool nxt1 = false, nxt2 = false;
    std::vector<petri::TransitionId> trace1, trace2;
};

/// Normalcy status of one circuit-driven signal.
struct SignalNormalcy {
    SignalId signal = kNoSignal;
    bool p_normal = true;
    bool n_normal = true;
    /// Witness against p-normalcy (Code(M1)<=Code(M2), Nxt(M1)>Nxt(M2)).
    std::optional<NormalcyWitness> p_violation;
    /// Witness against n-normalcy (Code(M1)<=Code(M2), Nxt(M1)<Nxt(M2)).
    std::optional<NormalcyWitness> n_violation;

    /// A signal is normal when it is p-normal or n-normal.
    [[nodiscard]] bool normal() const { return p_normal || n_normal; }
};

/// Outcome of the normalcy check over all circuit-driven signals.
struct NormalcyResult {
    bool normal = true;
    std::vector<SignalNormalcy> per_signal;
    CheckStats stats;

    [[nodiscard]] const SignalNormalcy* find(SignalId z) const {
        for (const auto& s : per_signal)
            if (s.signal == z) return &s;
        return nullptr;
    }
};

}  // namespace stgcc::stg
