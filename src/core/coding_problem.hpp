// stgcc -- precomputed data for the partial-order-aware conflict search.
//
// The search has one 0-1 variable per prefix event and pins the cut-off
// variables to 0, which "effectively removes some of the variables" (paper,
// section 3, eq. 3).  The Theorem 1 closure rules read the prefix's own
// relation rows -- local configuration, causal successors and conflicts --
// and a CodingProblem adds, per event:
//   * the cut-off mask the solvers pin to 0,
//   * its signal, and per signal the rising (code contribution +1) and
//     falling (-1) events as bit masks, cut-off bits clear,
//   * its place flow pre(t) xor post(t), from which the solver keeps the
//     marked-place set of each side of the pair in its search levels.
// It also records the derived initial code v0, the initial place set M0,
// the preset place mask of every circuit-driven transition (Out of a place
// set, read by the leaf predicates) and whether the STG is dynamically
// conflict-free (enabling the section 7 optimisation).  The per-event and
// per-transition tables live in one arena owned by the problem; the problem
// and its prefix are the solver's only input.
#pragma once

#include <vector>

#include "stg/stg.hpp"
#include "unfolding/occurrence_net.hpp"
#include "unfolding/prefix_checks.hpp"
#include "util/arena.hpp"
#include "util/bit_matrix.hpp"

namespace stgcc::core {

class CodingProblem {
public:
    /// Build from a consistent, dummy-free STG and its complete prefix.
    /// Throws ModelError when the STG is inconsistent.
    CodingProblem(const stg::Stg& stg, const unf::Prefix& prefix);

    /// Same, reusing an already computed consistency analysis (tier-1
    /// artifact sharing: verify_stg and the PrefixArtifacts cache analyze
    /// the prefix exactly once).  `consistency.consistent` must be true.
    CodingProblem(const stg::Stg& stg, const unf::Prefix& prefix,
                  const unf::PrefixConsistency& consistency);

    [[nodiscard]] const stg::Stg& stg() const noexcept { return *stg_; }
    [[nodiscard]] const unf::Prefix& prefix() const noexcept { return *prefix_; }

    /// Number of variables |E|, one per prefix event; the solvers search
    /// over 0-1 vectors of this length, i.e. event sets of the prefix.
    [[nodiscard]] std::size_t size() const noexcept {
        return prefix_->num_events();
    }

    /// The cut-off events, |E| bits: their variables are pinned to 0.
    [[nodiscard]] BitSpan cutoffs() const noexcept { return cutoffs_; }

    [[nodiscard]] stg::SignalId signal(unf::EventId e) const {
        return signal_[e];
    }

    [[nodiscard]] const stg::Code& initial_code() const noexcept {
        return initial_code_;
    }

    /// Paper section 7: true when the union of any two configurations is a
    /// configuration, so the pair search may be restricted to C' subset C''.
    [[nodiscard]] bool dynamically_conflict_free() const noexcept {
        return conflict_free_;
    }

    /// Code of the marking reached by a configuration: v0 + change vector,
    /// i.e. v0 xor the parity of each signal's events in it.
    [[nodiscard]] stg::Code code_of(BitSpan config) const;

    /// Non-cut-off events of signal z with a rising / falling edge, |E|
    /// bits each: the +1 / -1 coefficient masks of the code difference
    /// D_z, through which the solver forces the free variables of z once
    /// D_z is pinned at an extreme.  Shared read-only by every solver
    /// instance over this problem.
    [[nodiscard]] BitSpan rising(stg::SignalId z) const { return rising_.row(z); }
    [[nodiscard]] BitSpan falling(stg::SignalId z) const {
        return falling_.row(z);
    }
    /// All rising events (the union of the rising rows), |E| bits: the
    /// sign of each event's coefficient in D_z, read word-wise by the
    /// solver when it moves the D_z intervals.
    [[nodiscard]] BitSpan rising_events() const { return rising_events_; }

    /// Place flow pre(t) xor post(t) of an event's transition, |P|
    /// bits (self-loops cancel).  The unfolder enforces 1-safety, so a
    /// place holds M0(p) + produced - consumed in {0, 1} tokens, which is
    /// the parity of M0(p) + produced + consumed: the place set reached by
    /// a configuration is initial_places() xor the flows of its events.
    [[nodiscard]] BitSpan place_flow(unf::EventId e) const {
        return place_flows_.row(e);
    }
    /// M0 as a place set, |P| bits.
    [[nodiscard]] BitSpan initial_places() const { return initial_places_; }

    /// Whether a circuit-driven transition of z has its whole preset in
    /// `places`, i.e. whether z is in Out of that marking (agrees with
    /// Stg::out_signals; always false for an input signal).
    [[nodiscard]] bool enabled(BitSpan places, stg::SignalId z) const;

    /// Out of that marking as a |Z|-bit set, one word at a time: bit i of
    /// out_word(places, w) is enabled(places, 64 w + i).  One pass over the
    /// preset masks of those signals.
    [[nodiscard]] BitSpan::Word out_word(BitSpan places, std::size_t w) const;

private:
    void build(const unf::PrefixConsistency& consistency);

    const stg::Stg* stg_;
    const unf::Prefix* prefix_;
    util::Arena arena_;                       ///< owns every matrix below
    BitVec cutoffs_;                          ///< |E| bits
    util::BitMatrix rising_, falling_;        ///< num_signals x |E|, in arena_
    BitVec rising_events_;                    ///< |E| bits
    util::BitMatrix place_flows_;             ///< |E| x |P|, in arena_
    /// Preset place masks of the circuit-driven transitions grouped by
    /// signal: the rows of z are [out_begin_[z], out_begin_[z + 1]).
    util::BitMatrix out_presets_;
    std::vector<std::size_t> out_begin_;      ///< num_signals + 1 offsets
    std::vector<stg::SignalId> out_signal_;   ///< the signal of each row
    std::vector<stg::SignalId> signal_;
    stg::Code initial_code_;
    BitVec initial_places_;
    bool conflict_free_ = false;
};

}  // namespace stgcc::core
