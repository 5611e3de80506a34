// stgcc -- precomputed data for the partial-order-aware conflict search.
//
// A CodingProblem densifies the non-cut-off events of a prefix (cut-off
// variables are pinned to 0, which "effectively removes some of the
// variables" -- paper, section 3) and caches, per dense event index:
//   * its strict causal predecessors, successors and conflict set as rows of
//     three arena-backed bit matrices over dense indices (the Theorem 1
//     closure rules), exposed as BitSpan row views,
//   * its signal, and per signal the rising (code contribution +1) and
//     falling (-1) events as bit masks,
//   * its place flow pre(t) xor post(t), from which the solver keeps the
//     marked-place set of each side of the pair on its trail.
// It also records the derived initial code v0, the initial place set M0,
// the preset place mask of every circuit-driven transition (Out of a place
// set, read by the leaf predicates) and whether the STG is dynamically
// conflict-free (enabling the section 7 optimisation).  The per-event and
// per-transition tables live in one arena owned by the problem, and the
// problem is the solver's only input.
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

    /// Number of dense (non-cut-off) events q; the solver searches over
    /// pairs of 0-1 vectors of this length.
    [[nodiscard]] std::size_t size() const noexcept { return events_.size(); }

    [[nodiscard]] unf::EventId event_of(std::size_t dense) const {
        return events_[dense];
    }

    [[nodiscard]] BitSpan preds(std::size_t dense) const {
        return preds_.row(dense);
    }
    [[nodiscard]] BitSpan succs(std::size_t dense) const {
        return succs_.row(dense);
    }
    [[nodiscard]] BitSpan conflicts(std::size_t dense) const {
        return confs_.row(dense);
    }

    [[nodiscard]] stg::SignalId signal(std::size_t dense) const {
        return signal_[dense];
    }

    [[nodiscard]] const stg::Code& initial_code() const noexcept {
        return initial_code_;
    }

    /// Paper section 7: true when the union of any two configurations is a
    /// configuration, so the pair search may be restricted to C' subset C''.
    [[nodiscard]] bool dynamically_conflict_free() const noexcept {
        return conflict_free_;
    }

    /// Expand a dense 0-1 vector into an event set of the prefix.
    [[nodiscard]] BitVec to_event_set(BitSpan dense) const;

    /// Code of the marking reached by a dense configuration: v0 + change
    /// vector, i.e. v0 xor the parity of each signal's events in it.
    [[nodiscard]] stg::Code code_of(BitSpan dense) const;

    /// Dense events of signal z with a rising / falling edge, q bits each:
    /// the +1 / -1 coefficient masks of the code difference D_z, through
    /// which the solver forces the free variables of z once D_z is pinned
    /// at an extreme.  Shared read-only by every solver instance over this
    /// problem.
    [[nodiscard]] BitSpan rising(stg::SignalId z) const { return rising_.row(z); }
    [[nodiscard]] BitSpan falling(stg::SignalId z) const {
        return falling_.row(z);
    }
    /// All rising dense events (the union of the rising rows), q bits: the
    /// sign of each event's coefficient in D_z, read word-wise by the
    /// solver when it moves the D_z intervals.
    [[nodiscard]] BitSpan rising_events() const { return rising_events_; }

    /// Place flow pre(t) xor post(t) of a dense event's transition, |P|
    /// bits (self-loops cancel).  The unfolder enforces 1-safety, so a
    /// place holds M0(p) + produced - consumed in {0, 1} tokens, which is
    /// the parity of M0(p) + produced + consumed: the place set reached by
    /// a configuration is initial_places() xor the flows of its events.
    [[nodiscard]] BitSpan place_flow(std::size_t dense) const {
        return place_flows_.row(dense);
    }
    /// M0 as a place set, |P| bits.
    [[nodiscard]] BitSpan initial_places() const { return initial_places_; }

    /// Whether a circuit-driven transition of z has its whole preset in
    /// `places`, i.e. whether z is in Out of that marking (agrees with
    /// Stg::out_signals; always false for an input signal).
    [[nodiscard]] bool enabled(BitSpan places, stg::SignalId z) const;

private:
    void build(const unf::PrefixConsistency& consistency);

    const stg::Stg* stg_;
    const unf::Prefix* prefix_;
    std::vector<unf::EventId> events_;
    util::Arena arena_;                       ///< owns every table below
    util::BitMatrix preds_, succs_, confs_;   ///< q x q rows in arena_
    util::BitMatrix rising_, falling_;        ///< num_signals x q, in arena_
    BitVec rising_events_;                    ///< q bits
    util::BitMatrix place_flows_;             ///< q x |P|, in arena_
    /// Preset place masks of the circuit-driven transitions grouped by
    /// signal: the rows of z are [out_begin_[z], out_begin_[z + 1]).
    util::BitMatrix out_presets_;
    std::vector<std::size_t> out_begin_;      ///< num_signals + 1 offsets
    std::vector<stg::SignalId> signal_;
    stg::Code initial_code_;
    BitVec initial_places_;
    bool conflict_free_ = false;
};

}  // namespace stgcc::core
