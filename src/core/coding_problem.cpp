#include "core/coding_problem.hpp"

#include <bit>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stgcc::core {

using unf::EventId;

CodingProblem::CodingProblem(const stg::Stg& stg, const unf::Prefix& prefix)
    : stg_(&stg), prefix_(&prefix) {
    stg.require_dummy_free();
    const auto consistency = unf::analyze_consistency(stg, prefix);
    build(consistency);
}

CodingProblem::CodingProblem(const stg::Stg& stg, const unf::Prefix& prefix,
                             const unf::PrefixConsistency& consistency)
    : stg_(&stg), prefix_(&prefix) {
    stg.require_dummy_free();
    build(consistency);
}

void CodingProblem::build(const unf::PrefixConsistency& consistency) {
    obs::Span span("encode");
    const stg::Stg& stg = *stg_;
    const unf::Prefix& prefix = *prefix_;
    if (!consistency.consistent)
        throw ModelError("STG '" + stg.name() +
                         "' is inconsistent: " + consistency.reason);
    initial_code_ = consistency.initial_code;
    conflict_free_ = unf::is_dynamically_conflict_free(prefix);

    // Dense index over non-cut-off events.
    std::vector<std::size_t> dense_of(prefix.num_events(), SIZE_MAX);
    for (EventId e = 0; e < prefix.num_events(); ++e) {
        if (prefix.event(e).cutoff) continue;
        dense_of[e] = events_.size();
        events_.push_back(e);
    }

    const std::size_t q = events_.size();
    preds_ = util::BitMatrix(arena_, q, q);
    succs_ = util::BitMatrix(arena_, q, q);
    confs_ = util::BitMatrix(arena_, q, q);
    rising_ = util::BitMatrix(arena_, stg.num_signals(), q);
    falling_ = util::BitMatrix(arena_, stg.num_signals(), q);
    rising_events_ = BitVec(q);
    signal_.resize(q);

    for (std::size_t i = 0; i < q; ++i) {
        const EventId e = events_[i];
        const stg::Label l = stg.label(prefix.event(e).transition);
        signal_[i] = l.signal;
        (l.delta() > 0 ? rising_ : falling_).set(l.signal, i);
        if (l.delta() > 0) rising_events_.set(i);
        prefix.local_config(e).for_each([&](std::size_t f) {
            if (f == e) return;
            // Causal predecessors of a non-cut-off event are non-cut-off
            // (cut-off events have no successors in the prefix).
            STGCC_ASSERT(dense_of[f] != SIZE_MAX);
            preds_.set(i, dense_of[f]);
            succs_.set(dense_of[f], i);
        });
        prefix.conflicts(e).for_each([&](std::size_t g) {
            if (g < dense_of.size() && dense_of[g] != SIZE_MAX)
                confs_.set(i, dense_of[g]);
        });
    }

    // Leaf tables: M0, the place flow of every dense event and the preset
    // masks of the circuit-driven transitions, grouped by signal.
    const petri::Net& net = stg.net();
    const std::size_t np = net.num_places();
    initial_places_ = BitVec(np);
    const petri::Marking& m0 = prefix.system().initial_marking();
    for (petri::PlaceId p = 0; p < np; ++p)
        if (m0[p] != 0) initial_places_.set(p);
    place_flows_ = util::BitMatrix(arena_, q, np);
    for (std::size_t i = 0; i < q; ++i) {
        const petri::TransitionId t = prefix.event(events_[i]).transition;
        MutBitSpan row = place_flows_.mut_row(i);
        for (petri::PlaceId p : net.pre(t)) row.set(p);
        for (petri::PlaceId p : net.post(t))
            row.test(p) ? row.reset(p) : row.set(p);  // self-loops cancel
    }
    std::vector<std::vector<petri::TransitionId>> outs(stg.num_signals());
    for (petri::TransitionId t = 0; t < net.num_transitions(); ++t) {
        const stg::SignalId z = stg.label(t).signal;
        if (stg::is_circuit_driven(stg.signal_kind(z))) outs[z].push_back(t);
    }
    out_begin_.assign(1, 0);
    for (const auto& ts : outs) out_begin_.push_back(out_begin_.back() + ts.size());
    out_presets_ = util::BitMatrix(arena_, out_begin_.back(), np);
    for (stg::SignalId z = 0; z < outs.size(); ++z)
        for (std::size_t k = 0; k < outs[z].size(); ++k)
            for (petri::PlaceId p : net.pre(outs[z][k]))
                out_presets_.set(out_begin_[z] + k, p);

    obs::gauge("mem.arena_bytes")
        .set(static_cast<std::int64_t>(util::Arena::process_live_bytes()));
    obs::gauge("mem.arena_peak_bytes")
        .set(static_cast<std::int64_t>(util::Arena::process_peak_bytes()));
    span.attr("dense_events", q);
    span.attr("conflict_free", conflict_free_);
}

BitVec CodingProblem::to_event_set(BitSpan dense) const {
    BitVec out = prefix_->make_event_set();
    dense.for_each([&](std::size_t i) { out.set(events_[i]); });
    return out;
}

stg::Code CodingProblem::code_of(BitSpan dense) const {
    stg::Code code = initial_code_;
    const BitSpan::Word* x = dense.words();
    for (stg::SignalId z = 0; z < rising_.rows(); ++z) {
        const BitSpan::Word* r = rising(z).words();
        const BitSpan::Word* f = falling(z).words();
        BitSpan::Word parity = 0;
        for (std::size_t w = 0, nw = dense.num_words(); w < nw; ++w)
            parity ^= x[w] & (r[w] | f[w]);
        if (std::popcount(parity) & 1) code.assign_bit(z, !code.test(z));
    }
    return code;
}

bool CodingProblem::enabled(BitSpan places, stg::SignalId z) const {
    for (std::size_t k = out_begin_[z]; k < out_begin_[z + 1]; ++k)
        if (out_presets_.row(k).subset_of(places)) return true;
    return false;
}

}  // namespace stgcc::core
