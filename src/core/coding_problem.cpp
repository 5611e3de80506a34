#include "core/coding_problem.hpp"

#include <algorithm>
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

    // Signal tables over every event; a cut-off event is pinned to 0, so
    // it has no bit in them and never moves an interval.
    const std::size_t n = prefix.num_events();
    cutoffs_ = BitVec(n);
    rising_ = util::BitMatrix(arena_, stg.num_signals(), n);
    falling_ = util::BitMatrix(arena_, stg.num_signals(), n);
    rising_events_ = BitVec(n);
    signal_.resize(n);
    for (EventId e = 0; e < n; ++e) {
        const stg::Label l = stg.label(prefix.event(e).transition);
        signal_[e] = l.signal;
        if (prefix.event(e).cutoff) {
            cutoffs_.set(e);
            continue;
        }
        (l.delta() > 0 ? rising_ : falling_).set(l.signal, e);
        if (l.delta() > 0) rising_events_.set(e);
    }

    // Leaf tables: M0, the place flow of every event and the preset
    // masks of the circuit-driven transitions, grouped by signal.
    const petri::Net& net = stg.net();
    const std::size_t np = net.num_places();
    initial_places_ = BitVec(np);
    const petri::Marking& m0 = prefix.system().initial_marking();
    for (petri::PlaceId p = 0; p < np; ++p)
        if (m0[p] != 0) initial_places_.set(p);
    place_flows_ = util::BitMatrix(arena_, n, np);
    for (EventId e = 0; e < n; ++e) {
        const petri::TransitionId t = prefix.event(e).transition;
        MutBitSpan row = place_flows_.mut_row(e);
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
    out_signal_.resize(out_begin_.back());
    for (stg::SignalId z = 0; z < outs.size(); ++z) {
        for (std::size_t k = 0; k < outs[z].size(); ++k) {
            out_signal_[out_begin_[z] + k] = z;
            for (petri::PlaceId p : net.pre(outs[z][k]))
                out_presets_.set(out_begin_[z] + k, p);
        }
    }

    obs::gauge("mem.arena_bytes")
        .set(static_cast<std::int64_t>(util::Arena::process_live_bytes()));
    obs::gauge("mem.arena_peak_bytes")
        .set(static_cast<std::int64_t>(util::Arena::process_peak_bytes()));
    span.attr("events", n);
    span.attr("conflict_free", conflict_free_);
}

stg::Code CodingProblem::code_of(BitSpan config) const {
    stg::Code code = initial_code_;
    const BitSpan::Word* x = config.words();
    for (stg::SignalId z = 0; z < rising_.rows(); ++z) {
        const BitSpan::Word* r = rising(z).words();
        const BitSpan::Word* f = falling(z).words();
        BitSpan::Word parity = 0;
        for (std::size_t w = 0, nw = config.num_words(); w < nw; ++w)
            parity ^= x[w] & (r[w] | f[w]);
        if (std::popcount(parity) & 1) code.assign_bit(z, !code.test(z));
    }
    return code;
}

BitSpan::Word CodingProblem::out_word(BitSpan places, std::size_t w) const {
    using Word = BitSpan::Word;
    constexpr std::size_t kWordBits = BitSpan::kWordBits;
    // The rows of the signals of word w are contiguous: rows are grouped
    // by signal in ascending order.
    const std::size_t nz = out_begin_.size() - 1;
    const std::size_t end = out_begin_[std::min(w * kWordBits + kWordBits, nz)];
    const std::size_t begin = out_begin_[std::min(w * kWordBits, nz)];
    const std::size_t npw = out_presets_.stride();
    const Word* marked = places.words();
    Word out = 0;
    if (npw == 1) {  // |P| <= 64: one word per preset, no inner loop
        const Word unmarked = ~marked[0];
        for (std::size_t k = begin; k < end; ++k)
            out |= Word{(out_presets_.row(k).words()[0] & unmarked) == 0}
                   << (out_signal_[k] % kWordBits);
        return out;
    }
    for (std::size_t k = begin; k < end; ++k) {
        const Word* preset = out_presets_.row(k).words();
        Word missing = 0;
        for (std::size_t i = 0; i < npw; ++i) missing |= preset[i] & ~marked[i];
        out |= Word{missing == 0} << (out_signal_[k] % kWordBits);
    }
    return out;
}

bool CodingProblem::enabled(BitSpan places, stg::SignalId z) const {
    for (std::size_t k = out_begin_[z]; k < out_begin_[z + 1]; ++k)
        if (out_presets_.row(k).subset_of(places)) return true;
    return false;
}

}  // namespace stgcc::core
