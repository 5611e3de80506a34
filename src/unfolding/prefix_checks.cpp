#include "unfolding/prefix_checks.hpp"

#include <vector>

namespace stgcc::unf {

using stg::Polarity;
using stg::SignalId;

std::vector<int> change_vector_of(const stg::Stg& stg, const Prefix& prefix,
                                  BitSpan events) {
    std::vector<int> v(stg.num_signals(), 0);
    events.for_each([&](std::size_t e) {
        const petri::TransitionId t = prefix.event(static_cast<EventId>(e)).transition;
        if (stg.is_dummy(t)) return;
        const stg::Label l = stg.label(t);
        v[l.signal] += l.delta();
    });
    return v;
}

PrefixConsistency analyze_consistency(const stg::Stg& stg, const Prefix& prefix) {
    stg.require_dummy_free();
    PrefixConsistency result;
    result.initial_code = stg::Code(stg.num_signals());

    // Events grouped by signal (event ids ascending).
    std::vector<std::vector<EventId>> by_signal(stg.num_signals());
    for (EventId e = 0; e < prefix.num_events(); ++e)
        by_signal[stg.label(prefix.event(e).transition).signal].push_back(e);

    std::vector<int> v0(stg.num_signals(), -1);

    for (SignalId z = 0; z < stg.num_signals() && result.consistent; ++z) {
        const auto& ez = by_signal[z];
        // (1) No two edges of the same signal may be concurrent: otherwise
        // some firing sequence contains z+ z+ or makes the code non-binary.
        // For each event e (ascending), the later same-signal events minus
        // [e], successors(e) and conflicts(e) are those concurrent with e
        // (word-parallel); the lowest one is the reported pair.
        if (ez.size() > 1) {
            BitVec later = prefix.make_event_set();
            for (EventId f : ez) later.set(f);
            for (std::size_t i = 0; i + 1 < ez.size(); ++i) {
                const EventId e = ez[i];
                later.reset(e);
                BitVec cand = later;
                cand.subtract(prefix.local_config(e));
                cand.subtract(prefix.successors(e));
                cand.subtract(prefix.conflicts(e));
                if (cand.any()) {
                    const EventId f = static_cast<EventId>(cand.find_first());
                    result.consistent = false;
                    result.reason = "concurrent edges of signal " +
                                    stg.signal_name(z) + " (" +
                                    prefix.event_name(e) + " co " +
                                    prefix.event_name(f) + ")";
                    break;
                }
            }
        }
        if (!result.consistent) break;

        // (2) Alternation along causal chains; first occurrences fix v0.
        for (EventId e : ez) {
            const Polarity pol = stg.label(prefix.event(e).transition).polarity;
            // z-events inside [e]\{e} are totally ordered (no concurrency by
            // (1), no conflict within a configuration); the maximal one is
            // the one whose local configuration contains all others.
            EventId prev = kNoEvent;
            std::size_t best = 0;
            for (EventId f : ez) {
                if (f == e || !prefix.local_config(e).test(f)) continue;
                const std::size_t sz = prefix.local_config(f).count();
                if (prev == kNoEvent || sz > best) {
                    prev = f;
                    best = sz;
                }
            }
            if (prev != kNoEvent) {
                const Polarity prev_pol =
                    stg.label(prefix.event(prev).transition).polarity;
                if (prev_pol == pol) {
                    result.consistent = false;
                    result.reason = "signal " + stg.signal_name(z) +
                                    " does not alternate: " +
                                    prefix.event_name(prev) + " then " +
                                    prefix.event_name(e);
                    break;
                }
            } else {
                const int implied = pol == Polarity::Rising ? 0 : 1;
                if (v0[z] == -1) {
                    v0[z] = implied;
                } else if (v0[z] != implied) {
                    result.consistent = false;
                    result.reason = "signal " + stg.signal_name(z) +
                                    " has first occurrences of both signs";
                    break;
                }
            }
        }
    }

    // (3) Cut-off events must close the cycle consistently: the signal
    // change vector of [e] must equal that of the companion configuration
    // (they represent the same marking, hence must have the same code).
    if (result.consistent) {
        for (EventId e = 0; e < prefix.num_events(); ++e) {
            const Event& ev = prefix.event(e);
            if (!ev.cutoff) continue;
            std::vector<int> ve =
                change_vector_of(stg, prefix, prefix.local_config(e));
            std::vector<int> vf(stg.num_signals(), 0);
            if (ev.companion != kNoEvent)
                vf = change_vector_of(stg, prefix, prefix.local_config(ev.companion));
            if (ve != vf) {
                result.consistent = false;
                result.reason =
                    "cut-off event " + prefix.event_name(e) +
                    " reaches its companion marking with a different signal "
                    "change vector";
                break;
            }
        }
    }

    if (result.consistent)
        for (SignalId z = 0; z < stg.num_signals(); ++z)
            if (v0[z] == 1) result.initial_code.set(z);
    return result;
}

bool is_dynamically_conflict_free(const Prefix& prefix) {
    for (ConditionId b = 0; b < prefix.num_conditions(); ++b)
        if (prefix.condition(b).consumers.size() > 1) return false;
    return true;
}

}  // namespace stgcc::unf
