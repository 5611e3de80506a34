#include "unfolding/unfolder.hpp"

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "unfolding/configuration.hpp"
#include "unfolding/orders.hpp"
#include "util/hash.hpp"

namespace stgcc::unf {

/// The one writer of a Prefix (its friend): grows it in the ERV order and
/// hands it over when the possible-extensions queue runs dry.
class Unfolder {
public:
    Unfolder(const petri::NetSystem& sys, UnfoldOptions opts)
        : sys_(sys), opts_(opts), prefix_(sys) {}

    Prefix run() {
        obs::Span span("unfold");
        seed_initial_conditions();
        for (ConditionId b : prefix_.min_conditions()) extensions_from(b);

        // Possible-extension queue depth over time: one sample per popped
        // candidate (the paper's PE set is the live frontier).
        obs::Histogram& depth = obs::histogram("unfold.pe_queue_depth");
        std::size_t peak = 0;
        while (!queue_.empty()) {
            depth.observe(queue_.size());
            peak = std::max(peak, queue_.size());
            Candidate cand = std::move(queue_.extract(queue_.begin()).value());
            insert_event(std::move(cand));
        }
        obs::gauge("unfold.pe_queue_peak")
            .record_max(static_cast<std::int64_t>(peak));
        finish_instrumentation(span);
        return std::move(prefix_);
    }

private:
    /// End-of-run accounting: prefix sizes as monotonic counters (aggregated
    /// across unfold calls in the JSON report) and final sizes as span
    /// attributes.
    void finish_instrumentation(obs::Span& span) {
        obs::counter("unfold.runs").add();
        obs::counter("unfold.events").add(prefix_.num_events());
        obs::counter("unfold.conditions").add(prefix_.num_conditions());
        obs::counter("unfold.cutoffs").add(prefix_.num_cutoffs());
        std::size_t co_bits = 0;
        for (const BitVec& row : co_) co_bits += row.count();
        obs::gauge("unfold.co_pairs").set(static_cast<std::int64_t>(co_bits / 2));
        if (!span.recording()) return;
        span.attr("events", prefix_.num_events());
        span.attr("conditions", prefix_.num_conditions());
        span.attr("cutoffs", prefix_.num_cutoffs());
        span.attr("co_pairs", co_bits / 2);
        if (prefix_.num_events() > 0)
            span.attr("cutoff_ratio",
                      static_cast<double>(prefix_.num_cutoffs()) /
                          static_cast<double>(prefix_.num_events()));
    }

    struct Candidate {
        OrderKey key;
        petri::TransitionId transition;
        std::vector<ConditionId> preset;  // sorted

        friend bool operator<(const Candidate& a, const Candidate& b) {
            if (auto c = a.key.compare(b.key); c != 0)
                return c == std::strong_ordering::less;
            if (a.transition != b.transition) return a.transition < b.transition;
            return a.preset < b.preset;
        }
    };

    void seed_initial_conditions() {
        const petri::Marking& m0 = sys_.initial_marking();
        for (petri::PlaceId p = 0; p < sys_.net().num_places(); ++p) {
            if (m0[p] > 1)
                throw ModelError(
                    "unfolding requires a 1-safe net system (place " +
                    sys_.net().place_name(p) + " initially holds " +
                    std::to_string(m0[p]) + " tokens)");
            if (m0[p] == 1) prefix_.add_condition(p, kNoEvent);
        }
        // All minimal conditions are pairwise concurrent.
        const std::span<const ConditionId> minimal = prefix_.min_conditions();
        for (ConditionId b : minimal) register_condition(b);
        for (ConditionId b : minimal)
            for (ConditionId c : minimal)
                if (b != c) co_[b].set(c);
        marking_table_.emplace(place_set(m0), kNoEvent);
    }

    [[noreturn]] void throw_unsafe(petri::PlaceId p) const {
        throw ModelError("unfolding requires a 1-safe net system (place " +
                         sys_.net().place_name(p) +
                         " can hold two tokens simultaneously)");
    }

    /// A safe marking as its set of marked places, the cut-off table's key.
    /// A count above 1 means the net is not safe (and a set would merge it
    /// with the safe marking of the same places).
    BitVec place_set(const petri::Marking& m) const {
        BitVec set(m.num_places());
        for (petri::PlaceId p = 0; p < m.num_places(); ++p) {
            if (m[p] > 1) throw_unsafe(p);
            if (m[p] == 1) set.set(p);
        }
        return set;
    }

    void ensure_condition_capacity(std::size_t n) {
        if (n <= cond_capacity_) return;
        std::size_t cap = cond_capacity_ == 0 ? 64 : cond_capacity_;
        while (cap < n) cap *= 2;
        cond_capacity_ = cap;
        for (auto& v : co_) v.resize(cap);
    }

    /// Make the condition visible to the possible-extensions machinery.
    void register_condition(ConditionId b) {
        ensure_condition_capacity(b + 1);
        co_.resize(std::max<std::size_t>(co_.size(), b + 1), BitVec(cond_capacity_));
        by_place_.resize(sys_.net().num_places());
        by_place_[prefix_.condition(b).place].push_back(b);
    }

    /// Compute the concurrency set of a freshly added condition b in the
    /// postset of event e (standard incremental rule):
    ///   co(b) = (intersection of co(c) for c in *e)  u  (e* \ {b}).
    void compute_co(ConditionId b, EventId e,
                    const std::vector<ConditionId>& siblings) {
        const auto& ev = prefix_.event(e);
        BitVec co(cond_capacity_);
        bool first = true;
        for (ConditionId c : ev.preset) {
            if (first) {
                co = co_[c];
                co.resize(cond_capacity_);
                first = false;
            } else {
                co &= co_[c];
            }
        }
        for (ConditionId s : siblings)
            if (s != b) co.set(s);
        co_[b] = std::move(co);
        // Symmetrise.
        co_[b].for_each([&](std::size_t d) { co_[d].set(b); });
        // 1-safety guard: two concurrent conditions of the same place mean
        // the net is not safe, and the local-configuration cut-off criterion
        // is complete only for safe nets -- refuse rather than miscompute.
        const petri::PlaceId place = prefix_.condition(b).place;
        for (ConditionId d : by_place_[place])
            if (d != b && d < co_[b].size() && co_[b].test(d))
                throw_unsafe(place);
    }

    /// Enumerate the possible extensions whose preset has `trigger` as its
    /// largest condition.  Conditions are registered in id order (a postset
    /// all at once, before any of its triggers runs), so every other
    /// condition of such a preset already exists here, and each (t, preset)
    /// is generated exactly once: from its last-created condition.
    void extensions_from(ConditionId trigger) {
        const petri::PlaceId p0 = prefix_.condition(trigger).place;
        for (petri::TransitionId t : sys_.net().post_of_place(p0)) {
            std::vector<petri::PlaceId> slots;
            for (petri::PlaceId p : sys_.net().pre(t))
                if (p != p0) slots.push_back(p);
            std::vector<ConditionId> chosen{trigger};
            BitVec mask = co_[trigger];
            search_coset(t, slots, 0, chosen, mask);
        }
    }

    void search_coset(petri::TransitionId t, const std::vector<petri::PlaceId>& slots,
                      std::size_t slot, std::vector<ConditionId>& chosen,
                      const BitVec& mask) {
        if (slot == slots.size()) {
            emit_candidate(t, chosen);
            return;
        }
        for (ConditionId c : by_place_[slots[slot]]) {
            if (c > chosen.front()) break;  // by_place_ lists ascend
            if (!mask.test(c)) continue;
            chosen.push_back(c);
            BitVec next = mask;
            BitVec coc = co_[c];
            coc.resize(next.size());
            next &= coc;
            search_coset(t, slots, slot + 1, chosen, next);
            chosen.pop_back();
        }
    }

    void emit_candidate(petri::TransitionId t, const std::vector<ConditionId>& preset) {
        std::vector<ConditionId> sorted = preset;
        std::sort(sorted.begin(), sorted.end());

        // Causes = union of producers' local configurations.
        BitVec causes = prefix_.make_event_set();
        std::uint32_t cause_level = 0;
        for (ConditionId b : sorted) {
            const EventId prod = prefix_.condition(b).producer;
            if (prod == kNoEvent) continue;
            causes |= prefix_.local_config(prod);
            cause_level = std::max(cause_level, prefix_.event(prod).foata_level);
        }
        Candidate cand;
        cand.key = order_key_of_candidate(prefix_, causes, t, cause_level);
        cand.transition = t;
        cand.preset = std::move(sorted);
        queue_.insert(std::move(cand));
    }

    void insert_event(Candidate cand) {
        if (prefix_.num_events() >= opts_.max_events)
            throw ModelError("unfolding: event limit exceeded (" +
                             std::to_string(opts_.max_events) + "); unbounded net?");
        const EventId e = prefix_.add_event(cand.transition, cand.preset);
        if (obs::enabled() && (prefix_.num_events() & 1023) == 0) {
            // Periodic progress snapshot for long unfoldings (zero-length
            // span; shows up as a tick mark on the trace timeline).
            obs::Span tick("unfold.progress");
            tick.attr("events", prefix_.num_events());
            tick.attr("conditions", prefix_.num_conditions());
            tick.attr("queue", queue_.size());
        }

        // Add the postset conditions of e.
        for (petri::PlaceId p : sys_.net().post(cand.transition))
            prefix_.add_condition(p, e);
        const std::vector<ConditionId>& postset = prefix_.event(e).postset;
        if (prefix_.num_conditions() > opts_.max_conditions)
            throw ModelError("unfolding: condition limit exceeded");

        // Cut-off test against markings of existing local configurations
        // (and the initial marking).
        auto [it, inserted] = marking_table_.emplace(
            place_set(marking_of(prefix_, prefix_.local_config(e))), e);

        if (!inserted) {
            bool is_cutoff = true;
            if (opts_.order == AdequateOrder::McMillanSize) {
                // McMillan's criterion needs a strictly smaller companion.
                const std::size_t companion_size =
                    it->second == kNoEvent
                        ? 0
                        : prefix_.local_config(it->second).count();
                is_cutoff = companion_size < prefix_.local_config(e).count();
            }
            if (is_cutoff) {
                // Cut-off: postset conditions stay invisible to the
                // extensions machinery, so the unfolding stops beyond e.
                prefix_.mark_cutoff(e, it->second);
                return;
            }
        }

        for (ConditionId b : postset) register_condition(b);
        for (ConditionId b : postset) compute_co(b, e, postset);
        for (ConditionId b : postset) extensions_from(b);
    }

    const petri::NetSystem& sys_;
    UnfoldOptions opts_;
    Prefix prefix_;
    std::vector<BitVec> co_;  // concurrency relation over conditions
    std::size_t cond_capacity_ = 0;
    std::vector<std::vector<ConditionId>> by_place_;
    std::set<Candidate> queue_;
    /// Mark([e]) as a place set -> the first event reaching it (kNoEvent
    /// for M0): one word per entry when |P| <= 64.
    std::unordered_map<BitVec, EventId, BitVecHash> marking_table_;
};

namespace {

void validate_presets(const petri::NetSystem& sys) {
    for (petri::TransitionId t = 0; t < sys.net().num_transitions(); ++t)
        if (sys.net().pre(t).empty())
            throw ModelError("unfolding requires every transition to have a "
                             "non-empty preset (transition " +
                             sys.net().transition_name(t) + ")");
}

}  // namespace

Prefix unfold(const petri::NetSystem& sys, UnfoldOptions opts) {
    validate_presets(sys);
    return Unfolder(sys, opts).run();
}

}  // namespace stgcc::unf
