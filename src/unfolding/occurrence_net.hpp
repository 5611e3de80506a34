// stgcc -- occurrence nets / branching-process prefixes.
//
// A branching process (B, E, G, h) of a net system is one Prefix: the ERV
// unfolder (the one friend, unf::Unfolder) grows it event by event, and
// every consumer reads the same object afterwards through the const API
// below (docs/MEMORY.md).  Besides the bipartite structure it keeps the
// derived relations the verification algorithms need:
//   * per event, its local configuration [e] as a bit row over events,
//   * per event, the set of events it is in (structural) conflict with,
//   * per event, its causal successors,
//   * per event, its Foata level (causal depth),
//   * the cut-off flag and companion event of the ERV algorithm.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "petri/net_system.hpp"
#include "util/bitvec.hpp"

namespace stgcc::unf {

using ConditionId = std::uint32_t;
using EventId = std::uint32_t;
inline constexpr ConditionId kNoCondition = static_cast<ConditionId>(-1);
inline constexpr EventId kNoEvent = static_cast<EventId>(-1);

struct Condition {
    petri::PlaceId place = petri::kNoPlace;  ///< h(b)
    EventId producer = kNoEvent;             ///< unique producing event; kNoEvent for minimal conditions
    std::vector<EventId> consumers;          ///< events with b in their preset
};

struct Event {
    petri::TransitionId transition = petri::kNoTransition;  ///< h(e)
    std::vector<ConditionId> preset;
    std::vector<ConditionId> postset;
    bool cutoff = false;
    /// For cut-off events: the event f with Mark([f]) = Mark([e]) that made
    /// this a cut-off, or kNoEvent when the companion is the (virtual) empty
    /// configuration (Mark([e]) = M0).
    EventId companion = kNoEvent;
    std::uint32_t foata_level = 1;  ///< 1 + max level of causal predecessors
};

/// A finite complete prefix.  Read-only to everyone but the unfolder.
///
/// Relation rows are stored as BitVecs of the current event *capacity*
/// (power-of-two doubling), so appending an event never reallocates every
/// row; every bit at or above num_events() stays clear, so the accessors
/// hand out exactly num_events()-bit BitSpan views of the same words
/// without copying.  Move-only; moving keeps every view valid (the rows'
/// words stay put on the heap).
class Prefix {
public:
    Prefix(Prefix&&) noexcept = default;
    Prefix& operator=(Prefix&&) noexcept = default;
    Prefix(const Prefix&) = delete;
    Prefix& operator=(const Prefix&) = delete;

    [[nodiscard]] const petri::NetSystem& system() const noexcept { return *sys_; }

    [[nodiscard]] std::size_t num_conditions() const noexcept { return conditions_.size(); }
    [[nodiscard]] std::size_t num_events() const noexcept { return events_.size(); }
    [[nodiscard]] std::size_t num_cutoffs() const noexcept { return num_cutoffs_; }

    [[nodiscard]] const Condition& condition(ConditionId b) const {
        STGCC_REQUIRE(b < conditions_.size());
        return conditions_[b];
    }
    [[nodiscard]] const Event& event(EventId e) const {
        STGCC_REQUIRE(e < events_.size());
        return events_[e];
    }

    /// Local configuration [e] as a bit row over events (includes e).
    /// Exactly num_events() bits wide; valid as long as the prefix.
    [[nodiscard]] BitSpan local_config(EventId e) const { return row(local_config_, e); }

    /// Events in structural conflict with e (in either direction).
    [[nodiscard]] BitSpan conflicts(EventId e) const { return row(conflict_, e); }

    /// Causal successor set of e: all events g with e in [g] (includes e).
    [[nodiscard]] BitSpan successors(EventId e) const { return row(succ_, e); }

    /// True when f is a causal predecessor of e (f < e, strict).
    [[nodiscard]] bool causes(EventId f, EventId e) const {
        return f != e && local_config(e).test(f);
    }

    /// True when e and f are concurrent (can occur in one configuration,
    /// neither causing the other).
    [[nodiscard]] bool concurrent(EventId e, EventId f) const {
        return e != f && !local_config(e).test(f) && !local_config(f).test(e) &&
               !conflicts(e).test(f);
    }

    /// Minimal conditions (Min(ON)), representing the initial marking.
    [[nodiscard]] std::span<const ConditionId> min_conditions() const noexcept {
        return min_conditions_;
    }

    /// An all-zero event set of exactly num_events() bits -- the width of
    /// every relation row; use for building configurations to pass to the
    /// helpers in configuration.hpp.
    [[nodiscard]] BitVec make_event_set() const { return BitVec(num_events()); }

    /// Dot/debug rendering: event label like "e5:dsr+" using original names.
    [[nodiscard]] std::string event_name(EventId e) const;
    [[nodiscard]] std::string condition_name(ConditionId b) const;

    /// Graphviz dot text of the prefix (cut-offs drawn double-boxed).
    [[nodiscard]] std::string to_dot() const;

private:
    friend class Unfolder;
    explicit Prefix(const petri::NetSystem& sys) : sys_(&sys) {}

    [[nodiscard]] BitSpan row(const std::vector<BitVec>& rows, EventId e) const {
        STGCC_REQUIRE(e < events_.size());
        return BitSpan(rows[e].span().words(), events_.size());
    }

    /// Append a condition; a producer of kNoEvent makes it minimal,
    /// otherwise it joins the producer's postset.
    ConditionId add_condition(petri::PlaceId place, EventId producer);
    /// Append an event; computes its local configuration, conflicts,
    /// successors and Foata level from the preset.  Postset conditions are
    /// added by the caller afterwards via add_condition().
    EventId add_event(petri::TransitionId transition, std::vector<ConditionId> preset);
    void mark_cutoff(EventId e, EventId companion);
    void ensure_event_capacity(std::size_t n);

    const petri::NetSystem* sys_;
    std::vector<Condition> conditions_;
    std::vector<Event> events_;
    std::vector<BitVec> local_config_;  // width = event capacity
    std::vector<BitVec> conflict_;      // width = event capacity
    std::vector<BitVec> succ_;          // width = event capacity
    std::vector<ConditionId> min_conditions_;
    std::size_t event_capacity_ = 0;
    std::size_t num_cutoffs_ = 0;
};

}  // namespace stgcc::unf
