// stgcc -- operations on configurations of a branching-process prefix.
//
// A configuration is represented as a bit set over the prefix's events,
// exactly num_events() bits wide (make_event_set() hands out the right
// width), passed as a non-owning BitSpan so relation rows and owned BitVecs
// use the same entry points.  These helpers implement Mark(C), Parikh
// vectors and linearisation into firing sequences of the original net --
// the witness "execution paths" the paper produces.
#pragma once

#include <vector>

#include "unfolding/occurrence_net.hpp"

namespace stgcc::unf {

/// True when `events` is causally closed and conflict-free.
[[nodiscard]] bool is_configuration(const Prefix& prefix, BitSpan events);

/// Mark(C): the reachable marking of the original net represented by C,
/// by the marking equation M0 + post(C) - pre(C).
[[nodiscard]] petri::Marking marking_of(const Prefix& prefix, BitSpan events);

/// Events of C in a topological (causality-respecting) order.
[[nodiscard]] std::vector<EventId> linearize(const Prefix& prefix,
                                             BitSpan events);

/// Parikh vector of C over the transitions of the original net.
[[nodiscard]] petri::ParikhVector parikh_of(const Prefix& prefix,
                                            BitSpan events);

/// A firing sequence of the original net executing C from M0.
[[nodiscard]] std::vector<petri::TransitionId> firing_sequence_of(
    const Prefix& prefix, BitSpan events);

}  // namespace stgcc::unf
