// stgcc -- construction of finite complete prefixes (ERV algorithm).
//
// Implements the unfolding procedure of Esparza-Roemer-Vogler with the total
// adequate order from orders.hpp and McMillan-style cut-off events: an event
// e popped from the possible-extensions queue is a cut-off when some event f
// already in the prefix (or the virtual initial configuration) satisfies
// Mark([f]) = Mark([e]).  The resulting prefix is complete in the strong
// sense the paper requires (footnote 2): every reachable marking is
// Mark(C) for a cut-off-free configuration C, and every transition enabled
// at Mark(C) is an extension of C within the prefix.
#pragma once

#include <cstddef>

#include "unfolding/occurrence_net.hpp"

namespace stgcc::unf {

/// Adequate order governing cut-off detection.
enum class AdequateOrder {
    /// The ERV total order (size, then Parikh, then Foata): an event is a
    /// cut-off as soon as any earlier event has the same marking.  Yields
    /// prefixes never larger than the reachability graph.
    ErvTotal,
    /// McMillan's original size order: a cut-off needs a strictly smaller
    /// companion configuration.  Simpler but can produce larger prefixes
    /// (kept for comparison; see bench_paper unfolding).
    McMillanSize,
};

struct UnfoldOptions {
    /// Abort with ModelError after this many events (runaway guard for
    /// unbounded nets).  The prefix keeps causality/conflict/successor
    /// relations as |E|^2-bit matrices, so the default also bounds memory
    /// to a few hundred megabytes; raise it explicitly for huge models.
    std::size_t max_events = 20'000;
    /// Abort with ModelError after this many conditions.
    std::size_t max_conditions = 200'000;
    AdequateOrder order = AdequateOrder::ErvTotal;
};

/// Build the finite complete prefix of the unfolding of `sys`.
/// The net system must be 1-safe: the local-configuration cut-off
/// criterion is complete only for safe nets, so non-safe systems are
/// rejected with ModelError (detected exactly, either at the initial
/// marking or as soon as two same-place conditions become concurrent).
/// Unbounded nets additionally trip the event limit.
[[nodiscard]] Prefix unfold(const petri::NetSystem& sys, UnfoldOptions opts = {});

}  // namespace stgcc::unf
