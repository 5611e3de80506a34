// stgcc -- secure contraction of dummy (tau-labelled) transitions.
//
// The paper's algorithms assume dummy-free STGs (the tau case is deferred
// to its technical-report version); practical specifications, however,
// often carry dummies from high-level translation.  verify_stg contracts
// them whenever the input has any, by the standard product contraction: a
// dummy t with preset P and postset Q is replaced by the places
// {r_pq | p in P, q in Q} with
//   *r_pq = *p u (*q \ {t}),   r_pq* = (p* \ {t}) u q*,   M(r_pq) = M(p)+M(q),
// applied only when the contraction is *type-1 secure* (every place feeding
// t feeds nothing else, and P n Q = 0), which preserves the STG's
// branching behaviour on visible labels.  A marked place that every
// adjacent transition both consumes and produces never changes its
// marking, so a self-loop of t on such a place is no obstacle: t's arcs to
// it are dropped first.  Contraction iterates to a fixed point; a dummy it
// cannot remove reaches the checkers, which reject it with a ModelError.
#pragma once

#include <optional>
#include <vector>

#include "stg/stg.hpp"

namespace stgcc::stg {

/// A trace of the input net together with the (tau-closed) marking it
/// reaches: a contracted-net trace translated back to the input.
struct TranslatedState {
    std::vector<petri::TransitionId> trace;
    petri::Marking marking;
};

/// How the contracted net translates back to its input net.
///
/// Contraction removes dummies only and keeps every other transition in
/// order, so the map is the input id of each contracted-net transition
/// plus the removed dummies.  Translation is by guided replay on the input
/// net: fire the mapped transition when it is enabled, otherwise fire the
/// lowest-id enabled removed dummy first -- type-1 security guarantees a
/// removed dummy's preset tokens are wanted by nobody else, so greedy
/// firing can never steal an enablement.  The replay reconstructs the
/// input-net marking for free, and a final tau-closure advances it past any
/// still-enabled removed dummies, so the rendered marking is the canonical
/// representative of the contracted marking's class.
struct WitnessMap {
    std::vector<petri::TransitionId> to_input;  ///< indexed by contracted id
    std::vector<petri::TransitionId> removed;   ///< input ids, ascending

    /// Translate a contracted-net trace to an `input`-net trace + marking.
    /// nullopt only if replay fails (a soundness bug; callers treat it as
    /// fatal) or a pathological dummy cycle exceeds the iteration bound.
    [[nodiscard]] std::optional<TranslatedState> translate(
        const Stg& input, const std::vector<petri::TransitionId>& trace) const;
};

/// True when the dummy transition t can be securely contracted (type-1):
/// t is a dummy, has no self-loop place other than a constant one, and
/// every preset place of t has t as its only consumer.
[[nodiscard]] bool is_contractable(const Stg& stg, petri::TransitionId t);

struct ContractionResult {
    Stg stg;                     ///< the contracted STG
    std::size_t contracted = 0;  ///< dummies removed
    WitnessMap map;              ///< from `stg` back to the input
};

/// Contract securely contractable dummies to a fixed point.  Signals, the
/// labelled transitions and the model name are preserved; places are
/// renamed where merged.  The result still contains the dummies no secure
/// rule applies to.
[[nodiscard]] ContractionResult contract_dummies(const Stg& input);

}  // namespace stgcc::stg
