// stgcc -- STG-level analyses performed directly on the unfolding prefix,
// without building the state graph: consistency checking (and derivation of
// the initial code v0), and detection of dynamic conflict-freeness (the
// paper's section 7 optimisation precondition).
#pragma once

#include <string>

#include "stg/stg.hpp"
#include "unfolding/occurrence_net.hpp"

namespace stgcc::unf {

struct PrefixConsistency {
    bool consistent = true;
    std::string reason;       ///< diagnosis when not consistent
    stg::Code initial_code;   ///< v0, derived from first signal occurrences
};

/// Check STG consistency on a finite complete prefix (the [15]-style check
/// the paper refers to): per signal, no two concurrent edges, strict
/// alternation along causal chains, agreeing first-occurrence signs, and
/// equal signal change vectors for each cut-off event and its companion
/// configuration.  The STG must be dummy-free.
[[nodiscard]] PrefixConsistency analyze_consistency(const stg::Stg& stg,
                                                    const Prefix& prefix);

/// True when the STG is free from dynamic conflicts, detected on the prefix
/// as: no condition has more than one consumer event.  For complete
/// prefixes this is exact (every reachable marking and enabled transition is
/// represented).
[[nodiscard]] bool is_dynamically_conflict_free(const Prefix& prefix);

/// Signal change vector of a configuration given as a bit set of events.
[[nodiscard]] std::vector<int> change_vector_of(const stg::Stg& stg,
                                                const Prefix& prefix,
                                                BitSpan events);

}  // namespace stgcc::unf
