// stgcc -- one-call verification facade and report formatting.
//
// Runs the full pipeline of the paper on an STG: contract its dummies when
// it has any, build the complete prefix, check consistency, then USC, CSC
// and (optionally) normalcy with the unfolding + integer-programming
// method, returning witnesses for every violated property.
#pragma once

#include <string>

#include "core/checkers.hpp"
#include "obs/json.hpp"
#include "stg/contraction.hpp"

namespace stgcc::core {

struct VerifyOptions {
    unf::UnfoldOptions unfold;
    SearchOptions search;
    /// Worker threads for the checking phases (src/sched/): the USC-then-CSC
    /// chain (its per-signal CSC instances fanned out) runs concurrently
    /// with the normalcy check, whose two orientations run one after the
    /// other.  1 = fully serial (no pool is created); 0 = hardware
    /// concurrency.  Verdicts and witnesses are identical at any value.
    unsigned jobs = 1;
    bool check_normalcy = true;
    /// Also run the section 5 deadlock check.
    bool check_deadlock = false;
    /// Also check output persistency (speed-independence precondition).
    bool check_persistency = false;
};

struct PrefixStats {
    std::size_t conditions = 0;  ///< |B|
    std::size_t events = 0;      ///< |E|
    std::size_t cutoffs = 0;     ///< |E_cut|
};

struct VerificationReport {
    /// Shared per-prefix artifact bundle the checks ran on (tier-1 cache):
    /// prefix, consistency, coding problem, USC=>CSC certificate.  Lets
    /// consumers such as `stgcheck --cores` / `--dot` reuse the prefix
    /// instead of re-unfolding.  Every returned report holds it; drop it
    /// (reset()) to release prefix memory when keeping many reports, as
    /// `stgbatch` does.
    cache::PrefixArtifactsPtr artifacts;
    PrefixStats prefix;
    unsigned jobs = 1;  ///< resolved worker count the checks ran with
    bool consistent = true;
    std::string inconsistency_reason;
    stg::Code initial_code;
    stg::CodingCheckResult usc;
    stg::CodingCheckResult csc;
    stg::NormalcyResult normalcy;
    bool normalcy_checked = false;
    /// When the input had dummies, the contracted STG the checks actually
    /// ran on (its presence is what renders the "reduction" line).  Witness
    /// traces in this report are nevertheless expressed on the *original*
    /// input net: verify_stg translates them back through the contraction's
    /// witness map before returning.  Consumers that need the dummy-free
    /// checked net itself -- synthesis, the state-graph baseline -- read
    /// this field.
    std::optional<stg::Stg> reduced_stg;
    bool deadlock_checked = false;
    bool deadlock_free = true;
    std::vector<petri::TransitionId> deadlock_trace;
    bool persistency_checked = false;
    bool persistent = true;
    /// The persistency violation (ids w.r.t. the same net as every other
    /// witness); format_report renders the "output X disabled by Y" note
    /// from it.
    struct PersistencyViolation {
        petri::TransitionId output = petri::kNoTransition;
        petri::TransitionId disabler = petri::kNoTransition;
        std::vector<petri::TransitionId> trace;
    };
    std::optional<PersistencyViolation> persistency_violation;
    /// Always zero and read by nothing; kept only because
    /// perfbench/stgbench.cpp assigns it (see cache::ClauseStore).
    cache::ClauseStore::Efficacy cuts;
};

/// The net the checks run on, and its prefix bundle.  prepare_stg is the
/// one place that decides it: an input with dummies is contracted
/// (stg/contraction.hpp; a dummy that resists secure contraction is a
/// ModelError), and the PrefixArtifacts are built on the contracted net or
/// else on the input itself, which is not copied.
struct PreparedStg {
    /// contract_dummies(input) when the input has dummies; null otherwise
    /// (the checks then see the input).
    std::shared_ptr<const stg::ContractionResult> contraction;
    /// The checked net's prefix bundle.  It shares ownership of the
    /// contraction, but only refers to a dummy-free input: the caller keeps
    /// that input alive as long as the artifacts.
    cache::PrefixArtifactsPtr artifacts;
};

[[nodiscard]] PreparedStg prepare_stg(const stg::Stg& input,
                                      const unf::UnfoldOptions& opts);

/// Run the whole pipeline.  An input with dummies is contracted first
/// (stg/contraction.hpp); a dummy that resists secure contraction is a
/// ModelError.  Inconsistent STGs short-circuit (USC/CSC/normalcy are left
/// at their defaults, consistent == false).
[[nodiscard]] VerificationReport verify_stg(const stg::Stg& stg,
                                            VerifyOptions opts = {});

/// Same, but on a caller-owned executor (VerifyOptions::jobs is ignored).
/// Lets a corpus driver such as `stgbatch` share one pool between
/// model-level and within-model parallelism: the checking phases submit to
/// `ex` and help while waiting, so nesting cannot deadlock.
[[nodiscard]] VerificationReport verify_stg(const stg::Stg& stg,
                                            VerifyOptions opts,
                                            sched::Executor& ex);

/// The back half of verify_stg, for callers that keep the preparation of
/// a model across calls (stgd's bundles).  `prepared` is
/// prepare_stg(input, ...).  reduced_stg is filled in and every witness is
/// translated onto `input`.
[[nodiscard]] VerificationReport verify_reduced(const stg::Stg& input,
                                                const PreparedStg& prepared,
                                                const VerifyOptions& opts,
                                                sched::Executor& ex);

/// Multi-line human-readable report (used by the examples and the CLI).
[[nodiscard]] std::string format_report(const stg::Stg& stg,
                                        const VerificationReport& report);

/// Machine-readable report body for `stgcheck --json` (model sizes, prefix
/// sizes, per-property verdicts, per-check solver stats).  The caller may
/// attach the metrics-registry snapshot alongside; see docs/OBSERVABILITY.md
/// for the schema.
[[nodiscard]] obs::Json report_json(const stg::Stg& stg,
                                    const VerificationReport& report);

/// Render a conflict witness as two labelled firing sequences.
[[nodiscard]] std::string format_witness(const stg::Stg& stg,
                                         const stg::ConflictWitness& witness);

/// Render a normalcy violation witness.
[[nodiscard]] std::string format_normalcy_witness(const stg::Stg& stg,
                                                  const stg::NormalcyWitness& w);

}  // namespace stgcc::core
