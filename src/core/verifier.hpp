// stgcc -- one-call verification facade and report formatting.
//
// Runs the full pipeline of the paper on an STG: build the complete prefix,
// check consistency, then USC, CSC and (optionally) normalcy with the
// unfolding + integer-programming method, returning witnesses for every
// violated property.
#pragma once

#include <string>

#include "cache/result_cache.hpp"
#include "core/checkers.hpp"
#include "obs/json.hpp"
#include "stg/reduce/reduce.hpp"

namespace stgcc::core {

struct VerifyOptions {
    unf::UnfoldOptions unfold;
    SearchOptions search;
    /// Worker threads for the checking phases (src/sched/): USC, the
    /// per-signal CSC instances and the two normalcy orientations run
    /// concurrently.  1 = fully serial (no pool is created); 0 = hardware
    /// concurrency.  Verdicts and witnesses are identical at any value.
    unsigned jobs = 1;
    bool check_normalcy = true;
    /// Verdict-preserving net reductions run before unfolding
    /// (docs/REDUCTIONS.md).  All witnesses in the returned report are
    /// translated back to the *original* input net.  Dummies that resist
    /// secure contraction still cause a ModelError (the checkers require
    /// dummy-free STGs).
    stg::reduce::Options reduce;
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
    /// instead of re-unfolding.  Null only on the early contract-failure
    /// paths; drop it (reset()) to release prefix memory when keeping many
    /// reports, as `stgbatch` does.
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
    std::size_t dummies_contracted = 0;
    /// Per-pass accounting of the reduction pipeline (empty when it did not
    /// run or changed nothing).
    stg::reduce::Summary reduction;
    /// When reduction changed the net, the STG the checks actually ran on.
    /// Witness traces in this report are nevertheless expressed on the
    /// *original* input net: verify_stg translates them back through the
    /// composed witness chain before returning (stgd does the same via
    /// translate_report).  Consumers that need the dummy-free checked net
    /// itself -- synthesis, the state-graph baseline -- read this field.
    std::optional<stg::Stg> reduced_stg;
    bool deadlock_checked = false;
    bool deadlock_free = true;
    std::vector<petri::TransitionId> deadlock_trace;
    bool persistency_checked = false;
    bool persistent = true;
    std::string persistency_note;  ///< which output / disabler, when violated
    /// Structured form of the persistency violation (ids w.r.t. the same
    /// net as every other witness), so the note can be re-rendered after
    /// witness translation.
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

/// Run the whole pipeline.  Inconsistent STGs short-circuit (USC/CSC/
/// normalcy are left at their defaults, consistent == false).
[[nodiscard]] VerificationReport verify_stg(const stg::Stg& stg,
                                            VerifyOptions opts = {});

/// Same, but on a caller-owned executor (VerifyOptions::jobs is ignored).
/// Lets a corpus driver such as `stgbatch` share one pool between
/// model-level and within-model parallelism: the checking phases submit to
/// `ex` and help while waiting, so nesting cannot deadlock.
[[nodiscard]] VerificationReport verify_stg(const stg::Stg& stg,
                                            VerifyOptions opts,
                                            sched::Executor& ex);

/// Run the checking phases on an already built artifact bundle, skipping
/// reduction and unfolding entirely (VerifyOptions::reduce and ::unfold
/// are ignored -- they were decided when the bundle was built).  This is
/// the resident-service fast path (docs/SERVICE.md): `stgd` keeps recent
/// bundles in memory and re-checks a model under different options
/// without paying parse or unfold again.
/// The caller owns the reduction bookkeeping (report.reduced_stg /
/// reduction / dummies_contracted are left unset) and must call
/// translate_report itself when the bundle was built from a reduced net.
/// Verdicts and witnesses are identical to a fresh verify_stg of the same
/// (possibly reduced) STG.
[[nodiscard]] VerificationReport verify_artifacts(
    cache::PrefixArtifactsPtr artifacts, VerifyOptions opts,
    sched::Executor& ex);

/// Rewrite every witness in `report` -- conflict/normalcy traces and
/// markings, the deadlock trace, the persistency violation and its note --
/// from the reduced net the checks ran on back to `input`, via the
/// composed witness chain of the reduction that produced that net.  No-op
/// on an empty chain.  Throws ModelError if a trace fails to replay on
/// `input` (a reduction soundness bug).
void translate_report(VerificationReport& report, const stg::Stg& input,
                      const stg::reduce::WitnessChain& chain);

/// verify_stg plus the shared semantic result-cache tier ("stgcore",
/// docs/CACHING.md): the input is reduced first and the *reduced* net's
/// canonical hash keys a stored pre-translation report, so structurally
/// equivalent inputs -- reordered source text, nets differing only by
/// reducible structure -- share warm verdict entries even though their
/// content hashes differ.  On a hit the stored report is decoded against
/// this input's own reduced net and translated through this input's own
/// witness chain, so rendering is always faithful to the caller's net.
/// `semantic_hit` (optional) reports whether the verdict came from the
/// cache; report.artifacts is null in that case.
[[nodiscard]] VerificationReport verify_stg_cached(
    const stg::Stg& input, VerifyOptions opts,
    const cache::ResultCache& rcache, bool* semantic_hit = nullptr);

/// Options fragment of a semantic ("stgcore") cache entry: only the flags
/// that change what the checks compute -- the reduce spec is deliberately
/// absent, because the entry is keyed by the reduced net itself.  One
/// spelling shared by verify_stg_cached and stgd.
[[nodiscard]] std::string semantic_entry_options(const VerifyOptions& opts);

/// Machine-readable per-pass reduction accounting (rounds, removals,
/// remaining dummy names, per-pass counts).  One schema shared by
/// `stgcheck --json` ("reduction" key), stgd's report rows and the
/// stgbatch aggregate.
[[nodiscard]] obs::Json reduction_json(const stg::reduce::Summary& s);

/// Render the "output X disabled by Y via: ..." persistency note on `stg`
/// (which must be the net the violation's ids refer to).
[[nodiscard]] std::string persistency_note_text(
    const stg::Stg& stg, const VerificationReport::PersistencyViolation& v);

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
