// stgcc -- high-level USC / CSC / normalcy checkers based on the unfolding
// prefix and the partial-order integer-programming search (the paper's
// method).  Construction unfolds the STG (or adopts an existing prefix /
// shared artifact bundle).  Each property has one search: USC is one
// CompatSolver run, CSC one per-signal decomposition, normalcy one record
// through both code-dominance orientations.  A satisfying pair of
// configurations becomes a witness with execution paths.
//
// All derived per-prefix data (consistency, coding problem, condition
// masks, the USC=>CSC certificate) lives in a shared cache::PrefixArtifacts;
// several checkers -- or a checker and a conflict-core / dot consumer --
// can read one bundle concurrently without recomputing anything.
#pragma once

#include <memory>

#include "cache/prefix_artifacts.hpp"
#include "core/coding_problem.hpp"
#include "core/compat_solver.hpp"
#include "sched/parallel.hpp"
#include "stg/results.hpp"
#include "unfolding/unfolder.hpp"

namespace stgcc::core {

class UnfoldingChecker {
public:
    /// Unfold the STG and prepare the coding problem.  Throws ModelError on
    /// inconsistent or dummy-carrying STGs.
    explicit UnfoldingChecker(const stg::Stg& stg, unf::UnfoldOptions opts = {});

    /// Adopt an already built complete prefix of `stg`.
    UnfoldingChecker(const stg::Stg& stg, unf::Prefix prefix);

    /// Adopt a shared artifact bundle (tier-1 cache).  Throws ModelError
    /// when the bundle's STG is inconsistent (same diagnosis as above).
    explicit UnfoldingChecker(cache::PrefixArtifactsPtr artifacts);

    [[nodiscard]] const stg::Stg& stg() const noexcept { return *stg_; }
    [[nodiscard]] const unf::Prefix& prefix() const noexcept {
        return artifacts_->prefix();
    }
    [[nodiscard]] const CodingProblem& problem() const noexcept {
        return *problem_;
    }
    /// The shared artifact bundle (never null).
    [[nodiscard]] const cache::PrefixArtifactsPtr& artifacts() const noexcept {
        return artifacts_;
    }

    /// Initial code v0 derived from the prefix.
    [[nodiscard]] const stg::Code& initial_code() const {
        return problem_->initial_code();
    }

    /// Unique State Coding: search for two configurations with equal codes
    /// and different markings, serially.  An exhaustive, uncancelled search
    /// that finds none records the USC=>CSC certificate on the artifacts.
    [[nodiscard]] stg::CodingCheckResult check_usc(SearchOptions opts = {}) const;

    /// The same search with its first-difference subtrees spread over `ex`
    /// (CompatSolver::solve on an executor).  The witness and the stats
    /// equal the serial run's at any `--jobs`; the certificate is recorded
    /// only when no subtree was cut by `opts.cancel`.
    [[nodiscard]] stg::CodingCheckResult check_usc(SearchOptions opts,
                                                  sched::Executor& ex) const;

    /// Complete State Coding: two configurations with equal codes and
    /// different enabled-output sets.  The paper's staged USC-then-CSC
    /// search with the Out-set leaf filter, decomposed into one instance
    /// per circuit-driven signal z (predicate "z enabled at exactly one of
    /// the two markings"), run serially.  Answers "holds" without searching
    /// once the USC=>CSC certificate is recorded.
    [[nodiscard]] stg::CodingCheckResult check_csc(SearchOptions opts = {}) const;

    /// The same search with the per-signal instances fanned out on `ex`
    /// with first-witness early stop: once a conflict for some signal is
    /// found, instances for later signals are cancelled.  Deterministic at
    /// any `--jobs`: the reported witness is the one of the *lowest-id*
    /// conflicting signal, and an `Executor(1)` runs the identical
    /// decomposition serially.
    [[nodiscard]] stg::CodingCheckResult check_csc(SearchOptions opts,
                                                  sched::Executor& ex) const;

    /// Normalcy of every circuit-driven signal (paper, section 6): one
    /// record of p-/n-normal flags, all open at the start.  The LessEq
    /// orientation of the code-dominance system falsifies flags in place;
    /// the GreaterEq orientation runs only while a flag is still open and
    /// starts from the same record.  Each falsified flag carries a witness.
    [[nodiscard]] stg::NormalcyResult check_normalcy(SearchOptions opts = {}) const;

    /// Forwards to the one-argument overload (`ex` is not used); kept only
    /// because perfbench/stgbench.cpp calls it.
    [[nodiscard]] stg::NormalcyResult check_normalcy(SearchOptions opts,
                                                     sched::Executor& ex) const;

private:
    cache::PrefixArtifactsPtr artifacts_;
    const stg::Stg* stg_;
    const CodingProblem* problem_;
};

}  // namespace stgcc::core
