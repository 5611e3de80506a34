// stgcc -- high-level USC / CSC / normalcy checkers based on the unfolding
// prefix and the partial-order integer-programming search (the paper's
// method).  Construction unfolds the STG (or adopts an existing prefix /
// shared artifact bundle); each check runs the CompatSolver with the
// appropriate code relation and separating predicate, and converts a
// satisfying pair of configurations into a ConflictWitness with execution
// paths.
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
    /// and different markings.  An exhaustive, uncancelled search that finds
    /// none records the USC=>CSC certificate on the artifacts.
    [[nodiscard]] stg::CodingCheckResult check_usc(SearchOptions opts = {}) const;

    /// Complete State Coding: search for two configurations with equal codes
    /// and different enabled-output sets (the paper's staged USC-then-CSC
    /// approach collapses to filtering USC solutions by the Out predicate).
    /// Both overloads answer "holds" without searching once the USC=>CSC
    /// certificate is recorded.
    [[nodiscard]] stg::CodingCheckResult check_csc(SearchOptions opts = {}) const;

    /// CSC decomposed into independent per-signal instances (one solve per
    /// circuit-driven signal z, predicate "z enabled at exactly one of the
    /// two markings") fanned out on `ex` with first-witness early stop:
    /// once a conflict for some signal is found, instances for later
    /// signals are cancelled.  Deterministic at any `--jobs`: the reported
    /// witness is the one of the *lowest-id* conflicting signal, and an
    /// `Executor(1)` runs the identical decomposition serially.  Note the
    /// witness may legitimately differ from the single-instance
    /// check_csc(), which reports the globally first conflicting pair.
    [[nodiscard]] stg::CodingCheckResult check_csc(SearchOptions opts,
                                                  sched::Executor& ex) const;

    /// Normalcy of every circuit-driven signal (paper, section 6): solve the
    /// code-dominance system in both orientations, classifying each signal
    /// as p-normal / n-normal / not normal, with witnesses.
    [[nodiscard]] stg::NormalcyResult check_normalcy(SearchOptions opts = {}) const;

    /// Normalcy with the two code-dominance orientations run as independent
    /// instances on `ex` (the GreaterEq pass is cancelled early if the
    /// LessEq pass already falsifies every flag).  Results are merged in
    /// orientation order (LessEq first), so verdicts and witnesses are
    /// identical at any `--jobs`, including `Executor(1)`.
    [[nodiscard]] stg::NormalcyResult check_normalcy(SearchOptions opts,
                                                     sched::Executor& ex) const;

private:
    [[nodiscard]] stg::ConflictWitness make_witness(const BitVec& ca,
                                                    const BitVec& cb) const;

    /// One normalcy orientation solved against fresh per-signal state.
    struct NormalcyPass {
        std::vector<stg::SignalNormalcy> per_signal;
        stg::CheckStats stats;
        bool all_resolved = false;  ///< every flag of every signal falsified
    };
    [[nodiscard]] NormalcyPass run_normalcy_pass(
        CodeRelation rel, SearchOptions opts,
        const std::vector<stg::SignalId>& outputs) const;

    cache::PrefixArtifactsPtr artifacts_;
    const stg::Stg* stg_;
    const CodingProblem* problem_;
};

}  // namespace stgcc::core
