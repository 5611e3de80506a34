// stgcc -- tier-1 cache: per-prefix shared artifacts (docs/CACHING.md).
//
// Everything the USC / CSC / normalcy checkers derive from one unfolding
// prefix is computed exactly once here and then shared read-only by every
// solver instance of the model:
//   * the consistency analysis (and the derived initial code v0),
//     which verify_stg and the CodingProblem used to compute separately,
//   * the CodingProblem, which with the prefix is the solver's only input:
//     the cut-off mask, per-signal masks and leaf tables (place flows, M0,
//     circuit-driven preset masks), held by the problem itself; the
//     closure rows are the prefix's own,
//   * the USC=>CSC certificate: set once an exhaustive USC search has
//     found no conflict, after which CSC holds without searching.
//
// The object is immutable after construction (the certificate is an
// atomic flag), so a PrefixArtifactsPtr may be shared across any number of
// worker threads; UnfoldingChecker and verify_stg read through
// it, and callers such as `stgcheck --cores` / `--dot` reuse the prefix
// instead of re-unfolding.
//
// Inconsistent STGs construct fine -- consistency() carries the diagnosis
// and problem() throws the same ModelError the CodingProblem constructor
// used to raise, so checker construction keeps its historical behaviour.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/coding_problem.hpp"
#include "unfolding/prefix_checks.hpp"
#include "unfolding/unfolder.hpp"

namespace stgcc::cache {

/// The USC=>CSC certificate of one prefix (docs/ALGORITHMS.md): recorded by
/// UnfoldingChecker::check_usc after an exhaustive, uncancelled search that
/// found no conflict, and consulted by the one CSC search (the per-signal
/// decomposition behind both check_csc overloads).  The old name,
/// PrefixArtifacts::clauses() and the always-zero efficacy() stay only
/// because perfbench/stgbench.cpp compiles against them; they go with the
/// next change to the benchmark.
class ClauseStore {
public:
    struct Efficacy {
        std::uint64_t recorded = 0;
        std::uint64_t replayed = 0;
        std::uint64_t pruned_nodes = 0;
    };
    [[nodiscard]] Efficacy efficacy() const noexcept { return {}; }

    void record_usc_holds() noexcept {
        usc_holds_.store(true, std::memory_order_release);
    }
    [[nodiscard]] bool usc_holds() const noexcept {
        return usc_holds_.load(std::memory_order_acquire);
    }

private:
    std::atomic<bool> usc_holds_{false};
};

class PrefixArtifacts {
public:
    /// Unfold `stg` and derive all artifacts.  Throws ModelError for
    /// dummy-carrying STGs and for STGs whose unfolding exceeds the limits.
    /// `stg` must outlive the artifacts.
    explicit PrefixArtifacts(const stg::Stg& stg, unf::UnfoldOptions opts = {});

    /// Adopt an already built complete prefix of `stg`.
    PrefixArtifacts(const stg::Stg& stg, unf::Prefix prefix);

    /// Owning variant: keeps `stg` alive alongside the artifacts (used by
    /// verify_stg for contracted STGs, whose report outlives the local).
    PrefixArtifacts(std::shared_ptr<const stg::Stg> stg,
                    unf::UnfoldOptions opts = {});

    [[nodiscard]] const stg::Stg& stg() const noexcept { return *stg_; }
    [[nodiscard]] const unf::Prefix& prefix() const noexcept { return prefix_; }

    /// The consistency analysis, computed exactly once per prefix.
    [[nodiscard]] const unf::PrefixConsistency& consistency() const noexcept {
        return consistency_;
    }
    [[nodiscard]] bool consistent() const noexcept {
        return consistency_.consistent;
    }

    /// The shared coding problem.  Throws ModelError (message identical to
    /// the historical CodingProblem diagnosis) when the STG is inconsistent.
    [[nodiscard]] const core::CodingProblem& problem() const;

    /// The USC=>CSC certificate.  Mutable through const artifacts: it
    /// records a proved fact and never changes a verdict.
    [[nodiscard]] ClauseStore& clauses() const noexcept { return clauses_; }

private:
    void build();

    std::shared_ptr<const stg::Stg> owned_stg_;  ///< may be null (aliasing ctors)
    const stg::Stg* stg_;
    unf::Prefix prefix_;
    unf::PrefixConsistency consistency_;
    std::unique_ptr<core::CodingProblem> problem_;  ///< null when inconsistent
    mutable ClauseStore clauses_;
};

/// Shared read-only handle; every checker over one model holds one of these.
using PrefixArtifactsPtr = std::shared_ptr<const PrefixArtifacts>;

}  // namespace stgcc::cache
