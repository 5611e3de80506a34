// stgcc -- tier-1 cache: per-prefix shared artifacts (docs/CACHING.md).
//
// Everything the USC / CSC / normalcy checkers derive from one unfolding
// prefix is computed exactly once here and then shared read-only by every
// solver instance of the model:
//   * the co-relation matrix of the prefix (row e = events concurrent with
//     e), used by the consistency analysis instead of O(k^2) pairwise
//     queries,
//   * the consistency analysis itself (and the derived initial code v0),
//     which verify_stg and the CodingProblem used to compute separately,
//   * the dense CodingProblem with its per-signal solver template,
//   * per-dense-event condition pre/post masks plus the Min(ON) mask, which
//     turn the leaf-predicate marking computation (cut of a configuration)
//     into three word-parallel bit operations instead of a vector<bool>
//     sweep over all conditions,
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
#include <vector>

#include "core/coding_problem.hpp"
#include "unfolding/prefix_checks.hpp"
#include "unfolding/unfolder.hpp"
#include "util/arena.hpp"
#include "util/bit_matrix.hpp"

namespace stgcc::cache {

/// The USC=>CSC certificate of one prefix (docs/ALGORITHMS.md): recorded by
/// UnfoldingChecker::check_usc after an exhaustive, uncancelled search that
/// found no conflict, and consulted by both check_csc overloads.  The old
/// name, PrefixArtifacts::clauses() and the always-zero efficacy() stay only
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

    /// Events concurrent with `e`, as a bit row over event ids (exactly
    /// num_events() bits, a row of the arena-backed co matrix -- valid as
    /// long as the artifacts).
    [[nodiscard]] BitSpan co_row(unf::EventId e) const {
        STGCC_REQUIRE(e < co_rows_.rows());
        return co_rows_.row(e);
    }

    /// Marking reached by a dense configuration of the coding problem:
    /// cut = (Min(ON) | union of postsets) \ union of presets, evaluated
    /// with the precomputed condition masks.  Agrees bit-for-bit with
    /// unf::marking_of(prefix, problem().to_event_set(dense)).
    /// Only valid when consistent().
    [[nodiscard]] petri::Marking marking_of_dense(const BitVec& dense) const;

    /// The USC=>CSC certificate.  Mutable through const artifacts: it
    /// records a proved fact and never changes a verdict.
    [[nodiscard]] ClauseStore& clauses() const noexcept { return clauses_; }

private:
    void build();

    std::shared_ptr<const stg::Stg> owned_stg_;  ///< may be null (aliasing ctors)
    const stg::Stg* stg_;
    unf::Prefix prefix_;
    util::Arena arena_;           ///< owns the co matrix and condition masks
    util::BitMatrix co_rows_;     ///< n x n, rows in arena_
    unf::PrefixConsistency consistency_;
    std::unique_ptr<core::CodingProblem> problem_;  ///< null when inconsistent
    BitVec min_mask_;                        ///< Min(ON), width num_conditions
    util::BitMatrix pre_masks_, post_masks_;  ///< q x num_conditions, in arena_
    mutable ClauseStore clauses_;
};

/// Shared read-only handle; every checker over one model holds one of these.
using PrefixArtifactsPtr = std::shared_ptr<const PrefixArtifacts>;

}  // namespace stgcc::cache
