// stgcc -- tier-1 cache: per-prefix shared artifacts (docs/CACHING.md).
//
// Everything the USC / CSC / normalcy checkers derive from one unfolding
// prefix is computed exactly once here and then shared read-only by every
// solver instance of the model:
//   * the consistency analysis (and the derived initial code v0),
//     which verify_stg and the CodingProblem used to compute separately,
//   * the dense CodingProblem with its per-signal solver template,
//   * the leaf-predicate tables: the place flow pre(t) xor post(t) of every
//     dense event and the preset place mask of every circuit-driven
//     transition, from which leaf_state() derives a configuration's place
//     set, Out set and code word-wise,
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

/// What the leaf predicates read of the marking reached by a dense
/// configuration, word-wise.  The buffers are reused across calls: every
/// solver instance owns its own (per-signal CSC instances run in parallel).
struct LeafState {
    BitVec places;  ///< marked places (1-safe: a marking is a place set)
    BitVec out;     ///< Out(M): signals of the enabled circuit-driven transitions
    BitVec code;    ///< Code(M), bit z = value of signal z
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

    /// Fill `s.places` with the place set of the marking reached by a dense
    /// configuration (the USC leaf predicate compares these).  The unfolder
    /// enforces 1-safety, so every place holds M0(p) + produced - consumed
    /// in {0, 1} tokens, which is the parity of M0(p) + produced + consumed:
    /// the place set is M0 xor the place flows of the configuration's
    /// events.  Only valid when consistent().
    void leaf_places(BitSpan dense, LeafState& s) const;

    /// Fill `s.places`, `s.out` and `s.code` (the CSC and normalcy leaf
    /// predicates; Nxt_z = out(z) xor code(z)).  Agrees with
    /// unf::marking_of, Stg::out_signals and CodingProblem::code_of.
    void leaf_state(BitSpan dense, LeafState& s) const;

    /// The USC=>CSC certificate.  Mutable through const artifacts: it
    /// records a proved fact and never changes a verdict.
    [[nodiscard]] ClauseStore& clauses() const noexcept { return clauses_; }

private:
    void build();

    std::shared_ptr<const stg::Stg> owned_stg_;  ///< may be null (aliasing ctors)
    const stg::Stg* stg_;
    unf::Prefix prefix_;
    util::Arena arena_;           ///< owns the leaf tables
    unf::PrefixConsistency consistency_;
    std::unique_ptr<core::CodingProblem> problem_;  ///< null when inconsistent
    BitVec initial_places_;                   ///< M0, width |P|
    util::BitMatrix place_flows_;  ///< q x |P|: pre(t) xor post(t), in arena_
    std::vector<stg::SignalId> out_signal_;   ///< per circuit-driven transition
    util::BitMatrix out_presets_;  ///< its preset places, |out_signal_| x |P|
    mutable ClauseStore clauses_;
};

/// Shared read-only handle; every checker over one model holds one of these.
using PrefixArtifactsPtr = std::shared_ptr<const PrefixArtifacts>;

}  // namespace stgcc::cache
