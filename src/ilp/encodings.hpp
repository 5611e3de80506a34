// stgcc -- raw integer-programming encodings of the coding-conflict
// problems (paper, section 3), solved with the structure-agnostic BBSolver.
//
// The model is exactly the paper's system: 0-1 variables x', x'' over the
// prefix events, the conflict constraint Code(x') = Code(x''), the
// compatibility constraints M_in + I*x >= 0 (one row per condition), and
// the cut-off constraints x(e) = 0.  The non-linear separating predicate
// (markings / Out sets differ) is evaluated at integer leaves.
//
// This encoding is the experimental strawman for bench_paper ablation: it
// enumerates ordered pairs including the diagonal, and its propagation is
// plain interval reasoning, so on conflict-free instances it explodes in
// precisely the way the paper says standard solvers do.
#pragma once

#include "ilp/bb_solver.hpp"
#include "ilp/model.hpp"
#include "stg/results.hpp"
#include "unfolding/occurrence_net.hpp"

namespace stgcc::ilp {

struct CodingModel {
    Model model;
    std::vector<VarId> xa, xb;  ///< per prefix event
};

/// Build the USC/CSC constraint system over the prefix.
[[nodiscard]] CodingModel build_coding_model(const stg::Stg& stg,
                                             const unf::Prefix& prefix);

struct GenericCheckOptions {
    std::size_t max_nodes = 5'000'000;
};

/// Check USC with the generic solver.  Throws ModelError when the search is
/// aborted by the node limit (result would be unsound).
[[nodiscard]] stg::CodingCheckResult check_usc_generic(
    const stg::Stg& stg, const unf::Prefix& prefix, GenericCheckOptions opts = {});

/// Check CSC with the generic solver.
[[nodiscard]] stg::CodingCheckResult check_csc_generic(
    const stg::Stg& stg, const unf::Prefix& prefix, GenericCheckOptions opts = {});

}  // namespace stgcc::ilp
