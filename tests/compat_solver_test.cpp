#include "core/compat_solver.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <thread>

#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "unfolding/configuration.hpp"
#include "unfolding/unfolder.hpp"
#include "test_util.hpp"

namespace stgcc::core {
namespace {

/// Enumerate all configurations of a prefix by brute force, with every
/// cut-off event pinned to 0 as eq. 3 pins its variable.
std::vector<BitVec> all_configs(const unf::Prefix& prefix) {
    const std::size_t n = prefix.num_events();
    std::size_t cutoffs = 0;
    for (unf::EventId e = 0; e < n; ++e)
        if (prefix.event(e).cutoff) cutoffs |= std::size_t{1} << e;
    std::vector<BitVec> out;
    // 2^|E| subsets; only call on tiny prefixes.
    for (std::size_t mask = 0; mask < (std::size_t{1} << n); ++mask) {
        if (mask & cutoffs) continue;
        BitVec config = prefix.make_event_set();
        for (std::size_t i = 0; i < n; ++i)
            if ((mask >> i) & 1) config.set(i);
        // Validity: causally closed and conflict-free.
        bool ok = true;
        for (std::size_t i = 0; i < n && ok; ++i) {
            if (!config.test(i)) continue;
            if (!prefix.local_config(static_cast<unf::EventId>(i)).subset_of(config))
                ok = false;
            if (prefix.conflicts(static_cast<unf::EventId>(i)).intersects(config))
                ok = false;
        }
        if (ok) out.push_back(config);
    }
    return out;
}

TEST(CompatSolver, SolutionsAreValidConfigurationPairs) {
    auto model = test::tiny_conflict();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    CompatSolver solver(problem);
    auto outcome = solver.solve(
        CodeRelation::Equal, [&](const LeafView& a, const LeafView& b) {
            EXPECT_TRUE(unf::is_configuration(prefix, a.config));
            EXPECT_TRUE(unf::is_configuration(prefix, b.config));
            EXPECT_FALSE(a.config == b.config);
            EXPECT_EQ(problem.code_of(a.config), problem.code_of(b.config));
            return false;  // enumerate everything
        });
    EXPECT_FALSE(outcome.found);
    EXPECT_GT(outcome.stats.leaves, 0u);
}

/// Whether (a, b) is ordered as the first-difference scheme orders it: at
/// the first event where they differ, a has 0 and b has 1.
bool first_difference_ascends(const BitVec& a, const BitVec& b) {
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a.test(i) != b.test(i)) return b.test(i);
    return false;  // equal
}

bool codes_related(const stg::Code& a, const stg::Code& b, CodeRelation r) {
    switch (r) {
        case CodeRelation::Equal: return a == b;
        case CodeRelation::LessEq: return a.subset_of(b);
        case CodeRelation::GreaterEq: return b.subset_of(a);
    }
    return false;
}

TEST(CompatSolver, EnumeratesEachDistinctPairOnce) {
    // Cross-check the first-difference enumeration against brute force on
    // small prefixes: the solver's leaves must be exactly the ordered pairs
    // (A, B) of configurations whose first differing index d has
    // A_d = 0 < B_d = 1 and whose codes satisfy the relation -- plus A being
    // a subset of B when the section 7 optimisation applies -- each visited
    // once.  This set does not depend on the branching order, so it pins
    // what the search finds while leaving the shape of its tree free.
    std::vector<stg::Stg> models;
    models.push_back(test::tiny_handshake());           // no equal-code pairs
    models.push_back(stg::bench::sequential_handshakes(2));  // several
    models.push_back(stg::bench::parallel_handshakes(2));
    for (const char* name : {"vme", "vme_csc", "dup_4ph_a", "dup_4ph_mtr_a",
                             "lazyring", "johnson4", "par4", "seq4"})
        models.push_back(stg::load_astg_file(std::string(STGCC_MODELS_DIR) + "/" +
                                             name + ".g"));
    for (const auto& model : models) {
        auto prefix = unf::unfold(model.system());
        CodingProblem problem(model, prefix);
        ASSERT_LE(prefix.num_events(), 20u) << model.name();
        const auto configs = all_configs(prefix);
        std::vector<stg::Code> codes;
        for (const BitVec& c : configs) codes.push_back(problem.code_of(c));

        for (const CodeRelation relation :
             {CodeRelation::Equal, CodeRelation::LessEq, CodeRelation::GreaterEq}) {
            for (const bool optimise : {false, true}) {
                const bool subsets_only =
                    optimise && problem.dynamically_conflict_free();
                std::set<std::pair<std::string, std::string>> expected;
                for (std::size_t i = 0; i < configs.size(); ++i)
                    for (std::size_t j = 0; j < configs.size(); ++j)
                        if (first_difference_ascends(configs[i], configs[j]) &&
                            codes_related(codes[i], codes[j], relation) &&
                            (!subsets_only || configs[i].subset_of(configs[j])))
                            expected.insert({configs[i].to_string(),
                                             configs[j].to_string()});

                std::set<std::pair<std::string, std::string>> seen;
                SearchOptions opts;
                opts.use_conflict_free_optimisation = optimise;
                CompatSolver solver(problem, opts);
                auto outcome = solver.solve(
                    relation, [&](const LeafView& a, const LeafView& b) {
                        auto [it, inserted] =
                            seen.insert({a.config.to_string(), b.config.to_string()});
                        EXPECT_TRUE(inserted) << "pair enumerated twice: "
                                              << it->first << " / " << it->second;
                        return false;
                    });
                EXPECT_FALSE(outcome.found);
                EXPECT_EQ(outcome.stats.leaves, seen.size());
                EXPECT_EQ(seen, expected)
                    << model.name() << " relation " << static_cast<int>(relation)
                    << " optimise " << optimise;
            }
        }
    }
}

TEST(CompatSolver, FindsConflictAndStops) {
    auto model = test::tiny_conflict();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    CompatSolver solver(problem);
    auto outcome = solver.solve(
        CodeRelation::Equal, [&](const LeafView& a, const LeafView& b) {
            return !(unf::marking_of(prefix, a.config) ==
                     unf::marking_of(prefix, b.config));
        });
    EXPECT_TRUE(outcome.found);
    EXPECT_FALSE(outcome.ca == outcome.cb);
}

TEST(CompatSolver, LessEqRelationEnforced) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    CompatSolver solver(problem);
    auto outcome = solver.solve(
        CodeRelation::LessEq, [&](const LeafView& a, const LeafView& b) {
            EXPECT_TRUE(problem.code_of(a.config).subset_of(problem.code_of(b.config)));
            return false;
        });
    EXPECT_FALSE(outcome.found);
    EXPECT_GT(outcome.stats.leaves, 0u);
}

TEST(CompatSolver, GreaterEqRelationEnforced) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    CompatSolver solver(problem);
    auto outcome = solver.solve(
        CodeRelation::GreaterEq, [&](const LeafView& a, const LeafView& b) {
            EXPECT_TRUE(problem.code_of(b.config).subset_of(problem.code_of(a.config)));
            return false;
        });
    EXPECT_FALSE(outcome.found);
}

TEST(CompatSolver, ConflictFreeOptimisationRestrictsToSubsets) {
    auto model = stg::bench::vme_bus();  // marked graph: optimisation applies
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    ASSERT_TRUE(problem.dynamically_conflict_free());
    CompatSolver solver(problem);
    auto outcome =
        solver.solve(CodeRelation::Equal, [&](const LeafView& a, const LeafView& b) {
            EXPECT_TRUE(a.config.subset_of(b.config));
            return false;
        });
    EXPECT_FALSE(outcome.found);
}

TEST(CompatSolver, OptimisationPreservesUscVerdict) {
    // Same verdict with and without the section 7 optimisation.
    for (auto* make : {+[] { return stg::bench::vme_bus(); },
                       +[] { return stg::bench::sequential_handshakes(2); },
                       +[] { return stg::bench::muller_pipeline(2); }}) {
        auto model = make();
        auto prefix = unf::unfold(model.system());
        CodingProblem problem(model, prefix);
        auto usc_predicate = [&](const LeafView& a, const LeafView& b) {
            return !(unf::marking_of(prefix, a.config) ==
                     unf::marking_of(prefix, b.config));
        };
        SearchOptions with, without;
        without.use_conflict_free_optimisation = false;
        CompatSolver s1(problem, with), s2(problem, without);
        auto r1 = s1.solve(CodeRelation::Equal, usc_predicate);
        auto r2 = s2.solve(CodeRelation::Equal, usc_predicate);
        EXPECT_EQ(r1.found, r2.found) << model.name();
        // The optimisation must not explore more nodes.
        if (!r1.found) {
            EXPECT_LE(r1.stats.search_nodes, r2.stats.search_nodes) << model.name();
        }
    }
}

TEST(CompatSolver, NodeLimitThrows) {
    // phase_envelope has many equal-code configuration pairs, so rejecting
    // every leaf forces real branching.
    auto model = stg::bench::phase_envelope(3);
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    SearchOptions opts;
    opts.max_nodes = 3;
    CompatSolver solver(problem, opts);
    EXPECT_THROW(
        (void)solver.solve(CodeRelation::Equal,
                           [](const LeafView&, const LeafView&) { return false; }),
        ModelError);
}

TEST(CompatSolver, NodeLimitOnAPoolIsTheSerialOne) {
    // Split over a pool, each subtree gets the whole budget, and the limit
    // holds for the sum: the search throws exactly when the serial one
    // does, not when one subtree alone exceeds it.
    auto model = stg::bench::counterflow(4, true);
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    const auto reject = [](const LeafView&, const LeafView&) { return false; };
    const std::size_t nodes = CompatSolver(problem).solve(CodeRelation::Equal, reject)
                                  .stats.search_nodes;
    sched::Executor pool(4);
    SearchOptions opts;
    opts.max_nodes = nodes;
    EXPECT_EQ(CompatSolver(problem, opts)
                  .solve(CodeRelation::Equal, reject, pool)
                  .stats.search_nodes,
              nodes);
    opts.max_nodes = nodes - 1;
    EXPECT_THROW((void)CompatSolver(problem, opts).solve(CodeRelation::Equal, reject),
                 ModelError);
    EXPECT_THROW(
        (void)CompatSolver(problem, opts).solve(CodeRelation::Equal, reject, pool),
        ModelError);
}

/// An exhaustive Equal solve that rejects every leaf, reduced to its counts
/// and a running hash of both sides' views at every leaf, in visit order.
struct LeafTrace {
    stg::CheckStats stats;
    std::uint64_t leaf_hash = 0;
};

LeafTrace trace_leaves(const CodingProblem& problem,
                       CodeRelation relation = CodeRelation::Equal) {
    LeafTrace t;
    const auto outcome = CompatSolver(problem).solve(
        relation, [&](const LeafView& a, const LeafView& b) {
            for (const LeafView* side : {&a, &b})
                for (const BitSpan view : {side->config, side->places, side->code})
                    t.leaf_hash = (t.leaf_hash ^ view.hash()) * 0x100000001b3u;
            return false;
        });
    t.stats = outcome.stats;
    return t;
}

void expect_same_trace(const LeafTrace& got, const LeafTrace& want) {
    EXPECT_EQ(got.stats.search_nodes, want.stats.search_nodes);
    EXPECT_EQ(got.stats.leaves, want.stats.leaves);
    EXPECT_EQ(got.stats.propagations, want.stats.propagations);
    EXPECT_EQ(got.stats.max_depth, want.stats.max_depth);
    EXPECT_EQ(got.leaf_hash, want.leaf_hash);
}

TEST(CompatSolverLevels, DeepSolveOnAFreshThreadGrowsTheLevelStack) {
    // A thread's level stack starts empty and grows the first time a
    // 0-branch reaches a level, moving the levels whenever the memory
    // behind them is reallocated.  On a new thread every level of this
    // search (two plane words, depth > 20) is grown mid-search; its leaves
    // and counts must equal those of the same solve on this thread, and of
    // a rerun here on the stack the first solve left grown.
    auto model = stg::bench::counterflow(4, true);
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    const LeafTrace here = trace_leaves(problem);
    ASSERT_GT(here.stats.max_depth, 20u);
    LeafTrace fresh;
    std::thread([&] { fresh = trace_leaves(problem); }).join();
    expect_same_trace(fresh, here);
    expect_same_trace(trace_leaves(problem), here);
}

TEST(CompatSolverLevels, StackPastTheKeptSizeIsReleasedAndRegrown) {
    // A stack larger than the solver keeps between solves (64 KiB) is
    // released when its solve ends.  The solve after it grows a stack from
    // nothing again and must see the same tree, and so must a smaller
    // solve that follows.
    auto big_model = stg::bench::sequential_handshakes(40);
    auto big_prefix = unf::unfold(big_model.system());
    CodingProblem big(big_model, big_prefix);
    const LeafTrace first = trace_leaves(big, CodeRelation::LessEq);
    // A level holds four bit planes, two place sets, two codes and one
    // interval per signal.  The deepest path of this search is a chain of
    // 0-branches, so the stack holds more than max_depth levels (160 for
    // depth 158).
    const auto words = [](std::size_t bits) { return (bits + 63) / 64; };
    const std::size_t nz = big.initial_code().size();
    const std::size_t level_words = 4 * words(big.size()) +
                                    2 * words(big.initial_places().size()) +
                                    2 * words(nz) + nz;
    ASSERT_GT(level_words * (first.stats.max_depth + 1) * 8, 64u * 1024);
    expect_same_trace(trace_leaves(big, CodeRelation::LessEq), first);

    auto model = stg::bench::counterflow(4, true);
    auto prefix = unf::unfold(model.system());
    CodingProblem small(model, prefix);
    LeafTrace fresh;
    std::thread([&] { fresh = trace_leaves(small); }).join();
    expect_same_trace(trace_leaves(small), fresh);
}

TEST(CompatSolverLevels, NodeLimitLeavesTheLevelStackFree) {
    // The node limit throws out of the middle of a search; the thread's
    // next solve still gets its level stack.
    auto model = stg::bench::counterflow(4, true);
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    const LeafTrace want = trace_leaves(problem);
    SearchOptions opts;
    opts.max_nodes = want.stats.search_nodes / 2;
    EXPECT_THROW((void)CompatSolver(problem, opts)
                     .solve(CodeRelation::Equal,
                            [](const LeafView&, const LeafView&) { return false; }),
                 ModelError);
    expect_same_trace(trace_leaves(problem), want);
}

TEST(CompatSolverLevels, NestedSolveOnOneThreadIsRefused) {
#ifdef NDEBUG
    GTEST_SKIP() << "STGCC_ASSERT is compiled out under NDEBUG";
#else
    // Both solves would share the thread's level stack, so the inner one
    // trips the assertion instead of overwriting the outer one's levels.
    auto model = stg::bench::counterflow(4, true);
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    const auto reject = [](const LeafView&, const LeafView&) { return false; };
    EXPECT_THROW((void)CompatSolver(problem).solve(
                     CodeRelation::Equal,
                     [&](const LeafView&, const LeafView&) {
                         (void)CompatSolver(problem).solve(CodeRelation::Equal, reject);
                         return false;
                     }),
                 ContractViolation);
    // The outer solve released the stack as the exception left it.
    EXPECT_GT(CompatSolver(problem).solve(CodeRelation::Equal, reject)
                  .stats.search_nodes,
              0u);
#endif
}

TEST(CompatSolver, ParallelHandshakesDecidedByPropagationAlone) {
    // In PAR(n) every cut-off-free configuration has a distinct code, and
    // the per-signal interval propagation proves it without any branching.
    auto model = stg::bench::parallel_handshakes(4);
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    CompatSolver solver(problem);
    auto outcome = solver.solve(
        CodeRelation::Equal,
        [](const LeafView&, const LeafView&) { return true; });
    EXPECT_FALSE(outcome.found);
    EXPECT_EQ(outcome.stats.search_nodes, 0u);
}

TEST(CodingProblem, DensifiesCutoffs) {
    // The cut-off variables are pinned to 0 (paper, section 3): the cut-off
    // mask holds exactly the prefix's cut-offs, and no signal's rising or
    // falling coefficient mask carries a cut-off bit.
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    ASSERT_EQ(problem.size(), prefix.num_events());
    ASSERT_GT(prefix.num_cutoffs(), 0u);
    EXPECT_EQ(problem.cutoffs().count(), prefix.num_cutoffs());
    for (unf::EventId e = 0; e < prefix.num_events(); ++e)
        EXPECT_EQ(problem.cutoffs().test(e), prefix.event(e).cutoff);
    for (stg::SignalId z = 0; z < model.num_signals(); ++z) {
        EXPECT_FALSE(problem.rising(z).intersects(problem.cutoffs()));
        EXPECT_FALSE(problem.falling(z).intersects(problem.cutoffs()));
    }
    EXPECT_FALSE(problem.rising_events().intersects(problem.cutoffs()));
}

TEST(CodingProblem, CodeOfMatchesChangeVector) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    for (unf::EventId e = 0; e < prefix.num_events(); ++e) {
        if (prefix.event(e).cutoff) continue;
        stg::Code code = problem.code_of(prefix.local_config(e));
        auto v = unf::change_vector_of(model, prefix, prefix.local_config(e));
        for (stg::SignalId z = 0; z < model.num_signals(); ++z) {
            const bool expected = (v[z] != 0);
            EXPECT_EQ(code.test(z) != problem.initial_code().test(z), expected);
        }
    }
}

TEST(CodingProblem, InconsistentStgRejected) {
    stg::StgBuilder b("bad");
    b.input("a");
    b.arc("a+/1", "a+/2").arc("a+/2", "a-").arc("a-", "a+/1");
    b.token_between("a-", "a+/1");
    auto model = b.build();
    auto prefix = unf::unfold(model.system());
    EXPECT_THROW(CodingProblem(model, prefix), ModelError);
}

}  // namespace
}  // namespace stgcc::core
