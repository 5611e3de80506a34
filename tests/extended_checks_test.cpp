#include "core/extended_checks.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "core/marking_expr.hpp"
#include "core/reach_solver.hpp"
#include "petri/reachability.hpp"
#include "stg/benchmarks.hpp"
#include "stg/builder.hpp"
#include "unfolding/configuration.hpp"
#include "unfolding/unfolder.hpp"
#include "test_util.hpp"

namespace stgcc::core {
namespace {

/// STG with a reachable deadlock: a one-shot handshake that never loops.
stg::Stg one_shot() {
    stg::StgBuilder b("one-shot");
    b.input("a").output("b");
    b.place("end");
    b.arc("a+", "b+").arc("b+", "a-").arc("a-", "b-").arc("b-", "end");
    b.place("start", 1);
    b.arc("start", "a+");
    return b.build();
}

TEST(SafetyOnPrefix, UnsafeNetRejectedByUnfolder) {
    // Bounded but not safe: two tokens circulating in one handshake cycle.
    // The unfolder itself refuses such systems (the ERV cut-off criterion
    // is complete only for safe nets), so the prefix checks never see them.
    stg::StgBuilder b("unsafe");
    b.input("a");
    b.place("p", 2);
    b.place("q");
    b.arc("p", "a+");
    b.arc("a+", "q");
    b.arc("q", "a-");
    b.arc("a-", "p");
    auto model = b.build();
    petri::ReachabilityGraph rg(model.system());
    ASSERT_FALSE(rg.is_safe());
    EXPECT_THROW((void)unf::unfold(model.system()), ModelError);
}

TEST(MarkingExpressions, EvaluateMatchesMarkingOf) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    MarkingExpressions exprs(problem);
    // For every local configuration of a non-cut-off event, the per-place
    // expressions evaluate to the real marking.
    for (unf::EventId e = 0; e < prefix.num_events(); ++e) {
        if (prefix.event(e).cutoff) continue;
        const BitVec config(prefix.local_config(e));
        auto marking = unf::marking_of(prefix, config);
        for (petri::PlaceId s = 0; s < model.net().num_places(); ++s)
            EXPECT_EQ(MarkingExpressions::evaluate(exprs.place(s), config),
                      static_cast<int>(marking[s]));
    }
}

TEST(MarkingExpressions, SumMergesTerms) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    MarkingExpressions exprs(problem);
    std::vector<petri::PlaceId> all;
    for (petri::PlaceId s = 0; s < model.net().num_places(); ++s) all.push_back(s);
    MarkingExpr total = exprs.sum(all);
    // Total token count of the empty configuration = |M0|.
    BitVec empty(problem.size());
    EXPECT_EQ(MarkingExpressions::evaluate(total, empty),
              static_cast<int>(model.system().initial_marking().total_tokens()));
}

TEST(Deadlock, LiveModelsHaveNone) {
    for (auto* make : {+[] { return stg::bench::vme_bus(); },
                       +[] { return stg::bench::token_ring(2); },
                       +[] { return stg::bench::muller_pipeline(3); }}) {
        auto model = make();
        auto prefix = unf::unfold(model.system());
        CodingProblem problem(model, prefix);
        auto r = check_deadlock(problem);
        EXPECT_FALSE(r.found) << model.name();
    }
}

TEST(Deadlock, OneShotDeadlockFoundWithTrace) {
    auto model = one_shot();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    auto r = check_deadlock(problem);
    ASSERT_TRUE(r.found);
    // The witness replays to a genuinely dead marking.
    auto m = model.system().fire_sequence(r.witness->trace);
    ASSERT_TRUE(m.has_value());
    EXPECT_EQ(*m, r.witness->marking);
    EXPECT_TRUE(model.system().enabled_transitions(*m).empty());
}

TEST(ExtendedChecks, DeadlockSearchHonoursCancellation) {
    // The section 5 search takes SearchOptions like the pair search: a
    // token cancelled before the solve stops it without a witness, even on
    // a model whose deadlock the search would otherwise find.
    auto model = one_shot();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    sched::CancellationSource source;
    source.cancel();
    SearchOptions opts;
    opts.cancel = source.token();
    auto r = check_deadlock(problem, opts);
    EXPECT_FALSE(r.found);
    EXPECT_TRUE(r.cancelled);
    EXPECT_FALSE(r.witness.has_value());
    EXPECT_LE(r.stats.search_nodes, kCancelPollMask + 1);
    // The same search uncancelled finds the deadlock.
    EXPECT_TRUE(check_deadlock(problem).found);
}

TEST(Deadlock, LargerMullerPipelinesAreLive) {
    // Regression: a partial constraint-update bug once made the solver
    // accept configurations violating the preset-sum constraints, reporting
    // a spurious deadlock on muller_pipeline(6).
    for (int n = 5; n <= 8; ++n) {
        auto model = stg::bench::muller_pipeline(n);
        auto prefix = unf::unfold(model.system());
        CodingProblem problem(model, prefix);
        EXPECT_FALSE(check_deadlock(problem).found) << "n=" << n;
    }
}

/// The random STGs of the deadlock sweep: seeds 700-729 with the default
/// knobs, whose components never stop, and seeds 730-759 with sink places,
/// where a marking with every component stopped is a deadlock.
stg::Stg sweep_stg(unsigned seed) {
    test::RandomStgConfig cfg;
    if (seed >= 730) cfg.sink_probability = 0.25;
    return test::random_stg(seed, cfg);
}

TEST(Deadlock, AgreesWithReachabilityGraphOnRandomStgs) {
    std::size_t deadlocking = 0;
    for (unsigned seed = 700; seed < 760; ++seed) {
        auto model = sweep_stg(seed);
        auto prefix = unf::unfold(model.system());
        CodingProblem problem(model, prefix);
        petri::ReachabilityGraph rg(model.system());
        auto r = check_deadlock(problem);
        EXPECT_EQ(r.found, !rg.deadlocks().empty()) << "seed=" << seed;
        if (r.found) {
            ++deadlocking;
            auto m = model.system().fire_sequence(r.witness->trace);
            ASSERT_TRUE(m.has_value());
            EXPECT_TRUE(model.system().enabled_transitions(*m).empty());
            // The witness reaches one of the graph's own deadlocks.
            const auto dead = rg.deadlocks();
            EXPECT_NE(std::find(dead.begin(), dead.end(), rg.find(*m)), dead.end())
                << "seed=" << seed;
        }
    }
    EXPECT_GE(deadlocking, 10u);
}

/// Renders a witness trace as its transition names, "-" when none.
std::string trace_names(const stg::Stg& model, const ReachabilityResult& r) {
    if (!r.found) return "-";
    std::string out;
    for (petri::TransitionId t : r.witness->trace) {
        if (!out.empty()) out += ' ';
        out += model.net().transition_name(t);
    }
    return out;
}

TEST(Deadlock, SearchMatchesPinnedTable) {
    // The section 5 search tree and its first witness: nodes, leaves and
    // trace of check_deadlock on the one-shot model and on each seed of
    // AgreesWithReachabilityGraphOnRandomStgs.  The branching order and the
    // closure decide all three, so a change to either shows here even when
    // every verdict survives.
    struct Pin {
        unsigned seed;
        std::size_t nodes, leaves;
        const char* trace;
    };
    const auto expect_pin = [](const stg::Stg& model, const Pin& pin) {
        auto prefix = unf::unfold(model.system());
        CodingProblem problem(model, prefix);
        const auto r = check_deadlock(problem);
        EXPECT_EQ(r.stats.search_nodes, pin.nodes) << model.name();
        EXPECT_EQ(r.stats.leaves, pin.leaves) << model.name();
        EXPECT_EQ(trace_names(model, r), pin.trace) << model.name();
    };
    expect_pin(one_shot(), {0, 2, 1, "a+ b+ a- b-"});
    const Pin table[] = {
        {700, 1, 0, "-"},
        {701, 1, 0, "-"},
        {702, 4, 0, "-"},
        {703, 2, 0, "-"},
        {704, 2, 0, "-"},
        {705, 3, 0, "-"},
        {706, 1, 0, "-"},
        {707, 3, 0, "-"},
        {708, 1, 0, "-"},
        {709, 3, 0, "-"},
        {710, 1, 0, "-"},
        {711, 1, 0, "-"},
        {712, 1, 0, "-"},
        {713, 1, 0, "-"},
        {714, 2, 0, "-"},
        {715, 2, 0, "-"},
        {716, 3, 0, "-"},
        {717, 2, 0, "-"},
        {718, 2, 0, "-"},
        {719, 2, 0, "-"},
        {720, 1, 0, "-"},
        {721, 2, 0, "-"},
        {722, 2, 0, "-"},
        {723, 4, 0, "-"},
        {724, 3, 0, "-"},
        {725, 1, 0, "-"},
        {726, 2, 0, "-"},
        {727, 1, 0, "-"},
        {728, 2, 0, "-"},
        {729, 3, 0, "-"},
        {730, 5, 0, "-"},
        {731, 3, 0, "-"},
        {732, 3, 0, "-"},
        {733, 5, 1, "m0_s2+/1 m1_s2+/0 m1_s2-/1 m1_s1+/4"},
        {734, 2, 0, "-"},
        {735, 3, 1, "m0_s1+/0 m1_s0+/0 m0_s2+/1 m1_s2+/1"},
        {736, 1, 0, "-"},
        {737, 6, 0, "-"},
        {738, 3, 1, "m0_s0+/1 m1_s1+/0 m1_s2+/1 m1_s0+/2 m1_s1-/3 m1_s2-/4"},
        {739, 5, 1, "m0_s1+/0 m1_s0+/0 m0_s1-/1 m1_s1+/1 m0_s2+/3"},
        {740, 1, 0, "-"},
        {741, 3, 1, "m0_s0+/0 m1_s2+/0"},
        {742, 1, 0, "-"},
        {743, 3, 0, "-"},
        {744, 5, 1, "m0_s1+/0 m1_s0+/0 m0_s2+/2 m1_s0-/1 m0_s2-/4 m1_s0+/3 m0_s2+/6 m1_s2+/5 m0_s1-/8 m1_s0-/6"},
        {745, 1, 0, "-"},
        {746, 1, 0, "-"},
        {747, 1, 0, "-"},
        {748, 1, 0, "-"},
        {749, 3, 1, "m0_s2+/1 m1_s1+/0"},
        {750, 4, 1, "m0_s1+/0 m1_s2+/0 m0_s0+/1 m1_s0+/1 m0_s1-/2 m1_s1+/3 m0_s2+/4 m1_s2-/5 m0_s2-/6 m1_s1-/6 m0_s2+/8"},
        {751, 4, 1, "m0_s2+/0 m1_s0+/0 m0_s2-/3 m1_s2+/1 m1_s2-/2 m1_s0-/3"},
        {752, 1, 0, "-"},
        {753, 3, 1, "m0_s1+/0 m1_s2+/0 m1_s0+/2"},
        {754, 5, 1, "m0_s2+/0 m1_s2+/0 m0_s0+/2 m1_s1+/1 m0_s0-/4 m0_s2-/7"},
        {755, 4, 1, "m0_s1+/1 m1_s2+/0 m1_s0+/1 m1_s1+/3"},
        {756, 3, 1, "m0_s0+/0 m1_s1+/0 m0_s1+/1 m1_s0+/1 m1_s1-/3 m1_s0-/4"},
        {757, 3, 1, "m0_s0+/0 m1_s1+/0 m0_s2+/1 m1_s0+/1 m1_s2+/2 m1_s0-/4"},
        {758, 3, 1, "m0_s0+/0 m1_s1+/0 m1_s2+/1"},
        {759, 1, 0, "-"},
    };
    for (const Pin& pin : table) {
        SCOPED_TRACE("seed " + std::to_string(pin.seed));
        expect_pin(sweep_stg(pin.seed), pin);
    }
}

TEST(Reachable, EveryStateGraphMarkingIsReachable) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    petri::ReachabilityGraph rg(model.system());
    for (petri::StateId s = 0; s < rg.num_states(); ++s) {
        auto r = check_reachable(problem, rg.marking(s));
        ASSERT_TRUE(r.found) << rg.marking(s).to_string(model.net());
        EXPECT_EQ(r.witness->marking, rg.marking(s));
        auto m = model.system().fire_sequence(r.witness->trace);
        ASSERT_TRUE(m.has_value());
        EXPECT_EQ(*m, rg.marking(s));
    }
}

TEST(Reachable, UnreachableMarkingRejected) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    // Marking with every place filled is not reachable in a safe 2-token net.
    petri::Marking full(model.net().num_places());
    for (petri::PlaceId s = 0; s < model.net().num_places(); ++s) full.set(s, 1);
    EXPECT_FALSE(check_reachable(problem, full).found);
}

TEST(Coverable, SinglePlaceCoverability) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    petri::ReachabilityGraph rg(model.system());
    for (petri::PlaceId s = 0; s < model.net().num_places(); ++s) {
        petri::Marking target(model.net().num_places());
        target.set(s, 1);
        bool expected = false;
        for (petri::StateId st = 0; st < rg.num_states(); ++st)
            if (rg.marking(st)[s] >= 1) expected = true;
        EXPECT_EQ(check_coverable(problem, target).found, expected)
            << model.net().place_name(s);
    }
}

TEST(Coverable, PairCoverabilityMatchesConcurrency) {
    auto model = stg::bench::parallel_handshakes(2);
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    petri::ReachabilityGraph rg(model.system());
    const auto n = model.net().num_places();
    for (petri::PlaceId s1 = 0; s1 < n; ++s1) {
        for (petri::PlaceId s2 = s1 + 1; s2 < n; ++s2) {
            petri::Marking target(n);
            target.set(s1, 1);
            target.set(s2, 1);
            bool expected = false;
            for (petri::StateId st = 0; st < rg.num_states(); ++st)
                if (rg.marking(st)[s1] >= 1 && rg.marking(st)[s2] >= 1)
                    expected = true;
            EXPECT_EQ(check_coverable(problem, target).found, expected);
        }
    }
}

TEST(ReachSolver, ConstraintlessSearchVisitsConfigurations) {
    auto model = test::tiny_handshake();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    ReachSolver solver(problem);
    std::size_t count = 0;
    auto outcome = solver.solve([&](const BitVec&) {
        ++count;
        return false;
    });
    EXPECT_FALSE(outcome.found);
    // tiny_handshake prefix: chain of 3 non-cut-off events -> 4 configs.
    EXPECT_EQ(count, 4u);
}

TEST(ReachSolver, InfeasibleConstraintPrunesEverything) {
    auto model = test::tiny_handshake();
    auto prefix = unf::unfold(model.system());
    CodingProblem problem(model, prefix);
    MarkingExpressions exprs(problem);
    ReachSolver solver(problem);
    // Demand 5 tokens in place 0 -- impossible in a safe net.
    solver.add_constraint(exprs.place(0), 5, 5);
    auto outcome = solver.solve([](const BitVec&) { return true; });
    EXPECT_FALSE(outcome.found);
    EXPECT_EQ(outcome.stats.leaves, 0u);
}

}  // namespace
}  // namespace stgcc::core
