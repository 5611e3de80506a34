#include "core/checkers.hpp"

#include <gtest/gtest.h>

#include "stg/benchmarks.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "test_util.hpp"

namespace stgcc::core {
namespace {

TEST(Checkers, VmeUscConflictWithSoundWitness) {
    auto model = stg::bench::vme_bus();
    UnfoldingChecker checker(model);
    auto usc = checker.check_usc();
    ASSERT_FALSE(usc.holds);
    ASSERT_TRUE(usc.witness.has_value());
    const auto& w = *usc.witness;
    // Execution paths replay to the claimed markings.
    auto m1 = model.system().fire_sequence(w.trace1);
    auto m2 = model.system().fire_sequence(w.trace2);
    ASSERT_TRUE(m1 && m2);
    EXPECT_EQ(*m1, w.m1);
    EXPECT_EQ(*m2, w.m2);
    EXPECT_FALSE(w.m1 == w.m2);
    // Equal codes.
    EXPECT_EQ(model.change_vector(w.trace1), model.change_vector(w.trace2));
}

TEST(Checkers, VmeCscConflictMatchesPaperFig1) {
    auto model = stg::bench::vme_bus();
    UnfoldingChecker checker(model);
    auto csc = checker.check_csc();
    ASSERT_FALSE(csc.holds);
    const auto& w = *csc.witness;
    EXPECT_TRUE(w.is_csc());
    // The paper's conflict: code with dsr=1, lds=1, ldtack=1, dtack=0, d=0
    // ("10110" in the paper's signal order), Out sets {d} vs {lds}.
    EXPECT_TRUE(w.code.test(model.find_signal("dsr")));
    EXPECT_TRUE(w.code.test(model.find_signal("lds")));
    EXPECT_TRUE(w.code.test(model.find_signal("ldtack")));
    EXPECT_FALSE(w.code.test(model.find_signal("dtack")));
    EXPECT_FALSE(w.code.test(model.find_signal("d")));
    std::set<std::string> outs;
    auto name_of = [&](const BitVec& out) {
        std::string s;
        out.for_each([&](std::size_t z) {
            s += model.signal_name(static_cast<stg::SignalId>(z));
        });
        return s;
    };
    outs.insert(name_of(w.out1));
    outs.insert(name_of(w.out2));
    EXPECT_EQ(outs, (std::set<std::string>{"d", "lds"}));
}

TEST(Checkers, ResolvedVmeHoldsCoding) {
    auto model = stg::bench::vme_bus_csc_resolved();
    UnfoldingChecker checker(model);
    EXPECT_TRUE(checker.check_usc().holds);
    EXPECT_TRUE(checker.check_csc().holds);
}

TEST(Checkers, ResolvedVmeNormalcyMatchesPaperFig3) {
    auto model = stg::bench::vme_bus_csc_resolved();
    UnfoldingChecker checker(model);
    auto n = checker.check_normalcy();
    EXPECT_FALSE(n.normal);
    for (const auto& sn : n.per_signal) {
        const std::string name = model.signal_name(sn.signal);
        if (name == "csc") {
            EXPECT_FALSE(sn.p_normal);
            EXPECT_FALSE(sn.n_normal);
            ASSERT_TRUE(sn.p_violation.has_value());
            ASSERT_TRUE(sn.n_violation.has_value());
        } else {
            EXPECT_TRUE(sn.normal()) << name;
        }
    }
}

TEST(Checkers, NormalcyWitnessesReplay) {
    auto model = stg::bench::vme_bus_csc_resolved();
    UnfoldingChecker checker(model);
    auto n = checker.check_normalcy();
    for (const auto& sn : n.per_signal) {
        for (const auto* w : {sn.p_violation ? &*sn.p_violation : nullptr,
                              sn.n_violation ? &*sn.n_violation : nullptr}) {
            if (!w) continue;
            auto m1 = model.system().fire_sequence(w->trace1);
            auto m2 = model.system().fire_sequence(w->trace2);
            ASSERT_TRUE(m1 && m2);
            EXPECT_EQ(*m1, w->m1);
            EXPECT_EQ(*m2, w->m2);
            EXPECT_TRUE(w->code1.subset_of(w->code2));
            EXPECT_EQ(model.nxt(*m1, w->code1, w->signal), w->nxt1);
            EXPECT_EQ(model.nxt(*m2, w->code2, w->signal), w->nxt2);
        }
    }
}

TEST(Checkers, SeqUscViolatedCscHolds) {
    // The paper's staged approach: USC conflicts that are not CSC conflicts.
    auto model = stg::bench::sequential_handshakes(3);
    UnfoldingChecker checker(model);
    EXPECT_FALSE(checker.check_usc().holds);
    EXPECT_TRUE(checker.check_csc().holds);
}

TEST(Checkers, TokenRingConflicts) {
    auto model = stg::bench::token_ring(2);
    UnfoldingChecker checker(model);
    auto usc = checker.check_usc();
    auto csc = checker.check_csc();
    EXPECT_FALSE(usc.holds);
    EXPECT_FALSE(csc.holds);
    // The CSC conflict is between two all-zero-coded token positions.
    EXPECT_TRUE(csc.witness->code.none());
}

TEST(Checkers, ConflictFreeFamiliesHold) {
    for (auto* make : {+[] { return stg::bench::muller_pipeline(4); },
                       +[] { return stg::bench::counterflow(3, true); },
                       +[] { return stg::bench::counterflow(4, false); },
                       +[] { return stg::bench::mutex_arbiter(3); },
                       +[] { return stg::bench::parallel_handshakes(4); }}) {
        auto model = make();
        UnfoldingChecker checker(model);
        EXPECT_TRUE(checker.check_usc().holds) << model.name();
        EXPECT_TRUE(checker.check_csc().holds) << model.name();
    }
}

TEST(Checkers, UscCertificateNeedsAnExhaustiveUncancelledSearch) {
    // USC => CSC: only a search that ran to exhaustion proves USC, so a
    // cancelled pass records nothing and CSC still searches; a clean pass
    // answers both CSC overloads without a single node.
    auto model = stg::bench::counterflow(4, /*symmetric=*/true);
    UnfoldingChecker checker(model);
    sched::CancellationSource source;
    source.cancel();
    SearchOptions cancelled;
    cancelled.cancel = source.token();
    (void)checker.check_usc(cancelled);
    EXPECT_FALSE(checker.artifacts()->clauses().usc_holds());
    EXPECT_GT(checker.check_csc().stats.search_nodes, 0u);

    ASSERT_TRUE(checker.check_usc().holds);
    EXPECT_TRUE(checker.artifacts()->clauses().usc_holds());
    const auto single = checker.check_csc();
    EXPECT_TRUE(single.holds);
    EXPECT_EQ(single.stats.search_nodes, 0u);
    sched::Executor serial(1);
    const auto fanned = checker.check_csc({}, serial);
    EXPECT_TRUE(fanned.holds);
    EXPECT_EQ(fanned.stats.search_nodes, 0u);
}

TEST(Checkers, StatsReported) {
    auto model = stg::bench::vme_bus();
    UnfoldingChecker checker(model);
    auto usc = checker.check_usc();
    EXPECT_GT(usc.stats.search_nodes, 0u);
    EXPECT_GT(usc.stats.leaves, 0u);
    EXPECT_GE(usc.stats.seconds, 0.0);
}

TEST(Checkers, AdoptExistingPrefix) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    const std::size_t events = prefix.num_events();
    UnfoldingChecker checker(model, std::move(prefix));
    EXPECT_EQ(checker.prefix().num_events(), events);
    EXPECT_FALSE(checker.check_csc().holds);
}

TEST(Checkers, InitialCodeExposed) {
    auto model = stg::bench::vme_bus();
    UnfoldingChecker checker(model);
    EXPECT_TRUE(checker.initial_code().none());
    EXPECT_EQ(checker.initial_code().size(), model.num_signals());
}

class AgreementTest : public ::testing::TestWithParam<int> {};

TEST_P(AgreementTest, IpAgreesWithStateGraphOnTable1) {
    auto suite = stg::bench::table1_suite();
    const auto& nb = suite[static_cast<std::size_t>(GetParam())];
    stg::StateGraph sg(nb.stg);
    ASSERT_TRUE(sg.consistent()) << nb.name;
    UnfoldingChecker checker(nb.stg);
    auto usc_sg = stg::check_usc_sg(sg);
    auto usc_ip = checker.check_usc();
    EXPECT_EQ(usc_sg.holds, usc_ip.holds) << nb.name;
    auto csc_sg = stg::check_csc_sg(sg);
    auto csc_ip = checker.check_csc();
    EXPECT_EQ(csc_sg.holds, csc_ip.holds) << nb.name;
    EXPECT_EQ(csc_ip.holds, nb.expect_conflict_free) << nb.name;
}

INSTANTIATE_TEST_SUITE_P(Table1, AgreementTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace stgcc::core
