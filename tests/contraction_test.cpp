#include "stg/contraction.hpp"

#include <gtest/gtest.h>

#include <random>

#include "core/checkers.hpp"
#include "stg/benchmarks.hpp"
#include "stg/builder.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "test_util.hpp"

namespace stgcc::stg {
namespace {

/// Insert a dummy transition into the middle of every k-th arc between two
/// transitions of a dummy-free STG (x -> p -> y becomes
/// x -> p -> tau -> p' -> y): the inverse of a series of contractions.
Stg insert_dummies(const Stg& original, int every_kth) {
    Stg out;
    out.set_name(original.name() + "-dummies");
    for (SignalId z = 0; z < original.num_signals(); ++z)
        out.add_signal(original.signal_name(z), original.signal_kind(z));
    const petri::Net& net = original.net();
    for (petri::TransitionId t = 0; t < net.num_transitions(); ++t)
        out.add_transition(net.transition_name(t), original.label(t));
    petri::Marking m0(0);
    std::vector<std::uint32_t> tokens;
    int counter = 0;
    for (petri::PlaceId p = 0; p < net.num_places(); ++p) {
        const bool split = net.pre_of_place(p).size() == 1 &&
                           net.post_of_place(p).size() == 1 &&
                           (++counter % every_kth == 0);
        const petri::PlaceId p1 = out.add_place(net.place_name(p));
        tokens.push_back(original.system().initial_marking()[p]);
        for (petri::TransitionId t : net.pre_of_place(p)) out.add_arc_tp(t, p1);
        if (split) {
            const petri::TransitionId tau =
                out.add_dummy_transition("tau" + std::to_string(p));
            const petri::PlaceId p2 = out.add_place(net.place_name(p) + "'");
            tokens.push_back(0);
            out.add_arc_pt(p1, tau);
            out.add_arc_tp(tau, p2);
            for (petri::TransitionId t : net.post_of_place(p))
                out.add_arc_pt(p2, t);
        } else {
            for (petri::TransitionId t : net.post_of_place(p))
                out.add_arc_pt(p1, t);
        }
    }
    petri::Marking marking(out.net().num_places());
    for (std::size_t p = 0; p < tokens.size(); ++p) marking.set(p, tokens[p]);
    out.set_initial_marking(std::move(marking));
    return out;
}

TEST(Contraction, SeriesDummyRemoved) {
    StgBuilder b("series");
    b.input("a").output("x").dummy("eps");
    b.chain({"a+", "eps", "x+", "a-", "x-", "a+"});
    b.token_between("x-", "a+");
    auto model = b.build();
    ASSERT_TRUE(model.has_dummies());
    auto result = contract_dummies(model);
    EXPECT_EQ(result.contracted, 1u);
    EXPECT_FALSE(result.stg.has_dummies());
    // Behaviour: the visible state graph is the 4-phase cycle.
    StateGraph sg(result.stg);
    ASSERT_TRUE(sg.consistent());
    EXPECT_EQ(sg.num_states(), 4u);
    EXPECT_TRUE(sg.graph().is_safe());
}

TEST(Contraction, ForkJoinDummy) {
    // tau with two preset and two postset places (a synchroniser).
    StgBuilder b("forkjoin");
    b.input("a").input("b").output("x").output("y").dummy("eps");
    b.arc("a+", "eps").arc("b+", "eps");
    b.arc("eps", "x+").arc("eps", "y+");
    b.arc("x+", "a-").arc("y+", "b-");
    b.arc("a-", "x-").arc("b-", "y-");
    b.arc("x-", "a+").arc("y-", "b+");
    b.token_between("x-", "a+");
    b.token_between("y-", "b+");
    auto model = b.build();
    auto result = contract_dummies(model);
    EXPECT_EQ(result.contracted, 1u);
    EXPECT_FALSE(result.stg.has_dummies());
    // 2x2 product places replace the four around eps.
    StateGraph sg_before(model);
    StateGraph sg_after(result.stg);
    ASSERT_TRUE(sg_after.consistent());
    EXPECT_TRUE(sg_after.graph().deadlocks().empty());
}

TEST(Contraction, InsecureDummyLeftAlone) {
    // The place feeding the dummy also feeds a labelled transition (a
    // choice): not type-1 secure.
    StgBuilder b("choice");
    b.input("a").input("c").dummy("eps");
    b.place("p", 1);
    b.place("q");
    b.arc("p", "eps").arc("eps", "q");
    b.arc("p", "a+").arc("a+", "q");
    b.arc("q", "c+").arc("c+", "c-");
    b.arc("c-", "a-");
    b.arc("a-", "p");
    auto model = b.build();
    auto result = contract_dummies(model);
    EXPECT_EQ(result.contracted, 0u);
    EXPECT_TRUE(result.stg.has_dummies());
    EXPECT_FALSE(is_contractable(model, model.net().find_transition("eps")));
}

TEST(Contraction, ConstantSelfLoopIsNoObstacle) {
    // eps also loops on `loop`, a marked place that every adjacent
    // transition both consumes and produces: its marking never changes, so
    // the loop neither enables nor distinguishes anything.  Contraction
    // drops eps's arcs to it and then removes eps as a series dummy.
    StgBuilder b("const-loop");
    b.input("a").output("x").dummy("eps");
    b.chain({"a+", "eps", "x+", "a-", "x-", "a+"});
    b.token_between("x-", "a+");
    b.place("loop", 1);
    b.arc("loop", "eps").arc("eps", "loop");
    const auto model = b.build();
    EXPECT_TRUE(is_contractable(model, model.net().find_transition("eps")));
    const auto result = contract_dummies(model);
    EXPECT_EQ(result.contracted, 1u);
    EXPECT_FALSE(result.stg.has_dummies());

    // A self-loop place whose marking can change stays an obstacle.
    StgBuilder v("varying-loop");
    v.input("a").output("x").dummy("eps");
    v.chain({"a+", "eps", "x+", "a-", "x-", "a+"});
    v.token_between("x-", "a+");
    v.place("loop", 1);
    v.arc("loop", "eps").arc("eps", "loop").arc("loop", "x+");
    const auto varying = v.build();
    EXPECT_FALSE(
        is_contractable(varying, varying.net().find_transition("eps")));
    EXPECT_TRUE(contract_dummies(varying).stg.has_dummies());
}

class ContractionRoundtrip : public ::testing::TestWithParam<int> {};

TEST_P(ContractionRoundtrip, InsertThenContractPreservesVerdicts) {
    std::vector<Stg> models;
    models.push_back(stg::bench::vme_bus());
    models.push_back(stg::bench::vme_bus_csc_resolved());
    models.push_back(stg::bench::muller_pipeline(3));
    models.push_back(stg::bench::sequential_handshakes(2));
    models.push_back(stg::bench::token_ring(2));
    models.push_back(stg::bench::duplex_channel(1, false));
    const auto& original = models[static_cast<std::size_t>(GetParam())];

    Stg with_dummies = insert_dummies(original, 2);
    ASSERT_TRUE(with_dummies.has_dummies());
    auto result = contract_dummies(with_dummies);
    EXPECT_FALSE(result.stg.has_dummies())
        << "all inserted dummies are series dummies";

    // The contracted STG must be behaviourally identical to the original:
    // same state count, same verdicts everywhere.
    StateGraph sg1(original), sg2(result.stg);
    ASSERT_TRUE(sg2.consistent());
    EXPECT_EQ(sg1.num_states(), sg2.num_states());
    EXPECT_EQ(check_usc_sg(sg1).holds, check_usc_sg(sg2).holds);
    EXPECT_EQ(check_csc_sg(sg1).holds, check_csc_sg(sg2).holds);
    auto n1 = check_normalcy_sg(sg1);
    auto n2 = check_normalcy_sg(sg2);
    EXPECT_EQ(n1.normal, n2.normal);

    // And the unfolding+IP pipeline accepts it.
    core::UnfoldingChecker checker(result.stg);
    EXPECT_EQ(checker.check_usc().holds, check_usc_sg(sg1).holds);
    EXPECT_EQ(checker.check_csc().holds, check_csc_sg(sg1).holds);
}

INSTANTIATE_TEST_SUITE_P(Models, ContractionRoundtrip, ::testing::Range(0, 6));

TEST(Contraction, DummyFreeInputUnchanged) {
    auto model = stg::bench::vme_bus();
    auto result = contract_dummies(model);
    EXPECT_EQ(result.contracted, 0u);
    StateGraph sg1(model), sg2(result.stg);
    EXPECT_EQ(sg1.num_states(), sg2.num_states());
}

TEST(Contraction, ChainOfDummies) {
    StgBuilder b("chain");
    b.input("a").dummy("e1").dummy("e2").dummy("e3");
    b.chain({"a+", "e1", "e2", "e3", "a-", "a+"});
    b.token_between("a-", "a+");
    auto model = b.build();
    auto result = contract_dummies(model);
    EXPECT_EQ(result.contracted, 3u);
    EXPECT_FALSE(result.stg.has_dummies());
    StateGraph sg(result.stg);
    EXPECT_EQ(sg.num_states(), 2u);
}

}  // namespace
}  // namespace stgcc::stg
