#include "core/resolver.hpp"

#include <gtest/gtest.h>

#include "core/checkers.hpp"
#include "stg/benchmarks.hpp"
#include "stg/contraction.hpp"
#include "stg/insertion.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "test_util.hpp"

namespace stgcc::core {
namespace {

TEST(Insertion, SeriesInsertionPreservesBehaviourModuloHiding) {
    // Insert an internal toggle into the VME controller, then hide it and
    // contract: the original state graph must come back.
    auto model = stg::bench::vme_bus();
    auto [base, z] = stg::with_internal_signal(model, "x");
    const auto t1 = base.net().find_transition("dsr+");
    const auto t2 = base.net().find_transition("dsr-");
    auto plus = stg::insert_signal_transition(
        base, t1, stg::Label{z, stg::Polarity::Rising}, "x+");
    auto full = stg::insert_signal_transition(
        plus, t2, stg::Label{z, stg::Polarity::Falling}, "x-");

    stg::StateGraph sg(full);
    ASSERT_TRUE(sg.consistent());

    auto hidden = stg::hide_signal(full, full.find_signal("x"));
    auto contracted = stg::contract_dummies(hidden);
    EXPECT_EQ(contracted.contracted, 2u);
    EXPECT_FALSE(contracted.stg.has_dummies());
    stg::StateGraph sg_orig(model), sg_back(contracted.stg);
    EXPECT_EQ(sg_orig.num_states(), sg_back.num_states());
    EXPECT_EQ(sg_orig.graph().num_edges(), sg_back.graph().num_edges());
}

TEST(Insertion, RewiresPostsetThroughNewEvent) {
    auto model = test::tiny_handshake();
    auto [base, z] = stg::with_internal_signal(model, "x");
    const auto a_plus = base.net().find_transition("a+");
    auto out = stg::insert_signal_transition(
        base, a_plus, stg::Label{z, stg::Polarity::Rising}, "x+");
    // a+ now leads only to the splice place; x+ inherits b+.
    const auto t_new = out.net().find_transition("x+");
    ASSERT_NE(t_new, petri::kNoTransition);
    const auto a2 = out.net().find_transition("a+");
    ASSERT_EQ(out.net().post(a2).size(), 1u);
    EXPECT_EQ(out.net().post(t_new).size(), 1u);
}

TEST(Resolver, ResolvesVmeLikeThePaper) {
    auto model = stg::bench::vme_bus();
    auto result = resolve_csc(model);
    ASSERT_TRUE(result.resolved);
    EXPECT_EQ(result.steps.size(), 1u);  // one signal suffices, as in Fig. 3

    // The repaired STG really satisfies USC and CSC by both checkers.
    stg::StateGraph sg(result.stg);
    ASSERT_TRUE(sg.consistent());
    EXPECT_TRUE(stg::check_csc_sg(sg).holds);
    UnfoldingChecker checker(result.stg);
    EXPECT_TRUE(checker.check_usc().holds);
    EXPECT_TRUE(checker.check_csc().holds);

    // Interface preserved: same input/output signals plus one internal.
    EXPECT_EQ(result.stg.num_signals(), model.num_signals() + 1);
    EXPECT_EQ(result.stg.signal_kind(result.stg.find_signal("csc0")),
              stg::SignalKind::Internal);
}

TEST(Resolver, ResolvedStgHidesBackToOriginal) {
    auto model = stg::bench::vme_bus();
    auto result = resolve_csc(model);
    ASSERT_TRUE(result.resolved);
    auto hidden = stg::hide_signal(result.stg,
                                   result.stg.find_signal("csc0"));
    auto contracted = stg::contract_dummies(hidden);
    EXPECT_FALSE(contracted.stg.has_dummies());
    stg::StateGraph sg_orig(model), sg_back(contracted.stg);
    EXPECT_EQ(sg_orig.num_states(), sg_back.num_states());
    EXPECT_EQ(sg_orig.graph().num_edges(), sg_back.graph().num_edges());
}

TEST(Resolver, AlreadyCleanInputReturnsImmediately) {
    auto model = stg::bench::muller_pipeline(3);
    auto result = resolve_csc(model);
    EXPECT_TRUE(result.resolved);
    EXPECT_TRUE(result.steps.empty());
    EXPECT_EQ(result.stg.num_signals(), model.num_signals());
}

TEST(Resolver, PhaseEnvelope) {
    auto model = stg::bench::phase_envelope(1);
    auto result = resolve_csc(model);
    ASSERT_TRUE(result.resolved);
    UnfoldingChecker checker(result.stg);
    EXPECT_TRUE(checker.check_csc().holds);
}

TEST(Resolver, SequentialHandshakesCscAlreadyFine) {
    // SEQ(2) has USC conflicts but no CSC conflict: the CSC-targeted
    // resolver correctly does nothing.
    auto model = stg::bench::sequential_handshakes(2);
    auto result = resolve_csc(model);
    EXPECT_TRUE(result.resolved);
    EXPECT_TRUE(result.steps.empty());
}

TEST(Resolver, SequentialHandshakesUscTarget) {
    auto model = stg::bench::sequential_handshakes(2);
    ResolveOptions opts;
    opts.target_usc = true;
    auto result = resolve_csc(model, opts);
    ASSERT_TRUE(result.resolved);
    EXPECT_FALSE(result.steps.empty());
    UnfoldingChecker checker(result.stg);
    EXPECT_TRUE(checker.check_usc().holds);
}

TEST(Resolver, TokenRingNeedsTwoSignalsAndChoiceSets) {
    // The 2-station ring has four all-zero-coded token positions; one bit
    // cannot split them and the skip/serve branches need choice-covering
    // insertions.  The resolver finds a two-signal repair.
    auto model = stg::bench::token_ring(2);
    auto result = resolve_csc(model);
    ASSERT_TRUE(result.resolved);
    EXPECT_EQ(result.steps.size(), 2u);
    stg::StateGraph sg(result.stg);
    ASSERT_TRUE(sg.consistent());
    EXPECT_TRUE(sg.graph().is_safe());
    EXPECT_TRUE(sg.graph().deadlocks().empty());
    UnfoldingChecker checker(result.stg);
    // CSC (what synthesis needs) holds; USC conflicts with equal Out sets
    // may legitimately remain.
    EXPECT_TRUE(checker.check_csc().holds);
}

TEST(Resolver, DuplexChannel) {
    // The uncoded duplex channel (DUP-4PH-A) resolves with one direction-
    // style signal, mirroring the hand-coded variant.
    auto model = stg::bench::duplex_channel(1, false);
    auto result = resolve_csc(model);
    ASSERT_TRUE(result.resolved);
    UnfoldingChecker checker(result.stg);
    EXPECT_TRUE(checker.check_csc().holds);
}

TEST(Resolver, RejectsInconsistentInput) {
    stg::StgBuilder b("bad");
    b.input("a");
    b.arc("a+/1", "a+/2").arc("a+/2", "a-").arc("a-", "a+/1");
    b.token_between("a-", "a+/1");
    auto model = b.build();
    EXPECT_THROW((void)resolve_csc(model), ModelError);
}

}  // namespace
}  // namespace stgcc::core
