#include "stg/state_graph.hpp"

#include <gtest/gtest.h>

#include "stg/benchmarks.hpp"
#include "stg/builder.hpp"
#include "test_util.hpp"

namespace stgcc::stg {
namespace {

TEST(StateGraph, TinyHandshakeCodes) {
    auto model = test::tiny_handshake();
    StateGraph sg(model);
    ASSERT_TRUE(sg.consistent());
    EXPECT_EQ(sg.num_states(), 4u);
    EXPECT_TRUE(sg.initial_code().none());
    // Codes cycle 00 -> 10 -> 11 -> 01.
    std::set<std::string> codes;
    for (petri::StateId s = 0; s < sg.num_states(); ++s)
        codes.insert(sg.code(s).to_string());
    EXPECT_EQ(codes, (std::set<std::string>{"00", "10", "11", "01"}));
}

TEST(StateGraph, VmeInitialCodeAllZero) {
    auto model = stg::bench::vme_bus();
    StateGraph sg(model);
    ASSERT_TRUE(sg.consistent());
    EXPECT_TRUE(sg.initial_code().none());
    EXPECT_EQ(sg.num_states(), 14u);
}

TEST(StateGraph, NonZeroInitialCodeDerived) {
    // b starts at 1: the first edge of b is falling.
    StgBuilder b("init1");
    b.input("a").output("b");
    b.arc("a+", "b-").arc("b-", "a-").arc("a-", "b+").arc("b+", "a+");
    b.token_between("b+", "a+");
    auto model = b.build();
    StateGraph sg(model);
    ASSERT_TRUE(sg.consistent());
    EXPECT_FALSE(sg.initial_code().test(model.find_signal("a")));
    EXPECT_TRUE(sg.initial_code().test(model.find_signal("b")));
}

TEST(StateGraph, InconsistentNonAlternation) {
    // a+ twice in a row without a-.
    StgBuilder b("bad");
    b.input("a");
    b.arc("a+/1", "a+/2").arc("a+/2", "a-").arc("a-", "a+/1");
    b.token_between("a-", "a+/1");
    auto model = b.build();
    StateGraph sg(model);
    EXPECT_FALSE(sg.consistent());
    EXPECT_FALSE(sg.inconsistency_reason().empty());
}

TEST(StateGraph, InconsistentDivergentPaths) {
    // Choice between a+ and b+, both reconverging on the same place without
    // resetting the signals: the shared marking gets two different codes.
    StgBuilder b("bad2");
    b.input("a").input("b");
    b.place("p", 1);
    b.place("q", 0);
    b.arc("p", "a+").arc("a+", "q");
    b.arc("p", "b+").arc("b+", "q");
    b.arc("q", "a-");
    b.arc("a-", "p");
    auto model = b.build();
    StateGraph sg(model);
    EXPECT_FALSE(sg.consistent());
}

TEST(StateGraph, CodeThrowsWhenInconsistent) {
    StgBuilder b("bad3");
    b.input("a");
    b.arc("a+/1", "a+/2").arc("a+/2", "a-").arc("a-", "a+/1");
    b.token_between("a-", "a+/1");
    auto model = b.build();
    StateGraph sg(model);
    ASSERT_FALSE(sg.consistent());
    EXPECT_THROW(sg.code(0), ContractViolation);
    EXPECT_THROW((void)sg.initial_code(), ContractViolation);
}

TEST(StateGraph, CodesFollowEdges) {
    auto model = stg::bench::vme_bus();
    StateGraph sg(model);
    ASSERT_TRUE(sg.consistent());
    for (petri::StateId s = 0; s < sg.num_states(); ++s) {
        for (const auto& e : sg.graph().successors(s)) {
            Code expected = model.code_after(sg.code(s), e.transition);
            EXPECT_EQ(sg.code(e.target), expected);
        }
    }
}

TEST(StateGraph, OutSetAndNxt) {
    auto model = stg::bench::vme_bus();
    StateGraph sg(model);
    // State after dsr+ lds+ ldtack+: Out = {d}, Nxt_d = 1.
    auto m = model.system().fire_sequence(
        {model.net().find_transition("dsr+"), model.net().find_transition("lds+"),
         model.net().find_transition("ldtack+")});
    ASSERT_TRUE(m.has_value());
    const petri::StateId s = sg.graph().find(*m);
    ASSERT_NE(s, petri::kNoState);
    EXPECT_EQ(sg.code(s).to_string(), "11010");  // dsr,ldtack,dtack,lds,d
    BitVec out = sg.out_set(s);
    EXPECT_EQ(out.count(), 1u);
    EXPECT_TRUE(out.test(model.find_signal("d")));
    EXPECT_TRUE(sg.nxt(s, model.find_signal("d")));
    EXPECT_FALSE(sg.nxt(s, model.find_signal("dtack")));
    EXPECT_TRUE(sg.nxt(s, model.find_signal("lds")));  // lds=1, no edge enabled
}

TEST(StateGraph, RandomStgsConsistent) {
    // random_stg builds components whose places carry fixed codes, so the
    // result is consistent by construction.
    for (unsigned seed = 100; seed < 120; ++seed) {
        auto model = test::random_stg(seed);
        StateGraph sg(model);
        EXPECT_TRUE(sg.consistent()) << "seed=" << seed;
    }
}

}  // namespace
}  // namespace stgcc::stg
