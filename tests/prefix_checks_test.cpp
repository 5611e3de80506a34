#include "unfolding/prefix_checks.hpp"

#include <gtest/gtest.h>

#include "stg/benchmarks.hpp"
#include "stg/builder.hpp"
#include "stg/state_graph.hpp"
#include "unfolding/unfolder.hpp"
#include "test_util.hpp"

namespace stgcc::unf {
namespace {

TEST(PrefixChecks, VmeConsistentWithZeroInitialCode) {
    auto model = stg::bench::vme_bus();
    Prefix prefix = unfold(model.system());
    auto r = analyze_consistency(model, prefix);
    EXPECT_TRUE(r.consistent);
    EXPECT_TRUE(r.initial_code.none());
}

TEST(PrefixChecks, DerivedInitialCodeMatchesStateGraph) {
    // Model with a signal starting at 1.
    stg::StgBuilder b("init1");
    b.input("a").output("b");
    b.arc("a+", "b-").arc("b-", "a-").arc("a-", "b+").arc("b+", "a+");
    b.token_between("b+", "a+");
    auto model = b.build();
    Prefix prefix = unfold(model.system());
    auto r = analyze_consistency(model, prefix);
    ASSERT_TRUE(r.consistent);
    stg::StateGraph sg(model);
    ASSERT_TRUE(sg.consistent());
    EXPECT_EQ(r.initial_code, sg.initial_code());
}

TEST(PrefixChecks, NonAlternationDetected) {
    stg::StgBuilder b("bad");
    b.input("a").output("x");
    b.arc("a+/1", "a+/2").arc("a+/2", "x+").arc("x+", "a-").arc("a-", "x-");
    b.arc("x-", "a+/1");
    b.token_between("x-", "a+/1");
    auto model = b.build();
    Prefix prefix = unfold(model.system());
    auto r = analyze_consistency(model, prefix);
    EXPECT_FALSE(r.consistent);
    EXPECT_NE(r.reason.find("alternate"), std::string::npos);
}

TEST(PrefixChecks, ConcurrentEdgesOfSameSignalDetected) {
    // Two parallel branches both raising z: non-binary / ill-defined code.
    stg::StgBuilder b("bad-conc");
    b.input("a").output("z");
    b.place("p", 1);
    // a+ forks two concurrent z+ instances, then everything resets.
    b.arc("p", "a+");
    b.arc("a+", "z+/1");
    b.arc("a+", "z+/2");
    b.arc("z+/1", "a-");
    b.arc("z+/2", "a-");
    b.arc("a-", "z-");
    b.arc("z-", "p");
    auto model = b.build();
    Prefix prefix = unfold(model.system());
    auto r = analyze_consistency(model, prefix);
    EXPECT_FALSE(r.consistent);
    EXPECT_NE(r.reason.find("concurrent"), std::string::npos);
}

TEST(PrefixChecks, FirstOccurrenceSignDisagreementDetected) {
    // Free choice between a+ and a- as the first edge of a.
    stg::StgBuilder b("bad-first");
    b.input("a");
    b.place("p", 1);
    b.place("q");
    b.arc("p", "a+").arc("a+", "q");
    b.arc("p", "a-").arc("a-", "q");
    b.arc("q", "a+/2");
    b.arc("a+/2", "p");
    auto model = b.build();
    Prefix prefix = unfold(model.system());
    auto r = analyze_consistency(model, prefix);
    EXPECT_FALSE(r.consistent);
}

TEST(PrefixChecks, AgreesWithStateGraphOnSuite) {
    std::vector<stg::Stg> models;
    models.push_back(stg::bench::vme_bus());
    models.push_back(stg::bench::vme_bus_csc_resolved());
    models.push_back(stg::bench::parallel_handshakes(3));
    models.push_back(stg::bench::sequential_handshakes(2));
    models.push_back(stg::bench::muller_pipeline(3));
    models.push_back(stg::bench::token_ring(3));
    models.push_back(stg::bench::duplex_channel(2, false));
    for (const auto& model : models) {
        Prefix prefix = unfold(model.system());
        auto pr = analyze_consistency(model, prefix);
        stg::StateGraph sg(model);
        EXPECT_EQ(pr.consistent, sg.consistent()) << model.name();
        if (pr.consistent) {
            EXPECT_EQ(pr.initial_code, sg.initial_code());
        }
    }
}

TEST(PrefixChecks, AgreesWithStateGraphOnRandomStgs) {
    for (unsigned seed = 200; seed < 230; ++seed) {
        auto model = test::random_stg(seed);
        Prefix prefix = unfold(model.system());
        auto pr = analyze_consistency(model, prefix);
        stg::StateGraph sg(model);
        EXPECT_EQ(pr.consistent, sg.consistent()) << "seed=" << seed;
        if (pr.consistent && sg.consistent()) {
            EXPECT_EQ(pr.initial_code, sg.initial_code()) << "seed=" << seed;
        }
    }
}

TEST(PrefixChecks, ConflictFreenessDetection) {
    // Marked graphs are dynamically conflict-free.
    for (auto* make : {+[] { return stg::bench::vme_bus(); },
                       +[] { return stg::bench::muller_pipeline(3); },
                       +[] { return stg::bench::parallel_handshakes(2); }}) {
        auto model = make();
        Prefix prefix = unfold(model.system());
        EXPECT_TRUE(is_dynamically_conflict_free(prefix)) << model.name();
    }
    // The token ring has real choices.
    auto ring = stg::bench::token_ring(2);
    Prefix prefix = unfold(ring.system());
    EXPECT_FALSE(is_dynamically_conflict_free(prefix));
}

TEST(PrefixChecks, ChangeVectorOfConfiguration) {
    auto model = stg::bench::vme_bus();
    Prefix prefix = unfold(model.system());
    // [e1] = {dsr+}: change vector has +1 for dsr only.
    auto v = change_vector_of(model, prefix, prefix.local_config(0));
    EXPECT_EQ(v[model.find_signal("dsr")], 1);
    for (stg::SignalId z = 0; z < model.num_signals(); ++z) {
        if (z != model.find_signal("dsr")) {
            EXPECT_EQ(v[z], 0);
        }
    }
}

TEST(PrefixChecks, DummiesRejected) {
    stg::StgBuilder b("dum");
    b.input("a").dummy("eps");
    b.arc("a+", "eps").arc("eps", "a-").arc("a-", "a+");
    b.token_between("a-", "a+");
    auto model = b.build();
    Prefix prefix = unfold(model.system());
    EXPECT_THROW((void)analyze_consistency(model, prefix), ModelError);
}

}  // namespace
}  // namespace stgcc::unf
