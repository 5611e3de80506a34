#include "ilp/encodings.hpp"

#include <gtest/gtest.h>

#include "stg/benchmarks.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "unfolding/configuration.hpp"
#include "unfolding/unfolder.hpp"
#include "test_util.hpp"

namespace stgcc::ilp {
namespace {

TEST(Encodings, ModelShape) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    CodingModel cm = build_coding_model(model, prefix);
    // Two 0-1 variables per event.
    EXPECT_EQ(cm.model.num_vars(), 2 * prefix.num_events());
    // Cut-off variables are pinned to zero.
    for (unf::EventId e = 0; e < prefix.num_events(); ++e) {
        const int ub = prefix.event(e).cutoff ? 0 : 1;
        EXPECT_EQ(cm.model.upper_bound(cm.xa[e]), ub);
        EXPECT_EQ(cm.model.upper_bound(cm.xb[e]), ub);
    }
    // One compatibility row per condition per side, plus one code row per
    // signal that has events.
    EXPECT_EQ(cm.model.num_constraints(),
              2 * prefix.num_conditions() + model.num_signals());
}

TEST(Encodings, CompatibilitySolutionsAreConfigurations) {
    // Every 0-1 solution of the compatibility rows alone must be a valid
    // configuration Parikh vector (exactness of the marking equation on
    // acyclic nets -- paper, section 2.2).
    auto model = test::tiny_conflict();
    auto prefix = unf::unfold(model.system());
    Model m;
    std::vector<VarId> x;
    for (unf::EventId e = 0; e < prefix.num_events(); ++e)
        x.push_back(m.add_var(0, prefix.event(e).cutoff ? 0 : 1));
    for (unf::ConditionId b = 0; b < prefix.num_conditions(); ++b) {
        const auto& cond = prefix.condition(b);
        std::vector<Term> terms;
        int initial = cond.producer == unf::kNoEvent ? 1 : 0;
        if (cond.producer != unf::kNoEvent) terms.push_back({x[cond.producer], 1});
        for (unf::EventId f : cond.consumers) terms.push_back({x[f], -1});
        if (!terms.empty()) m.add_ge(std::move(terms), -initial);
    }
    BBSolver solver(m);
    std::size_t solutions = 0;
    (void)solver.solve([&](const std::vector<int>& v) {
        BitVec cfg = prefix.make_event_set();
        for (unf::EventId e = 0; e < prefix.num_events(); ++e)
            if (v[x[e]]) cfg.set(e);
        EXPECT_TRUE(unf::is_configuration(prefix, cfg));
        ++solutions;
        return false;
    });
    EXPECT_GT(solutions, 0u);
}

TEST(Encodings, GenericUscAgreesOnVme) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    auto r = check_usc_generic(model, prefix);
    EXPECT_FALSE(r.holds);
    ASSERT_TRUE(r.witness.has_value());
    // The witness replays and the codes agree.
    auto m1 = model.system().fire_sequence(r.witness->trace1);
    auto m2 = model.system().fire_sequence(r.witness->trace2);
    ASSERT_TRUE(m1 && m2);
    EXPECT_FALSE(*m1 == *m2);
    EXPECT_EQ(model.change_vector(r.witness->trace1),
              model.change_vector(r.witness->trace2));
}

TEST(Encodings, GenericCscAgreesOnVme) {
    auto model = stg::bench::vme_bus();
    auto prefix = unf::unfold(model.system());
    auto r = check_csc_generic(model, prefix);
    EXPECT_FALSE(r.holds);
    ASSERT_TRUE(r.witness.has_value());
    EXPECT_TRUE(r.witness->is_csc());
}

TEST(Encodings, GenericAgreesWithStateGraphOnSmallSuite) {
    std::vector<stg::Stg> models;
    models.push_back(test::tiny_handshake());
    models.push_back(test::tiny_conflict());
    models.push_back(stg::bench::vme_bus_csc_resolved());
    models.push_back(stg::bench::johnson_counter(3));
    models.push_back(stg::bench::sequential_handshakes(2));
    for (const auto& model : models) {
        auto prefix = unf::unfold(model.system());
        stg::StateGraph sg(model);
        EXPECT_EQ(check_usc_generic(model, prefix).holds,
                  stg::check_usc_sg(sg).holds)
            << model.name();
        EXPECT_EQ(check_csc_generic(model, prefix).holds,
                  stg::check_csc_sg(sg).holds)
            << model.name();
    }
}

TEST(Encodings, NodeLimitThrows) {
    auto model = stg::bench::parallel_handshakes(4);
    auto prefix = unf::unfold(model.system());
    GenericCheckOptions opts;
    opts.max_nodes = 10;
    EXPECT_THROW((void)check_usc_generic(model, prefix, opts), ModelError);
}

}  // namespace
}  // namespace stgcc::ilp
