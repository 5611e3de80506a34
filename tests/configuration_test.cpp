#include "unfolding/configuration.hpp"

#include <gtest/gtest.h>

#include "stg/benchmarks.hpp"
#include "unfolding/unfolder.hpp"
#include "test_util.hpp"

namespace stgcc::unf {
namespace {

class ConfigFixture : public ::testing::Test {
protected:
    void SetUp() override {
        model_ = stg::bench::vme_bus();
        prefix_ = std::make_unique<Prefix>(unfold(model_.system()));
    }
    stg::Stg model_;
    std::unique_ptr<Prefix> prefix_;
};

TEST_F(ConfigFixture, EmptyConfigurationIsInitialMarking) {
    BitVec empty = prefix_->make_event_set();
    EXPECT_TRUE(is_configuration(*prefix_, empty));
    EXPECT_EQ(marking_of(*prefix_, empty), model_.system().initial_marking());
}

TEST_F(ConfigFixture, LocalConfigsAreConfigurations) {
    for (EventId e = 0; e < prefix_->num_events(); ++e)
        EXPECT_TRUE(is_configuration(*prefix_, prefix_->local_config(e)));
}

TEST_F(ConfigFixture, NonClosedSetRejected) {
    // The set {e2} without e1 (its cause) is not a configuration.
    BitVec s = prefix_->make_event_set();
    s.set(1);
    EXPECT_FALSE(is_configuration(*prefix_, s));
}

TEST_F(ConfigFixture, ConflictingSetRejected) {
    auto ring = stg::bench::token_ring(2);
    Prefix prefix = unfold(ring.system());
    // Find a direct conflict pair and try to combine both with their causes.
    for (ConditionId b = 0; b < prefix.num_conditions(); ++b) {
        const auto& consumers = prefix.condition(b).consumers;
        if (consumers.size() < 2) continue;
        BitVec s(prefix.local_config(consumers[0]));
        s |= prefix.local_config(consumers[1]);
        EXPECT_FALSE(is_configuration(prefix, s));
        return;
    }
    FAIL() << "expected a choice place in the ring prefix";
}

TEST_F(ConfigFixture, FiringSequenceReplays) {
    for (EventId e = 0; e < prefix_->num_events(); ++e) {
        const BitSpan cfg = prefix_->local_config(e);
        auto seq = firing_sequence_of(*prefix_, cfg);
        EXPECT_EQ(seq.size(), cfg.count());
        auto m = model_.system().fire_sequence(seq);
        ASSERT_TRUE(m.has_value()) << prefix_->event_name(e);
        EXPECT_EQ(*m, marking_of(*prefix_, cfg));
    }
}

TEST_F(ConfigFixture, LinearizeRespectsCausality) {
    for (EventId e = 0; e < prefix_->num_events(); ++e) {
        auto order = linearize(*prefix_, prefix_->local_config(e));
        for (std::size_t i = 0; i < order.size(); ++i)
            for (std::size_t j = i + 1; j < order.size(); ++j)
                EXPECT_FALSE(prefix_->causes(order[j], order[i]));
    }
}

TEST_F(ConfigFixture, ParikhCountsTransitions) {
    // The full cut-off-free configuration of the VME prefix fires dsr+ twice.
    BitVec all = prefix_->make_event_set();
    for (EventId e = 0; e < prefix_->num_events(); ++e)
        if (!prefix_->event(e).cutoff) all.set(e);
    ASSERT_TRUE(is_configuration(*prefix_, all));
    auto x = parikh_of(*prefix_, all);
    EXPECT_EQ(x[model_.net().find_transition("dsr+")], 2u);
    EXPECT_EQ(x[model_.net().find_transition("dsr-")], 1u);
}

}  // namespace
}  // namespace stgcc::unf
