// Layout-refactor property tests (docs/MEMORY.md): the frozen CSR/arena
// prefix must answer every structural and relational query identically to
// the mutable builder it was frozen from, across the random-STG generator's
// choice/sync/dummy knobs; and reports stay byte-identical at any jobs
// value.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "obs/metrics.hpp"
#include "stg/benchmarks.hpp"
#include "test_util.hpp"
#include "unfolding/unfolder.hpp"
#include "util/arena.hpp"
#include "util/bit_matrix.hpp"

namespace stgcc::unf {
namespace {

/// Every query the detection stack makes of a prefix, asked of both phases.
void expect_frozen_matches_builder(const PrefixBuilder& b, const Prefix& p) {
    ASSERT_EQ(b.num_events(), p.num_events());
    ASSERT_EQ(b.num_conditions(), p.num_conditions());

    // Satellite: the frozen event-set width is exactly num_events() -- the
    // old max(...,1) capacity quirk is gone.
    EXPECT_EQ(p.make_event_set().size(), p.num_events());

    ASSERT_EQ(b.min_conditions().size(), p.min_conditions().size());
    for (std::size_t i = 0; i < p.min_conditions().size(); ++i)
        EXPECT_EQ(b.min_conditions()[i], p.min_conditions()[i]);

    for (ConditionId c = 0; c < p.num_conditions(); ++c) {
        const auto& bc = b.condition(c);
        const Condition pc = p.condition(c);
        EXPECT_EQ(bc.place, pc.place);
        EXPECT_EQ(bc.producer, pc.producer);
        ASSERT_EQ(bc.consumers.size(), pc.consumers.size());
        for (std::size_t i = 0; i < pc.consumers.size(); ++i)
            EXPECT_EQ(bc.consumers[i], pc.consumers[i]);
    }

    for (EventId e = 0; e < p.num_events(); ++e) {
        const auto& be = b.event(e);
        const Event pe = p.event(e);
        EXPECT_EQ(be.transition, pe.transition);
        EXPECT_EQ(be.cutoff, pe.cutoff);
        EXPECT_EQ(be.companion, pe.companion);
        EXPECT_EQ(be.foata_level, pe.foata_level);
        ASSERT_EQ(be.preset.size(), pe.preset.size());
        for (std::size_t i = 0; i < pe.preset.size(); ++i)
            EXPECT_EQ(be.preset[i], pe.preset[i]);
        ASSERT_EQ(be.postset.size(), pe.postset.size());
        for (std::size_t i = 0; i < pe.postset.size(); ++i)
            EXPECT_EQ(be.postset[i], pe.postset[i]);

        // Relation rows: builder rows are capacity-width, frozen rows are
        // exactly num_events() wide; bit contents must agree on the overlap
        // and the builder must have nothing beyond it.
        const BitSpan lc = p.local_config(e);
        const BitSpan cf = p.conflicts(e);
        const BitSpan su = p.successors(e);
        ASSERT_EQ(lc.size(), p.num_events());
        ASSERT_EQ(cf.size(), p.num_events());
        ASSERT_EQ(su.size(), p.num_events());
        for (EventId f = 0; f < p.num_events(); ++f) {
            EXPECT_EQ(b.local_config(e).test(f), lc.test(f)) << e << "," << f;
            EXPECT_EQ(b.conflicts(e).test(f), cf.test(f)) << e << "," << f;
            EXPECT_EQ(b.successors(e).test(f), su.test(f)) << e << "," << f;
            EXPECT_EQ(b.causes(f, e), p.causes(f, e));
            EXPECT_EQ(b.concurrent(e, f), p.concurrent(e, f));
        }
        for (std::size_t f = p.num_events(); f < b.local_config(e).size(); ++f)
            EXPECT_FALSE(b.local_config(e).test(f))
                << "builder row " << e << " has a bit past num_events()";
    }
}

TEST(LayoutProperty, FrozenPrefixMatchesBuilderOnRandomStgs) {
    // Sweep the generator knobs the unfolder is sensitive to: plain choice
    // nets, non-free-choice sync, and dummy-spliced edges.
    std::vector<test::RandomStgConfig> knobs;
    knobs.push_back({});
    {
        test::RandomStgConfig c;
        c.branch_probability = 0.6;
        knobs.push_back(c);
    }
    {
        test::RandomStgConfig c;
        c.machines = 3;
        c.sync_transitions = 2;
        knobs.push_back(c);
    }
    {
        test::RandomStgConfig c;
        c.dummy_probability = 0.3;
        knobs.push_back(c);
    }
    for (std::size_t k = 0; k < knobs.size(); ++k) {
        for (unsigned seed = 1; seed <= 6; ++seed) {
            const stg::Stg model = test::random_stg(seed * 17 + 3, knobs[k]);
            const PrefixBuilder builder = unfold_builder(model.system());
            const Prefix frozen = builder.freeze();
            SCOPED_TRACE("knob " + std::to_string(k) + " seed " +
                         std::to_string(seed));
            expect_frozen_matches_builder(builder, frozen);
        }
    }
}

TEST(LayoutProperty, FreezeIsRepeatable) {
    // freeze() is const: two freezes of one builder agree with each other.
    const stg::Stg model = stg::bench::vme_bus();
    const PrefixBuilder builder = unfold_builder(model.system());
    const Prefix a = builder.freeze();
    const Prefix b = builder.freeze();
    ASSERT_EQ(a.num_events(), b.num_events());
    for (EventId e = 0; e < a.num_events(); ++e) {
        EXPECT_TRUE(a.local_config(e) == b.local_config(e));
        EXPECT_TRUE(a.conflicts(e) == b.conflicts(e));
        EXPECT_TRUE(a.successors(e) == b.successors(e));
    }
    EXPECT_GT(a.arena_bytes(), 0u);
}

TEST(LayoutWorkspace, ReportsByteIdenticalAcrossJobsWithPooling) {
    // Every solver instance owns its search state, so jobs=8 runs many
    // instances side by side; the canonical report surface must not move.
    for (unsigned seed : {11u, 29u}) {
        test::RandomStgConfig cfg;
        cfg.machines = 3;
        cfg.sync_transitions = 1;
        const stg::Stg model = test::random_stg(seed, cfg);
        core::VerifyOptions serial;
        serial.jobs = 1;
        core::VerifyOptions parallel;
        parallel.jobs = 8;
        EXPECT_EQ(core::format_report(model, core::verify_stg(model, serial)),
                  core::format_report(model, core::verify_stg(model, parallel)))
            << "seed " << seed;
    }
}

TEST(LayoutMetrics, ArenaGaugesAreRegisteredAndPopulated) {
    const stg::Stg model = test::tiny_handshake();
    const Prefix prefix = unfold(model.system());
    (void)prefix;
    // freeze() refreshes the mem.* gauges from the process-wide arena
    // accounting; both must exist in the registry and be non-zero while the
    // prefix is alive.
    EXPECT_GT(obs::gauge("mem.arena_bytes").value(), 0);
    EXPECT_GT(obs::gauge("mem.arena_peak_bytes").value(), 0);
    EXPECT_GE(util::Arena::process_peak_bytes(),
              util::Arena::process_live_bytes());
}

}  // namespace
}  // namespace stgcc::unf
