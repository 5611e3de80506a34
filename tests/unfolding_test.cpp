#include "unfolding/unfolder.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "petri/reachability.hpp"
#include "stg/benchmarks.hpp"
#include "unfolding/configuration.hpp"
#include "test_util.hpp"

namespace stgcc::unf {
namespace {

TEST(Unfolding, VmePrefixMatchesPaperFig2) {
    auto model = stg::bench::vme_bus();
    Prefix prefix = unfold(model.system());
    // The paper's Fig. 2 prefix: 12 events, exactly one cut-off (the second
    // lds+), and 15 conditions.
    EXPECT_EQ(prefix.num_events(), 12u);
    EXPECT_EQ(prefix.num_cutoffs(), 1u);
    EXPECT_EQ(prefix.num_conditions(), 15u);
    // The cut-off is an lds+ event.
    for (EventId e = 0; e < prefix.num_events(); ++e) {
        if (prefix.event(e).cutoff) {
            EXPECT_EQ(model.net().transition_name(prefix.event(e).transition),
                      "lds+");
        }
    }
}

TEST(Unfolding, TinyHandshakePrefix) {
    auto model = test::tiny_handshake();
    Prefix prefix = unfold(model.system());
    // One full cycle a+ b+ a- b-; the final b- restores M0 and is the cut-off.
    EXPECT_EQ(prefix.num_events(), 4u);
    EXPECT_EQ(prefix.num_cutoffs(), 1u);
}

/// Run `check` on the prefix of `fixed` and on those of 24 random nets: the
/// generator's plain choice, heavy choice, non-free-choice sync and
/// dummy-spliced knobs, six seeds each.
void for_each_prefix(const stg::Stg& fixed,
                     const std::function<void(const stg::Stg&, const Prefix&)>& check) {
    {
        SCOPED_TRACE(fixed.name());
        check(fixed, unfold(fixed.system()));
    }
    std::vector<test::RandomStgConfig> knobs(4);
    knobs[1].branch_probability = 0.6;
    knobs[2].machines = 3;
    knobs[2].sync_transitions = 2;
    knobs[3].dummy_probability = 0.3;
    for (std::size_t k = 0; k < knobs.size(); ++k) {
        for (unsigned seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE("knob " + std::to_string(k) + " seed " + std::to_string(seed));
            const stg::Stg model = test::random_stg(seed * 17 + 3, knobs[k]);
            check(model, unfold(model.system()));
        }
    }
}

TEST(Unfolding, LocalConfigsAreCausallyClosed) {
    for_each_prefix(stg::bench::vme_bus(), [](const stg::Stg&, const Prefix& prefix) {
        for (EventId e = 0; e < prefix.num_events(); ++e) {
            const BitSpan cfg = prefix.local_config(e);
            EXPECT_TRUE(cfg.test(e));
            EXPECT_TRUE(is_configuration(prefix, cfg));
            // Every event's preset producers are in the local config.
            for (ConditionId b : prefix.event(e).preset) {
                const EventId prod = prefix.condition(b).producer;
                if (prod != kNoEvent) {
                    EXPECT_TRUE(cfg.test(prod));
                }
            }
        }
    });
}

TEST(Unfolding, RelationsArePartition) {
    // For any two distinct events, exactly one of: causal (either way),
    // conflict, concurrent.
    for_each_prefix(stg::bench::vme_bus(), [](const stg::Stg&, const Prefix& prefix) {
        const std::size_t n = prefix.num_events();
        EXPECT_EQ(prefix.make_event_set().size(), n);
        for (EventId e = 0; e < n; ++e) {
            // Every relation row is exactly num_events() bits wide.
            ASSERT_EQ(prefix.local_config(e).size(), n);
            ASSERT_EQ(prefix.conflicts(e).size(), n);
            ASSERT_EQ(prefix.successors(e).size(), n);
            for (EventId f = 0; f < n; ++f) {
                // successors(e) = {g : e in [g]}.
                EXPECT_EQ(prefix.successors(e).test(f),
                          prefix.local_config(f).test(e));
                if (e == f) continue;
                const int causal = prefix.causes(e, f) || prefix.causes(f, e);
                const int conf = prefix.conflicts(e).test(f);
                const int conc = prefix.concurrent(e, f);
                EXPECT_EQ(causal + conf + conc, 1)
                    << prefix.event_name(e) << " vs " << prefix.event_name(f);
                // Symmetry of conflict.
                EXPECT_EQ(prefix.conflicts(e).test(f), prefix.conflicts(f).test(e));
            }
        }
    });
}

TEST(Unfolding, ConflictsComeFromSharedConditions) {
    const auto ring = stg::bench::token_ring(2);
    const Prefix ring_prefix = unfold(ring.system());
    bool found_conflict = false;
    for (EventId e = 0; e < ring_prefix.num_events(); ++e)
        if (ring_prefix.conflicts(e).any()) found_conflict = true;
    EXPECT_TRUE(found_conflict);  // the ring has choice places
    // Direct conflicts: events sharing a precondition conflict.
    for_each_prefix(ring, [](const stg::Stg&, const Prefix& prefix) {
        for (ConditionId b = 0; b < prefix.num_conditions(); ++b) {
            const auto& consumers = prefix.condition(b).consumers;
            for (std::size_t i = 0; i < consumers.size(); ++i)
                for (std::size_t j = i + 1; j < consumers.size(); ++j)
                    EXPECT_TRUE(prefix.conflicts(consumers[i]).test(consumers[j]));
        }
    });
}

TEST(Unfolding, FoataLevelsRespectCausality) {
    for_each_prefix(stg::bench::handshake_pipeline(3),
                    [](const stg::Stg&, const Prefix& prefix) {
        for (EventId e = 0; e < prefix.num_events(); ++e) {
            for (EventId f = 0; f < prefix.num_events(); ++f) {
                if (prefix.causes(f, e)) {
                    EXPECT_LT(prefix.event(f).foata_level,
                              prefix.event(e).foata_level);
                }
            }
        }
    });
}

TEST(Unfolding, MarkingsOfLocalConfigsAreReachable) {
    auto model = stg::bench::vme_bus();
    Prefix prefix = unfold(model.system());
    petri::ReachabilityGraph rg(model.system());
    for (EventId e = 0; e < prefix.num_events(); ++e) {
        auto m = marking_of(prefix, prefix.local_config(e));
        EXPECT_NE(rg.find(m), petri::kNoState) << prefix.event_name(e);
    }
}

/// Completeness: every reachable marking is represented by a cut-off-free
/// configuration.  Checked by exhaustive enumeration of configurations on
/// small prefixes.
void check_completeness(const stg::Stg& model) {
    Prefix prefix = unfold(model.system());
    petri::ReachabilityGraph rg(model.system());
    std::set<petri::Marking> represented;
    // Enumerate all configurations without cut-offs by DFS over event sets.
    std::vector<EventId> events;
    for (EventId e = 0; e < prefix.num_events(); ++e)
        if (!prefix.event(e).cutoff) events.push_back(e);
    ASSERT_LE(events.size(), 25u) << "model too large for exhaustive check";
    BitVec cfg = prefix.make_event_set();
    represented.insert(marking_of(prefix, cfg));
    std::function<void(std::size_t)> go = [&](std::size_t i) {
        if (i == events.size()) return;
        go(i + 1);
        const EventId e = events[i];
        // Include e if possible: predecessors present, no conflicts.
        BitVec preds(prefix.local_config(e));
        bool ok = true;
        preds.for_each([&](std::size_t f) {
            if (f != e && !cfg.test(f)) ok = false;
        });
        if (ok && !prefix.conflicts(e).intersects(cfg)) {
            cfg.set(e);
            represented.insert(marking_of(prefix, cfg));
            go(i + 1);
            cfg.reset(e);
        }
    };
    go(0);
    // Represented == reachable.
    EXPECT_EQ(represented.size(), rg.num_states());
    for (const auto& m : represented) EXPECT_NE(rg.find(m), petri::kNoState);
}

TEST(Unfolding, CompletenessVme) { check_completeness(stg::bench::vme_bus()); }
TEST(Unfolding, CompletenessVmeCsc) {
    check_completeness(stg::bench::vme_bus_csc_resolved());
}
TEST(Unfolding, CompletenessTinyConflict) {
    check_completeness(test::tiny_conflict());
}
TEST(Unfolding, CompletenessRing) { check_completeness(stg::bench::token_ring(2)); }
TEST(Unfolding, CompletenessPar) {
    check_completeness(stg::bench::parallel_handshakes(3));
}

TEST(Unfolding, PrefixLinearWhileStatesExponential) {
    for (int n = 2; n <= 6; ++n) {
        auto model = stg::bench::parallel_handshakes(n);
        Prefix prefix = unfold(model.system());
        // 4 events per handshake + 1 cut-off per handshake.
        EXPECT_LE(prefix.num_events(), static_cast<std::size_t>(5 * n));
    }
}

TEST(Unfolding, EventLimitGuards) {
    auto model = stg::bench::muller_pipeline(4);
    UnfoldOptions opts;
    opts.max_events = 3;
    EXPECT_THROW(unfold(model.system(), opts), ModelError);
}

TEST(Unfolding, RejectsEmptyPresets) {
    petri::Net net;
    const auto p = net.add_place("p");
    const auto t = net.add_transition("t");
    net.add_arc_tp(t, p);  // no preset
    EXPECT_THROW(unfold(petri::NetSystem(std::move(net), petri::Marking(1))),
                 ModelError);
}

TEST(Unfolding, CutoffCompanionsShareMarkings) {
    for_each_prefix(stg::bench::token_ring(3), [](const stg::Stg& model,
                                                  const Prefix& prefix) {
        for (EventId e = 0; e < prefix.num_events(); ++e) {
            const Event& ev = prefix.event(e);
            if (!ev.cutoff) continue;
            auto me = marking_of(prefix, prefix.local_config(e));
            if (ev.companion == kNoEvent) {
                EXPECT_EQ(me, model.system().initial_marking());
            } else {
                auto mf = marking_of(prefix, prefix.local_config(ev.companion));
                EXPECT_EQ(me, mf);
                EXPECT_FALSE(prefix.event(ev.companion).cutoff);
            }
        }
    });
}

TEST(Unfolding, McMillanOrderIsCompleteButNoSmaller) {
    std::vector<stg::Stg> models;
    models.push_back(stg::bench::vme_bus());
    models.push_back(stg::bench::token_ring(2));
    models.push_back(stg::bench::parallel_handshakes(3));
    models.push_back(stg::bench::muller_pipeline(3));
    for (const auto& model : models) {
        UnfoldOptions erv, mcm;
        mcm.order = AdequateOrder::McMillanSize;
        Prefix p1 = unfold(model.system(), erv);
        Prefix p2 = unfold(model.system(), mcm);
        EXPECT_GE(p2.num_events(), p1.num_events()) << model.name();
        // Both must represent exactly the reachable markings of the net:
        // compare via the marking set of all local configurations plus
        // reachability of each.
        petri::ReachabilityGraph rg(model.system());
        for (const Prefix* p : {&p1, &p2})
            for (EventId e = 0; e < p->num_events(); ++e)
                EXPECT_NE(rg.find(marking_of(*p, p->local_config(e))),
                          petri::kNoState);
    }
}

TEST(Unfolding, McMillanCutoffsHaveStrictlySmallerCompanions) {
    auto model = stg::bench::token_ring(3);
    UnfoldOptions opts;
    opts.order = AdequateOrder::McMillanSize;
    Prefix prefix = unfold(model.system(), opts);
    for (EventId e = 0; e < prefix.num_events(); ++e) {
        const Event& ev = prefix.event(e);
        if (!ev.cutoff) continue;
        const std::size_t companion_size =
            ev.companion == kNoEvent
                ? 0
                : prefix.local_config(ev.companion).count();
        EXPECT_LT(companion_size, prefix.local_config(e).count());
    }
}

TEST(Unfolding, NonSafeInitialMarkingRejected) {
    // The local-configuration cut-off criterion is complete only for safe
    // nets (a 2-token cycle would silently lose the (0,2) marking to a
    // cut-off), so non-safe systems are refused up front.
    petri::Net net;
    const auto p0 = net.add_place("p0");
    const auto p1 = net.add_place("p1");
    const auto t0 = net.add_transition("t0");
    const auto t1 = net.add_transition("t1");
    net.add_arc_pt(p0, t0);
    net.add_arc_tp(t0, p1);
    net.add_arc_pt(p1, t1);
    net.add_arc_tp(t1, p0);
    petri::Marking m0(2);
    m0.set(p0, 2);
    EXPECT_THROW(unfold(petri::NetSystem(std::move(net), std::move(m0))),
                 ModelError);
}

TEST(Unfolding, DynamicallyNonSafeNetRejected) {
    // Safe initial marking, but a place accumulates a second token at
    // runtime: caught by the concurrent same-place condition guard.
    petri::Net net;
    const auto src = net.add_place("src");
    const auto a = net.add_place("a");
    const auto b = net.add_place("b");
    const auto acc = net.add_place("acc");
    const auto fork = net.add_transition("fork");
    const auto ta = net.add_transition("ta");
    const auto tb = net.add_transition("tb");
    net.add_arc_pt(src, fork);
    net.add_arc_tp(fork, a);
    net.add_arc_tp(fork, b);
    net.add_arc_pt(a, ta);
    net.add_arc_tp(ta, acc);
    net.add_arc_pt(b, tb);
    net.add_arc_tp(tb, acc);  // both branches feed acc: 2 tokens
    petri::Marking m0(4);
    m0.set(src, 1);
    EXPECT_THROW(unfold(petri::NetSystem(std::move(net), std::move(m0))),
                 ModelError);
}

TEST(Unfolding, DotOutputContainsEvents) {
    auto model = test::tiny_handshake();
    Prefix prefix = unfold(model.system());
    const std::string dot = prefix.to_dot();
    EXPECT_NE(dot.find("digraph"), std::string::npos);
    EXPECT_NE(dot.find("a+"), std::string::npos);
    EXPECT_NE(dot.find("peripheries=2"), std::string::npos);  // cut-off styling
}

TEST(Unfolding, VmePrefixDotMatchesGolden) {
    // Byte-for-byte pin of the dot rendering (names, cut-off styling, arc
    // order).  Regenerate after an intentional change by running this test
    // with STGCC_UPDATE_GOLDEN=1.
    auto model = stg::bench::vme_bus();
    const std::string dot = unfold(model.system()).to_dot();
    const std::string golden = std::string(STGCC_GOLDEN_DIR) + "/vme_prefix.dot";
    const char* update = std::getenv("STGCC_UPDATE_GOLDEN");
    if (update && *update && std::string(update) != "0") {
        std::ofstream out(golden, std::ios::binary | std::ios::trunc);
        out << dot;
        ASSERT_TRUE(out.good()) << "cannot write " << golden;
        return;
    }
    std::ifstream in(golden, std::ios::binary);
    ASSERT_TRUE(in.good()) << golden << " missing";
    const std::string want((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    EXPECT_EQ(dot, want);
}

}  // namespace
}  // namespace stgcc::unf
