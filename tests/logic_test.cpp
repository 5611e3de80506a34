#include "stg/logic.hpp"

#include <gtest/gtest.h>

#include "core/checkers.hpp"
#include "stg/benchmarks.hpp"
#include "stg/state_checks.hpp"
#include "test_util.hpp"

namespace stgcc::stg {
namespace {

TEST(Cube, CoverageSemantics) {
    Cube c;
    c.care = BitVec(4);
    c.value = BitVec(4);
    c.care.set(0);
    c.value.set(0);  // requires z0 = 1
    c.care.set(2);   // requires z2 = 0
    Code code(4);
    code.set(0);
    EXPECT_TRUE(c.covers(code));
    code.set(2);
    EXPECT_FALSE(c.covers(code));
    code.reset(2);
    code.set(3);  // don't-care position
    EXPECT_TRUE(c.covers(code));
}

TEST(Cube, EmptyCubeCoversEverything) {
    Cube c;
    c.care = BitVec(3);
    c.value = BitVec(3);
    for (unsigned m = 0; m < 8; ++m) {
        Code code(3);
        for (int z = 0; z < 3; ++z)
            if ((m >> z) & 1) code.set(z);
        EXPECT_TRUE(c.covers(code));
    }
}

TEST(Cover, UnatenessClassification) {
    // cover = z0 z1' + z0 z2  : positive in z0, negative in z1,
    // positive in z2, independent of z3.
    Cover cover;
    Cube a;
    a.care = BitVec(4);
    a.value = BitVec(4);
    a.care.set(0);
    a.value.set(0);
    a.care.set(1);
    Cube b = a;
    b.care.reset(1);
    b.care.set(2);
    b.value.set(2);
    cover.cubes = {a, b};
    EXPECT_EQ(cover_unateness(cover, 0), Unateness::PositiveUnate);
    EXPECT_EQ(cover_unateness(cover, 1), Unateness::NegativeUnate);
    EXPECT_EQ(cover_unateness(cover, 2), Unateness::PositiveUnate);
    EXPECT_EQ(cover_unateness(cover, 3), Unateness::Independent);
    // Mixed polarities need an input inverter: not monotonic.
    EXPECT_FALSE(is_monotonic(cover));
    // All-positive sub-cover is monotonic.
    Cover positive;
    positive.cubes = {b};
    EXPECT_TRUE(is_monotonic(positive));
    // Add z0' cube: now binate in z0.
    Cube neg;
    neg.care = BitVec(4);
    neg.value = BitVec(4);
    neg.care.set(0);
    cover.cubes.push_back(neg);
    EXPECT_EQ(cover_unateness(cover, 0), Unateness::Binate);
    EXPECT_FALSE(is_monotonic(cover));
}

TEST(Synthesis, CoversAreCorrectOnResolvedVme) {
    std::vector<Stg> models;
    models.push_back(bench::vme_bus_csc_resolved());
    models.push_back(bench::johnson_counter(4));
    models.push_back(bench::duplex_channel(1, true));
    for (unsigned seed = 7000; seed < 7010; ++seed)
        models.push_back(test::random_stg(seed));
    for (const auto& model : models) {
        StateGraph sg(model);
        ASSERT_TRUE(sg.consistent()) << model.name();
        LogicSynthesizer synth(sg);
        for (SignalId z : model.circuit_driven_signals()) {
            NextStateFunction fn;
            try {
                fn = synth.synthesize(z);
            } catch (const ModelError&) {
                continue;  // CSC conflict for this signal
            }
            EXPECT_GT(fn.on_codes + fn.off_codes, 0u);
            // The cover equals Nxt on every reachable code.
            for (petri::StateId s = 0; s < sg.num_states(); ++s)
                EXPECT_EQ(fn.cover.covers(sg.code(s)), sg.nxt(s, z))
                    << model.name() << "/" << model.signal_name(z)
                    << " at code " << sg.code(s).to_string();
        }
    }
}

TEST(Synthesis, PaperEquationsForResolvedVme) {
    // Paper section 6: dtack = d, d = ldtack csc, lds = d + csc, and csc is
    // non-monotonic (positive in dsr, negative in ldtack).  We verify these
    // semantically: the synthesised cover must match the paper's function
    // on every reachable code.
    auto model = bench::vme_bus_csc_resolved();
    StateGraph sg(model);
    LogicSynthesizer synth(sg);
    const SignalId dsr = model.find_signal("dsr");
    const SignalId dtack = model.find_signal("dtack");
    const SignalId lds = model.find_signal("lds");
    const SignalId ldtack = model.find_signal("ldtack");
    const SignalId d = model.find_signal("d");
    const SignalId csc = model.find_signal("csc");

    auto check_equals = [&](SignalId z, auto&& paper_fn) {
        auto fn = synth.synthesize(z);
        for (petri::StateId s = 0; s < sg.num_states(); ++s) {
            const Code c = sg.code(s);
            EXPECT_EQ(fn.cover.covers(c), paper_fn(c))
                << model.signal_name(z) << " at " << c.to_string();
        }
    };
    check_equals(dtack, [&](const Code& c) { return c.test(d); });
    check_equals(d, [&](const Code& c) { return c.test(ldtack) && c.test(csc); });
    check_equals(lds, [&](const Code& c) { return c.test(d) || c.test(csc); });
    check_equals(csc, [&](const Code& c) {
        return c.test(dsr) && (c.test(csc) || !c.test(ldtack));
    });

    // Monotonicity of the synthesised covers matches the paper: dtack and
    // d are monotonic; csc is not.
    EXPECT_TRUE(is_monotonic(synth.synthesize(dtack).cover));
    EXPECT_TRUE(is_monotonic(synth.synthesize(d).cover));
    EXPECT_FALSE(is_monotonic(synth.synthesize(csc).cover));
}

TEST(Synthesis, CscViolationReported) {
    auto model = bench::vme_bus();  // has a CSC conflict on d and lds
    StateGraph sg(model);
    LogicSynthesizer synth(sg);
    EXPECT_THROW((void)synth.synthesize(model.find_signal("d")), ModelError);
}

TEST(Synthesis, InconsistentStgRejected) {
    StgBuilder b("bad");
    b.input("a");
    b.arc("a+/1", "a+/2").arc("a+/2", "a-").arc("a-", "a+/1");
    b.token_between("a-", "a+/1");
    auto model = b.build();
    StateGraph sg(model);
    EXPECT_THROW(LogicSynthesizer{sg}, ModelError);
}

TEST(MonotoneCover, ExactlyCharacterisesNormalcy) {
    // A signal has a positive monotone cover iff it is p-normal, and a
    // negative monotone cover iff it is n-normal -- cross-validating the
    // state-based normalcy checker with an independent formulation.
    std::vector<Stg> models;
    models.push_back(bench::vme_bus_csc_resolved());
    models.push_back(bench::johnson_counter(4));
    models.push_back(bench::muller_pipeline(3));
    models.push_back(bench::duplex_channel(1, true));
    models.push_back(bench::counterflow(2, true));
    for (const auto& model : models) {
        StateGraph sg(model);
        LogicSynthesizer synth(sg);
        auto normalcy = check_normalcy_sg(sg);
        for (const auto& sn : normalcy.per_signal) {
            EXPECT_EQ(synth.monotone_cover(sn.signal, true).has_value(),
                      sn.p_normal)
                << model.name() << "/" << model.signal_name(sn.signal);
            EXPECT_EQ(synth.monotone_cover(sn.signal, false).has_value(),
                      sn.n_normal)
                << model.name() << "/" << model.signal_name(sn.signal);
        }
    }
}

TEST(MonotoneCover, AgreesWithIpNormalcyChecker) {
    auto model = bench::vme_bus_csc_resolved();
    StateGraph sg(model);
    LogicSynthesizer synth(sg);
    core::UnfoldingChecker checker(model);
    auto normalcy = checker.check_normalcy();
    for (const auto& sn : normalcy.per_signal) {
        EXPECT_EQ(synth.monotone_cover(sn.signal, true).has_value(), sn.p_normal);
        EXPECT_EQ(synth.monotone_cover(sn.signal, false).has_value(), sn.n_normal);
    }
}

TEST(MonotoneCover, ValidCoversAreCorrect) {
    auto model = bench::johnson_counter(4);
    StateGraph sg(model);
    LogicSynthesizer synth(sg);
    for (SignalId z : model.circuit_driven_signals()) {
        for (bool positive : {true, false}) {
            auto cover = synth.monotone_cover(z, positive);
            if (!cover) continue;
            for (petri::StateId s = 0; s < sg.num_states(); ++s)
                EXPECT_EQ(cover->covers(sg.code(s)), sg.nxt(s, z));
        }
    }
}

TEST(MonotoneCover, RandomStgsMatchNormalcy) {
    for (unsigned seed = 3000; seed < 3030; ++seed) {
        auto model = test::random_stg(seed);
        StateGraph sg(model);
        ASSERT_TRUE(sg.consistent());
        // Restrict to signals without CSC conflicts (the synthesizer's
        // domain); normalcy of conflicting signals is vacuously violated.
        LogicSynthesizer synth(sg);
        auto normalcy = check_normalcy_sg(sg);
        for (const auto& sn : normalcy.per_signal) {
            std::optional<Cover> pos, neg;
            try {
                pos = synth.monotone_cover(sn.signal, true);
                neg = synth.monotone_cover(sn.signal, false);
            } catch (const ModelError&) {
                continue;  // CSC conflict for this signal
            }
            EXPECT_EQ(pos.has_value(), sn.p_normal)
                << "seed=" << seed << " sig=" << model.signal_name(sn.signal);
            EXPECT_EQ(neg.has_value(), sn.n_normal)
                << "seed=" << seed << " sig=" << model.signal_name(sn.signal);
        }
    }
}

TEST(Synthesis, MonotonicCoverIffNormal) {
    // The unate-biased expansion guarantees: a signal synthesises to a
    // monotonic cover exactly when it is normal (p- or n-normal).
    std::vector<Stg> models;
    models.push_back(bench::vme_bus_csc_resolved());
    models.push_back(bench::johnson_counter(4));
    models.push_back(bench::muller_pipeline(3));
    models.push_back(bench::duplex_channel(1, true));
    models.push_back(bench::counterflow(2, true));
    for (unsigned seed = 4000; seed < 4020; ++seed)
        models.push_back(test::random_stg(seed));
    for (const auto& model : models) {
        StateGraph sg(model);
        ASSERT_TRUE(sg.consistent());
        LogicSynthesizer synth(sg);
        auto normalcy = check_normalcy_sg(sg);
        for (const auto& sn : normalcy.per_signal) {
            NextStateFunction fn;
            try {
                fn = synth.synthesize(sn.signal);
            } catch (const ModelError&) {
                continue;  // CSC conflict for this signal
            }
            EXPECT_EQ(is_monotonic(fn.cover), sn.normal())
                << model.name() << "/" << model.signal_name(sn.signal);
        }
    }
}

TEST(CoverText, Rendering) {
    auto model = bench::vme_bus_csc_resolved();
    StateGraph sg(model);
    LogicSynthesizer synth(sg);
    auto fn = synth.synthesize(model.find_signal("dtack"));
    EXPECT_EQ(fn.cover.to_string(model), "d");
    Cover empty;
    EXPECT_EQ(empty.to_string(model), "0");
}

}  // namespace
}  // namespace stgcc::stg
