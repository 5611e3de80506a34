// Property tests: on randomly generated consistent STGs, the unfolding+IP
// checkers must agree with the state-graph ground truth on every property,
// and their witnesses must replay.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>

#include "core/checkers.hpp"
#include "core/extended_checks.hpp"
#include "core/verdict.hpp"
#include "core/verifier.hpp"
#include "ilp/encodings.hpp"
#include "obs/metrics.hpp"
#include "petri/reachability.hpp"
#include "stg/astg.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "unfolding/configuration.hpp"
#include "test_util.hpp"

namespace stgcc {
namespace {

namespace fs = std::filesystem;

class RandomStgTest : public ::testing::TestWithParam<unsigned> {
protected:
    void SetUp() override {
        model_ = test::random_stg(GetParam());
        sg_ = std::make_unique<stg::StateGraph>(model_);
        ASSERT_TRUE(sg_->consistent());
        checker_ = std::make_unique<core::UnfoldingChecker>(model_);
    }
    stg::Stg model_;
    std::unique_ptr<stg::StateGraph> sg_;
    std::unique_ptr<core::UnfoldingChecker> checker_;
};

TEST_P(RandomStgTest, UscAgreesWithStateGraph) {
    auto ip = checker_->check_usc();
    auto sg = stg::check_usc_sg(*sg_);
    ASSERT_EQ(ip.holds, sg.holds);
    if (!ip.holds) {
        const auto& w = *ip.witness;
        auto m1 = model_.system().fire_sequence(w.trace1);
        auto m2 = model_.system().fire_sequence(w.trace2);
        ASSERT_TRUE(m1 && m2);
        EXPECT_FALSE(*m1 == *m2);
        EXPECT_EQ(model_.change_vector(w.trace1), model_.change_vector(w.trace2));
    }
}

TEST_P(RandomStgTest, CscAgreesWithStateGraph) {
    auto ip = checker_->check_csc();
    auto sg = stg::check_csc_sg(*sg_);
    ASSERT_EQ(ip.holds, sg.holds);
    if (!ip.holds) {
        const auto& w = *ip.witness;
        auto m1 = model_.system().fire_sequence(w.trace1);
        auto m2 = model_.system().fire_sequence(w.trace2);
        ASSERT_TRUE(m1 && m2);
        EXPECT_FALSE(model_.out_signals(*m1) == model_.out_signals(*m2));
    }
}

TEST_P(RandomStgTest, NormalcyAgreesWithStateGraph) {
    auto ip = checker_->check_normalcy();
    auto sg = stg::check_normalcy_sg(*sg_);
    EXPECT_EQ(ip.normal, sg.normal);
    // Per-signal classification must agree exactly.
    for (const auto& a : sg.per_signal) {
        const auto* b = ip.find(a.signal);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(a.p_normal, b->p_normal)
            << model_.signal_name(a.signal) << " seed=" << GetParam();
        EXPECT_EQ(a.n_normal, b->n_normal)
            << model_.signal_name(a.signal) << " seed=" << GetParam();
    }
}

TEST_P(RandomStgTest, PrefixRepresentsExactlyTheReachableMarkings) {
    const auto& prefix = checker_->prefix();
    petri::ReachabilityGraph rg(model_.system());
    // Marking of every local configuration is reachable.
    for (unf::EventId e = 0; e < prefix.num_events(); ++e) {
        auto m = unf::marking_of(prefix, prefix.local_config(e));
        EXPECT_NE(rg.find(m), petri::kNoState);
    }
    // The prefix is no larger than the reachability graph (total adequate
    // order property: one non-cut-off event per marking at most ... the
    // bound here is |E| <= |states| * max-enabled, a sanity envelope).
    EXPECT_LE(prefix.num_events(),
              rg.num_states() * model_.net().num_transitions());
}

TEST_P(RandomStgTest, GenericIlpAgreesOnUsc) {
    // Keep the strawman within budget: skip the largest instances.
    if (checker_->prefix().num_events() > 60) GTEST_SKIP();
    auto generic = ilp::check_usc_generic(model_, checker_->prefix());
    auto sg = stg::check_usc_sg(*sg_);
    EXPECT_EQ(generic.holds, sg.holds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStgTest, ::testing::Range(1000u, 1040u));

// Larger, more concurrent random instances: agreement on USC/CSC only.
class RandomStgWideTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomStgWideTest, UscCscAgreement) {
    test::RandomStgConfig cfg;
    cfg.machines = 3;
    cfg.signals_per_machine = 3;
    cfg.places_per_machine = 10;
    auto model = test::random_stg(GetParam(), cfg);
    stg::StateGraph sg(model);
    ASSERT_TRUE(sg.consistent());
    core::UnfoldingChecker checker(model);
    EXPECT_EQ(checker.check_usc().holds, stg::check_usc_sg(sg).holds);
    EXPECT_EQ(checker.check_csc().holds, stg::check_csc_sg(sg).holds);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomStgWideTest, ::testing::Range(2000u, 2015u));

// Random instances with cross-machine synchronisation (non-free-choice
// concurrency): the full battery of agreements must still hold.
class RandomSyncStgTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomSyncStgTest, AllCheckersAgree) {
    test::RandomStgConfig cfg;
    cfg.machines = 3;
    cfg.sync_transitions = 3;
    auto model = test::random_stg(GetParam(), cfg);
    stg::StateGraph sg(model);
    ASSERT_TRUE(sg.consistent()) << sg.inconsistency_reason();
    core::UnfoldingChecker checker(model);
    EXPECT_EQ(checker.check_usc().holds, stg::check_usc_sg(sg).holds);
    EXPECT_EQ(checker.check_csc().holds, stg::check_csc_sg(sg).holds);
    auto n_ip = checker.check_normalcy();
    auto n_sg = stg::check_normalcy_sg(sg);
    EXPECT_EQ(n_ip.normal, n_sg.normal);
    // Deadlock agreement too (sync transitions often create deadlocks).
    petri::ReachabilityGraph rg(model.system());
    EXPECT_EQ(core::check_deadlock(checker.problem()).found,
              !rg.deadlocks().empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSyncStgTest,
                         ::testing::Range(11000u, 11030u));

// --- differential cache fleet (docs/CACHING.md) ---------------------------
//
// Larger random nets -- three machines, choice places, cross-machine syncs
// and spliced dummy transitions (contracted before checking) -- verified
// across one jobs x result-cache matrix: cache off at jobs 1 (the
// reference) and jobs 8, then core::verdict_cached on the model's text at
// jobs 1 (a cold pass that stores the rendered verdict) and jobs 8 (a warm
// pass that replays it).  The human-readable report must be byte-identical
// across the matrix and the machine-readable report identical after
// stripping the volatile timing/stats fields; this is the executable form
// of the soundness argument in docs/CACHING.md.  The fleet size scales
// with STGCC_DIFF_ITERS (the nightly CI job runs 10x).

unsigned diff_iters() {
    if (const char* env = std::getenv("STGCC_DIFF_ITERS")) {
        const unsigned long v = std::strtoul(env, nullptr, 10);
        if (v > 0 && v < 100000) return static_cast<unsigned>(v);
    }
    return 8;
}

class DifferentialCacheTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(DifferentialCacheTest, CacheOnAndOffAreByteIdentical) {
    const unsigned seed = GetParam();
    test::RandomStgConfig cfg;
    cfg.machines = 3;
    cfg.signals_per_machine = 3;
    cfg.places_per_machine = 10;
    cfg.sync_transitions = 2;
    cfg.dummy_probability = 0.2;
    const std::string model_text =
        stg::write_astg_string(test::random_stg(seed, cfg));
    const auto model = stg::parse_astg_string(model_text);

    core::VerifyOptions opts;
    opts.check_deadlock = true;
    const auto reference =
        core::render_verdict(model, core::verify_stg(model, opts));
    const std::string json = test::canonical_json(reference.json);
    const auto agrees = [&](const core::RenderedVerdict& v,
                            const char* config) {
        EXPECT_EQ(v.report, reference.report)
            << "seed=" << seed << " " << config;
        EXPECT_EQ(test::canonical_json(v.json), json)
            << "seed=" << seed << " " << config;
    };

    const fs::path dir =
        test::temp_path("stgcc_diff_fleet_" + std::to_string(seed));
    fs::remove_all(dir);
    const cache::ResultCache rcache(dir.string());
    opts.jobs = 8;
    agrees(core::render_verdict(model, core::verify_stg(model, opts)),
           "jobs=8 cache=off");
    obs::Counter& hits = obs::counter("cache.result.hits");
    const std::uint64_t hits_before = hits.value();
    sched::Executor serial(1), wide(8);
    agrees(core::verdict_cached(model_text, opts, rcache, serial),
           "jobs=1 cache=cold");
    EXPECT_EQ(hits.value(), hits_before) << "seed=" << seed;
    agrees(core::verdict_cached(model_text, opts, rcache, wide),
           "jobs=8 cache=warm");
    EXPECT_EQ(hits.value(), hits_before + 1) << "seed=" << seed;
    fs::remove_all(dir);
}

TEST_P(DifferentialCacheTest, ContractedVerdictsAgreeWithStateGraph) {
    // The same fleet models, cross-checked against ground truth: verify_stg
    // (contraction + shared artifacts + USC=>CSC certificate) must agree
    // with the state graph of the contracted net.
    const unsigned seed = GetParam();
    test::RandomStgConfig cfg;
    cfg.machines = 2;
    cfg.signals_per_machine = 3;
    cfg.dummy_probability = 0.3;
    const auto model = test::random_stg(seed, cfg);

    core::VerifyOptions opts;
    const auto report = core::verify_stg(model, opts);
    ASSERT_TRUE(report.consistent) << "seed=" << seed;
    const stg::Stg& checked =
        report.reduced_stg ? *report.reduced_stg : model;
    EXPECT_FALSE(checked.has_dummies()) << "seed=" << seed;
    stg::StateGraph sg(checked);
    ASSERT_TRUE(sg.consistent()) << "seed=" << seed;
    EXPECT_EQ(report.usc.holds, stg::check_usc_sg(sg).holds)
        << "seed=" << seed;
    EXPECT_EQ(report.csc.holds, stg::check_csc_sg(sg).holds)
        << "seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialCacheTest,
                         ::testing::Range(5000u, 5000u + diff_iters()));

}  // namespace
}  // namespace stgcc
