// End-to-end integration: for every Table 1 model run the complete
// synthesis front-end pipeline --
//   verify (USC/CSC/normalcy/deadlock/persistency)
//   -> if CSC fails, repair automatically
//   -> re-verify the repaired STG
//   -> derive next-state logic
//   -> round-trip through the ASTG format and re-verify once more.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "cache/result_cache.hpp"
#include "core/resolver.hpp"
#include "core/verifier.hpp"
#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "stg/logic.hpp"
#include "stg/state_graph.hpp"

namespace stgcc {
namespace {

class PipelineTest : public ::testing::TestWithParam<int> {};

/// What resolve_csc inserts on each Table 1 row it repairs: the steps, and
/// the FNV-1a hash of the repaired STG written as .g text.
struct ResolutionPin {
    std::string steps;
    std::uint64_t astg_hash = 0;
};

const std::map<std::string, ResolutionPin>& resolution_pins() {
    static const std::map<std::string, ResolutionPin> pins = {
        {"LAZYRING",
         {"csc0+ after rr1+, csc0- after each consumer of tok1; "
          "csc1+ after each consumer of tok2, csc1- after rr2+; ",
          2263742001610882918ull}},
        {"DUP-4PH-A",
         {"csc0+ after ad1-, csc0- after bd1-; "
          "csc1+ after asr-, csc1- after bsr-; ",
          5732891977256727196ull}},
        {"DUP-4PH-B",
         {"csc0+ after ad2-, csc0- after bd2-; "
          "csc1+ after asr-, csc1- after bsr-; ",
          4083647077627179909ull}},
        {"DUP-4PH-MTR-A",
         {"csc0+ after ad1-, csc0- after bd1-; "
          "csc1+ after asr-, csc1- after bsr-; ",
          8269157586994564319ull}},
    };
    return pins;
}

std::string steps_text(const core::ResolutionResult& r) {
    std::string out;
    for (const core::ResolutionStep& s : r.steps) {
        out += s.signal;
        out += "+ after ";
        out += s.rising_after;
        out += ", ";
        out += s.signal;
        out += "- after ";
        out += s.falling_after;
        out += "; ";
    }
    return out;
}

TEST_P(PipelineTest, FullFrontEnd) {
    auto suite = stg::bench::table1_suite();
    const auto& nb = suite[static_cast<std::size_t>(GetParam())];

    // Step (a): implementability checks.
    core::VerifyOptions vopts;
    vopts.check_deadlock = true;
    vopts.check_persistency = true;
    vopts.check_normalcy = false;  // expensive on the larger CF rows
    auto report = core::verify_stg(nb.stg, vopts);
    ASSERT_TRUE(report.consistent) << nb.name;
    EXPECT_TRUE(report.deadlock_free) << nb.name;
    EXPECT_TRUE(report.persistent) << nb.name;
    EXPECT_EQ(report.csc.holds, nb.expect_conflict_free) << nb.name;

    stg::Stg implementable = nb.stg;

    // Step (b): repair when needed.
    if (!report.csc.holds) {
        // Keep the expensive search bounded for the big duplex rows.
        if (nb.stg.net().num_transitions() > 22) GTEST_SKIP();
        auto resolution = core::resolve_csc(nb.stg);
        ASSERT_TRUE(resolution.resolved) << nb.name;
        const auto pin = resolution_pins().find(nb.name);
        ASSERT_NE(pin, resolution_pins().end()) << nb.name;
        EXPECT_EQ(steps_text(resolution), pin->second.steps) << nb.name;
        EXPECT_EQ(cache::fnv1a64(stg::write_astg_string(resolution.stg)),
                  pin->second.astg_hash)
            << nb.name;
        implementable = resolution.stg;
        auto re = core::verify_stg(implementable, vopts);
        ASSERT_TRUE(re.consistent) << nb.name;
        EXPECT_TRUE(re.csc.holds) << nb.name;
        EXPECT_TRUE(re.deadlock_free) << nb.name;
    }

    // Step (c): logic derivation succeeds for every circuit-driven signal.
    stg::StateGraph sg(implementable);
    ASSERT_TRUE(sg.consistent());
    stg::LogicSynthesizer synth(sg);
    for (const auto& fn : synth.synthesize_all()) {
        for (petri::StateId s = 0; s < sg.num_states(); ++s)
            ASSERT_EQ(fn.cover.covers(sg.code(s)), sg.nxt(s, fn.signal))
                << nb.name << "/" << implementable.signal_name(fn.signal);
    }

    // Interchange round-trip preserves the verdicts.
    stg::Stg reparsed = stg::parse_astg_string(stg::write_astg_string(implementable));
    auto round = core::verify_stg(reparsed, core::VerifyOptions{});
    EXPECT_TRUE(round.consistent) << nb.name;
    EXPECT_TRUE(round.csc.holds) << nb.name;
}

INSTANTIATE_TEST_SUITE_P(Table1, PipelineTest, ::testing::Range(0, 15));

}  // namespace
}  // namespace stgcc
