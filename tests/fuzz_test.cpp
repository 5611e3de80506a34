// Robustness tests: the text-format parsers must never crash or corrupt
// state on malformed input -- every failure mode is a thrown ModelError
// (or a successful parse of a still-valid mutation) -- and the full
// verification pipeline agrees with the state-graph ground truth on
// freshly generated random models.
//
// Every failure message carries the RNG seed that produced the input;
// rerun a single failing case with
//   STGCC_FUZZ_SEED=<seed> ./build/tests/stgcc_tests --gtest_filter='*Fuzz*'
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <random>

#include "core/verifier.hpp"
#include "petri/pnml.hpp"
#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "test_util.hpp"

namespace stgcc {
namespace {

/// STGCC_FUZZ_SEED, when set, pins the fuzz tests to one seed for
/// reproducing a reported failure; 0 = not set.
std::optional<unsigned> pinned_fuzz_seed() {
    if (const char* env = std::getenv("STGCC_FUZZ_SEED")) {
        char* end = nullptr;
        const unsigned long v = std::strtoul(env, &end, 10);
        if (end && *end == '\0')
            return static_cast<unsigned>(v);
    }
    return std::nullopt;
}

std::string mutate(const std::string& text, std::mt19937& rng) {
    std::string out = text;
    const int kind = static_cast<int>(rng() % 5);
    if (out.empty()) return out;
    const std::size_t pos = rng() % out.size();
    switch (kind) {
        case 0:  // delete a span
            out.erase(pos, 1 + rng() % 8);
            break;
        case 1:  // duplicate a span
            out.insert(pos, out.substr(pos, 1 + rng() % 8));
            break;
        case 2:  // flip a character
            out[pos] = static_cast<char>(' ' + rng() % 95);
            break;
        case 3:  // insert noise
            out.insert(pos, std::string(1 + rng() % 5,
                                        static_cast<char>(' ' + rng() % 95)));
            break;
        case 4:  // truncate
            out.resize(pos);
            break;
    }
    return out;
}

class AstgFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(AstgFuzzTest, MutatedInputNeverCrashes) {
    std::mt19937 rng(GetParam());
    std::vector<std::string> corpus;
    corpus.push_back(stg::write_astg_string(stg::bench::vme_bus()));
    corpus.push_back(stg::write_astg_string(stg::bench::token_ring(2)));
    corpus.push_back(
        stg::write_astg_string(stg::bench::duplex_channel(1, false)));
    for (int round = 0; round < 200; ++round) {
        std::string text = corpus[rng() % corpus.size()];
        const int mutations = 1 + static_cast<int>(rng() % 4);
        for (int m = 0; m < mutations; ++m) text = mutate(text, rng);
        try {
            stg::Stg parsed = stg::parse_astg_string(text);
            // A successful parse must yield a structurally sane STG.
            for (petri::TransitionId t = 0; t < parsed.net().num_transitions();
                 ++t) {
                EXPECT_FALSE(parsed.net().pre(t).empty());
                EXPECT_FALSE(parsed.net().post(t).empty());
            }
        } catch (const ModelError&) {
            // expected failure mode
        } catch (const ContractViolation& ex) {
            FAIL() << "contract violation on fuzzed input: " << ex.what();
        } catch (const std::invalid_argument&) {
            // std::stoul on garbage counts: acceptable (documented numeric
            // fields), but must not crash
        } catch (const std::out_of_range&) {
            // same
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AstgFuzzTest, ::testing::Range(0u, 10u));

class PnmlFuzzTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(PnmlFuzzTest, MutatedInputNeverCrashes) {
    std::mt19937 rng(GetParam() + 777);
    const std::string base =
        petri::write_pnml_string(stg::bench::vme_bus().system());
    for (int round = 0; round < 200; ++round) {
        std::string text = base;
        const int mutations = 1 + static_cast<int>(rng() % 4);
        for (int m = 0; m < mutations; ++m) text = mutate(text, rng);
        try {
            auto sys = petri::parse_pnml_string(text);
            EXPECT_LE(sys.initial_marking().num_places(),
                      sys.net().num_places());
        } catch (const ModelError&) {
        } catch (const ContractViolation& ex) {
            FAIL() << "contract violation on fuzzed input: " << ex.what();
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PnmlFuzzTest, ::testing::Range(0u, 10u));

// --- verifier fuzzing ------------------------------------------------------

TEST(VerifierFuzz, RandomModelsAgreeWithStateGraph) {
    // Each round draws a generator seed, builds a random STG (with choice,
    // sync and dummy transitions) and runs the cached verify pipeline
    // against the state-graph baseline.  The SCOPED_TRACE line below puts
    // the failing seed -- and the exact command to replay it -- into every
    // assertion message.
    const auto pinned = pinned_fuzz_seed();
    std::mt19937 seeder(0x57D6CCu);
    const int rounds = pinned ? 1 : 12;
    for (int round = 0; round < rounds; ++round) {
        const unsigned seed = pinned ? *pinned : seeder();
        SCOPED_TRACE("failing seed " + std::to_string(seed) +
                     "; rerun with STGCC_FUZZ_SEED=" + std::to_string(seed));
        test::RandomStgConfig cfg;
        cfg.machines = 2 + static_cast<int>(seed % 2);
        cfg.signals_per_machine = 3;
        cfg.sync_transitions = static_cast<int>(seed % 3);
        cfg.dummy_probability = 0.15;
        const auto model = test::random_stg(seed, cfg);

        core::VerifyOptions opts;
        const auto report = core::verify_stg(model, opts);
        ASSERT_TRUE(report.consistent) << report.inconsistency_reason;
        const stg::Stg& checked =
            report.reduced_stg ? *report.reduced_stg : model;
        stg::StateGraph sg(checked);
        ASSERT_TRUE(sg.consistent()) << sg.inconsistency_reason();
        EXPECT_EQ(report.usc.holds, stg::check_usc_sg(sg).holds);
        EXPECT_EQ(report.csc.holds, stg::check_csc_sg(sg).holds);
        EXPECT_EQ(report.normalcy.normal, stg::check_normalcy_sg(sg).normal);
        // Witnesses are translated back through the reduction chain, so
        // they must replay on the ORIGINAL model (dummies included).
        if (!report.usc.holds) {
            const auto& w = *report.usc.witness;
            auto m1 = model.system().fire_sequence(w.trace1);
            auto m2 = model.system().fire_sequence(w.trace2);
            ASSERT_TRUE(m1 && m2);
            EXPECT_FALSE(*m1 == *m2);
            EXPECT_EQ(model.change_vector(w.trace1),
                      model.change_vector(w.trace2));
        }
    }
}

}  // namespace
}  // namespace stgcc
