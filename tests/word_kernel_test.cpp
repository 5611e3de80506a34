// The word-parallel search kernel at its word boundaries, and the word-wise
// leaf state against the first-principles helpers it replaces.
//
//  * WordEdge: generated STGs whose dense size q sits just below, on and
//    just above 64 and 128 (one and two plane words; no shipped model goes
//    past q = 105).  USC, CSC (both overloads) and per-signal normalcy must
//    agree with the explicit state-graph checkers.
//  * LeafState: for random dense configurations of every shipped model, the
//    place set, Out set and code computed by PrefixArtifacts::leaf_state
//    equal unf::marking_of, Stg::out_signals / signal_enabled and v0 plus
//    the change vector.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "core/checkers.hpp"
#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "unfolding/configuration.hpp"
#include "unfolding/prefix_checks.hpp"

namespace stgcc {
namespace {

namespace fs = std::filesystem;

struct EdgeCase {
    std::string name;
    std::size_t q;  ///< dense size the generator is expected to produce
    std::function<stg::Stg()> make;
};

std::vector<EdgeCase> edge_cases() {
    using namespace stg::bench;
    return {
        {"johnson32_q63", 63, [] { return johnson_counter(32); }},
        {"seq16_q63", 63, [] { return sequential_handshakes(16); }},
        {"duplex7_q64", 64, [] { return duplex_channel(7, false, true); }},
        {"envelope8_q65", 65, [] { return phase_envelope(8); }},
        {"johnson33_q65", 65, [] { return johnson_counter(33); }},
        {"counterflow4_q66", 66, [] { return counterflow(4, true); }},
        {"johnson64_q127", 127, [] { return johnson_counter(64); }},
        {"seq32_q127", 127, [] { return sequential_handshakes(32); }},
        {"duplex15_q128", 128, [] { return duplex_channel(15, false, true); }},
        {"envelope16_q129", 129, [] { return phase_envelope(16); }},
        {"johnson65_q129", 129, [] { return johnson_counter(65); }},
    };
}

void PrintTo(const EdgeCase& c, std::ostream* os) { *os << c.name; }

class WordEdgeTest : public ::testing::TestWithParam<EdgeCase> {};

TEST_P(WordEdgeTest, ChecksAgreeWithStateGraph) {
    const EdgeCase& c = GetParam();
    const stg::Stg model = c.make();
    const core::UnfoldingChecker checker(model);
    ASSERT_EQ(checker.problem().size(), c.q) << "generator no longer hits the edge";
    const stg::StateGraph sg(model);
    ASSERT_TRUE(sg.consistent());

    EXPECT_EQ(checker.check_usc().holds, stg::check_usc_sg(sg).holds);
    const bool csc = stg::check_csc_sg(sg).holds;
    // Run CSC before any USC certificate could answer it: a fresh checker.
    const core::UnfoldingChecker fresh(model);
    EXPECT_EQ(fresh.check_csc().holds, csc);
    const core::UnfoldingChecker fresh_split(model);
    sched::Executor serial(1);
    EXPECT_EQ(fresh_split.check_csc({}, serial).holds, csc);

    const auto ip = checker.check_normalcy();
    const auto ref = stg::check_normalcy_sg(sg);
    EXPECT_EQ(ip.normal, ref.normal);
    for (const auto& a : ref.per_signal) {
        const auto* b = ip.find(a.signal);
        ASSERT_NE(b, nullptr);
        EXPECT_EQ(a.p_normal, b->p_normal) << model.signal_name(a.signal);
        EXPECT_EQ(a.n_normal, b->n_normal) << model.signal_name(a.signal);
    }
}

INSTANTIATE_TEST_SUITE_P(
    Generators, WordEdgeTest, ::testing::ValuesIn(edge_cases()),
    [](const ::testing::TestParamInfo<EdgeCase>& info) { return info.param.name; });

/// A random configuration: local configurations [e] of random events,
/// added while they keep the set conflict-free.
BitVec random_configuration(const core::CodingProblem& problem, std::mt19937& rng) {
    const std::size_t q = problem.size();
    BitVec config(q);
    std::vector<std::size_t> order(q);
    for (std::size_t i = 0; i < q; ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    const std::size_t tries = q == 0 ? 0 : rng() % (q + 1);
    for (std::size_t k = 0; k < tries; ++k) {
        BitVec grown(problem.preds(order[k]));
        grown.set(order[k]);
        grown |= config;
        bool ok = true;
        grown.for_each([&](std::size_t e) {
            if (problem.conflicts(e).intersects(grown)) ok = false;
        });
        if (ok) config = grown;
    }
    return config;
}

std::vector<fs::path> model_files() {
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(STGCC_MODELS_DIR, ec))
        if (entry.path().extension() == ".g") files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

TEST(LeafState, AgreesWithMarkingOutAndCodeOnCorpus) {
    const auto files = model_files();
    ASSERT_FALSE(files.empty()) << "no .g files under " STGCC_MODELS_DIR;
    std::mt19937 rng(20021);
    for (const fs::path& file : files) {
        const stg::Stg model = stg::load_astg_file(file.string());
        const cache::PrefixArtifacts artifacts(model);
        ASSERT_TRUE(artifacts.consistent()) << file;
        const core::CodingProblem& problem = artifacts.problem();
        const std::vector<stg::SignalId> outputs = model.circuit_driven_signals();
        cache::LeafState s, places_only;
        for (int round = 0; round < 64; ++round) {
            const BitVec dense = random_configuration(problem, rng);
            ASSERT_TRUE(unf::is_configuration(artifacts.prefix(),
                                              problem.to_event_set(dense)));
            artifacts.leaf_state(dense, s);
            artifacts.leaf_places(dense, places_only);
            const petri::Marking m =
                unf::marking_of(artifacts.prefix(), problem.to_event_set(dense));

            BitVec places(m.num_places());
            for (std::size_t p = 0; p < m.num_places(); ++p) {
                ASSERT_LE(m[p], 1u) << file << ": not 1-safe";
                if (m[p] != 0) places.set(p);
            }
            EXPECT_EQ(s.places, places) << file << " round " << round;
            EXPECT_EQ(places_only.places, places) << file << " round " << round;
            EXPECT_EQ(s.out, model.out_signals(m)) << file << " round " << round;
            for (const stg::SignalId z : outputs)
                EXPECT_EQ(s.out.test(z), model.signal_enabled(m, z))
                    << file << " signal " << model.signal_name(z);
            // The code from first principles: v0 flipped by every signal
            // with a non-zero change vector.
            const auto change = unf::change_vector_of(
                model, artifacts.prefix(), problem.to_event_set(dense));
            for (stg::SignalId z = 0; z < model.num_signals(); ++z)
                EXPECT_EQ(s.code.test(z),
                          problem.initial_code().test(z) != (change[z] != 0))
                    << file << " signal " << model.signal_name(z);
        }
    }
}

}  // namespace
}  // namespace stgcc
