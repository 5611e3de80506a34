// The word-parallel search kernel at its word boundaries, and the word-wise
// leaf state against the first-principles helpers it replaces.
//
//  * WordEdge: generated STGs whose variable count q = |E| (one variable
//    per prefix event) sits on and just above 64 and 128, plus the largest
//    shipped model, CF-ASYM-B (q = 106).  USC, CSC (both overloads) and
//    per-signal normalcy must agree with the explicit state-graph
//    checkers, and their search nodes and leaves must equal the pinned
//    counts.  The cases run every kernel width: one plane word (q <= 64
//    with |P|, |Z| <= 64: johnson32, seq16), two plane words (counterflow4,
//    whose second word holds 3 events, and CF-ASYM-B, whose second word
//    holds 42) and the runtime widths (|P| > 64, |Z| > 64 or q > 128), so
//    the pins hold each instantiation to one search tree.  A case's name
//    gives the count of non-cut-off events it was chosen at; each of the
//    generated prefixes has one cut-off.
//  * SolverLeafView: at every leaf of exhaustive solves under each code
//    relation, each side's event set is a configuration of the prefix with
//    no cut-off in it (eq. 3), the place set and code the solver carries on
//    its trail for each side equal unf::marking_of and
//    CodingProblem::code_of of that side's configuration, and Out of the
//    place set equals Stg::out_signals.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "core/checkers.hpp"
#include "core/compat_solver.hpp"
#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "stg/contraction.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "test_util.hpp"
#include "unfolding/configuration.hpp"
#include "unfolding/unfolder.hpp"

namespace stgcc {
namespace {

namespace fs = std::filesystem;

/// Search nodes and leaves of one check.
struct TreeSize {
    std::size_t nodes, leaves;
};

struct EdgeCase {
    std::string name;
    std::size_t q;  ///< variable count |E| the generator is expected to produce
    std::function<stg::Stg()> make;
    TreeSize usc, csc, normalcy;  ///< pinned search trees (CSC: fresh checker)
};

std::vector<EdgeCase> edge_cases() {
    using namespace stg::bench;
    return {
        {"johnson32_q63", 64, [] { return johnson_counter(32); },
         {0, 0}, {0, 0}, {2047, 1055}},
        {"seq16_q63", 64, [] { return sequential_handshakes(16); },
         {15, 1}, {3600, 1920}, {1987, 1040}},
        {"duplex7_q64", 65, [] { return duplex_channel(7, false, true); },
         {3, 1}, {16, 9}, {4267, 2181}},
        {"envelope8_q65", 66, [] { return phase_envelope(8); },
         {29, 1}, {29, 1}, {4529, 1785}},
        {"johnson33_q65", 66, [] { return johnson_counter(33); },
         {0, 0}, {0, 0}, {2177, 1121}},
        {"counterflow4_q66", 67, [] { return counterflow(4, true); },
         {5125, 2224}, {41000, 17792}, {15998, 7967}},
        {"johnson64_q127", 128, [] { return johnson_counter(64); },
         {0, 0}, {0, 0}, {8191, 4159}},
        {"seq32_q127", 128, [] { return sequential_handshakes(32); },
         {31, 1}, {30752, 15872}, {8067, 4128}},
        {"duplex15_q128", 129, [] { return duplex_channel(15, false, true); },
         {3, 1}, {16, 9}, {13739, 6965}},
        {"envelope16_q129", 130, [] { return phase_envelope(16); },
         {61, 1}, {61, 1}, {18633, 7025}},
        {"johnson65_q129", 130, [] { return johnson_counter(65); },
         {0, 0}, {0, 0}, {8449, 4289}},
        // USC and normalcy as in tests/golden/search_counts.json; CSC on a
        // fresh checker, which no USC certificate answers.
        {"cf_asym_b_q105", 106,
         [] {
             return stg::load_astg_file(std::string(STGCC_MODELS_DIR) +
                                        "/cf_asym_b_csc.g");
         },
         {59038, 23570}, {649418, 259270}, {148570, 74239}},
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

    const auto expect_tree = [](const stg::CheckStats& stats, TreeSize pinned,
                                const char* check) {
        EXPECT_EQ(stats.search_nodes, pinned.nodes) << check << " nodes";
        EXPECT_EQ(stats.leaves, pinned.leaves) << check << " leaves";
    };
    const auto usc = checker.check_usc();
    EXPECT_EQ(usc.holds, stg::check_usc_sg(sg).holds);
    expect_tree(usc.stats, c.usc, "USC");
    const bool csc = stg::check_csc_sg(sg).holds;
    // Run CSC before any USC certificate could answer it: a fresh checker.
    const core::UnfoldingChecker fresh(model);
    const auto csc_ip = fresh.check_csc();
    EXPECT_EQ(csc_ip.holds, csc);
    expect_tree(csc_ip.stats, c.csc, "CSC");
    const core::UnfoldingChecker fresh_split(model);
    sched::Executor serial(1);
    const auto csc_split = fresh_split.check_csc({}, serial);
    EXPECT_EQ(csc_split.holds, csc);
    expect_tree(csc_split.stats, c.csc, "CSC on an executor");

    const auto ip = checker.check_normalcy();
    const auto ref = stg::check_normalcy_sg(sg);
    EXPECT_EQ(ip.normal, ref.normal);
    expect_tree(ip.stats, c.normalcy, "normalcy");
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

/// Corpus models whose prefix has at most this many events get the leaf
/// view check: 18 of the 22, all but the four largest counterflow rows,
/// whose exhaustive normalcy relations have 0.5-15 M leaves each.
constexpr std::size_t kCorpusEventLimit = 50;

std::vector<fs::path> model_files() {
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(STGCC_MODELS_DIR, ec))
        if (entry.path().extension() == ".g") files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

/// Run one exhaustive solve per code relation whose predicate rejects every
/// leaf, checking both sides' views at each leaf against first principles.
/// Returns the number of leaves checked.
std::size_t check_leaf_views(const stg::Stg& model) {
    const unf::Prefix prefix = unf::unfold(model.system());
    const core::CodingProblem problem(model, prefix);
    BitVec cutoffs = prefix.make_event_set();
    for (unf::EventId e = 0; e < prefix.num_events(); ++e)
        if (prefix.event(e).cutoff) cutoffs.set(e);
    std::size_t leaves = 0;
    for (const core::CodeRelation relation :
         {core::CodeRelation::Equal, core::CodeRelation::LessEq,
          core::CodeRelation::GreaterEq}) {
        core::CompatSolver solver(problem);
        const auto outcome = solver.solve(
            relation, [&](const core::LeafView& a, const core::LeafView& b) {
                for (const core::LeafView* side : {&a, &b}) {
                    EXPECT_FALSE(side->config.intersects(cutoffs)) << side->config;
                    EXPECT_TRUE(unf::is_configuration(prefix, side->config))
                        << side->config;
                    const petri::Marking m =
                        unf::marking_of(prefix, side->config);
                    BitVec places(m.num_places());
                    for (std::size_t p = 0; p < m.num_places(); ++p) {
                        EXPECT_LE(m[p], 1u) << model.name() << ": not 1-safe";
                        if (m[p] != 0) places.set(p);
                    }
                    EXPECT_EQ(side->places, places) << side->config;
                    EXPECT_EQ(side->code, problem.code_of(side->config))
                        << side->config;
                    const BitVec out = model.out_signals(m);
                    for (stg::SignalId z = 0; z < model.num_signals(); ++z)
                        EXPECT_EQ(problem.enabled(side->places, z), out.test(z))
                            << side->config << " signal " << model.signal_name(z);
                }
                return false;
            });
        EXPECT_FALSE(outcome.found);
        leaves += outcome.stats.leaves;
    }
    return leaves;
}

TEST(SolverLeafView, AgreesWithMarkingOutAndCodeOnCorpus) {
    const auto files = model_files();
    ASSERT_FALSE(files.empty()) << "no .g files under " STGCC_MODELS_DIR;
    std::size_t checked = 0, leaves = 0;
    for (const fs::path& file : files) {
        const stg::Stg model = stg::load_astg_file(file.string());
        if (unf::unfold(model.system()).num_events() > kCorpusEventLimit) continue;
        SCOPED_TRACE(file.filename().string());
        leaves += check_leaf_views(model);
        ++checked;
    }
    EXPECT_GE(checked, 18u);
    EXPECT_GT(leaves, 0u);
}

TEST(SolverLeafView, AgreesWithMarkingOutAndCodeOnRandomStgs) {
    // The random-STG sweep of the unfolding tests: plain choice, heavy
    // choice, non-free-choice sync and dummy-spliced knobs (contracted
    // first: the solver runs on dummy-free nets), six seeds each.
    std::vector<test::RandomStgConfig> knobs(4);
    knobs[1].branch_probability = 0.6;
    knobs[2].machines = 3;
    knobs[2].sync_transitions = 2;
    knobs[3].dummy_probability = 0.3;
    std::size_t leaves = 0;
    for (std::size_t k = 0; k < knobs.size(); ++k) {
        for (unsigned seed = 1; seed <= 6; ++seed) {
            SCOPED_TRACE("knob " + std::to_string(k) + " seed " + std::to_string(seed));
            const auto model = test::random_stg(seed * 17 + 3, knobs[k]);
            leaves += check_leaf_views(model.has_dummies()
                                           ? stg::contract_dummies(model).stg
                                           : model);
        }
    }
    EXPECT_GT(leaves, 0u);
}

}  // namespace
}  // namespace stgcc
