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
//    the pins hold each instantiation to one search tree.  USC runs
//    serially and split over a pool, to the same pin.  A case's name
//    gives the count of non-cut-off events it was chosen at; each of the
//    generated prefixes has one cut-off.
//  * WordEdgeLevels: the cases run back to back on one thread, whose
//    level stack each solve inherits from the one before at another width,
//    give the counts and witnesses of the same cases run on fresh threads.
//  * SolverLeafView: at every leaf of exhaustive solves under each code
//    relation, each side's event set is a configuration of the prefix with
//    no cut-off in it (eq. 3), the place set and code the solver carries in
//    its search level for each side equal unf::marking_of and
//    CodingProblem::code_of of that side's configuration, and Out of the
//    place set, per signal and as words, equals Stg::out_signals.
//  * NormalcyPin: the rendered normalcy section of the corpus and of the
//    random sweep hashes to the value pinned before the leaf predicate read
//    Out as words, which holds the witnesses and their order.
//  * NormalcySideTest: both normalcy passes run with and without the side
//    test close the same flags at the same leaves, in the same order, and
//    the side test never adds a node.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/checkers.hpp"
#include "cache/result_cache.hpp"
#include "core/compat_solver.hpp"
#include "obs/metrics.hpp"
#include "core/verifier.hpp"
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
         {0, 0}, {0, 0}, {1987, 1024}},
        {"seq16_q63", 64, [] { return sequential_handshakes(16); },
         {15, 1}, {3600, 1920}, {1087, 575}},
        {"duplex7_q64", 65, [] { return duplex_channel(7, false, true); },
         {3, 1}, {16, 9}, {4267, 2181}},
        {"envelope8_q65", 66, [] { return phase_envelope(8); },
         {29, 1}, {29, 1}, {2149, 674}},
        {"johnson33_q65", 66, [] { return johnson_counter(33); },
         {0, 0}, {0, 0}, {2115, 1089}},
        {"counterflow4_q66", 67, [] { return counterflow(4, true); },
         {5125, 2224}, {41000, 17792}, {5930, 2669}},
        {"johnson64_q127", 128, [] { return johnson_counter(64); },
         {0, 0}, {0, 0}, {8067, 4096}},
        {"seq32_q127", 128, [] { return sequential_handshakes(32); },
         {31, 1}, {30752, 15872}, {4223, 2175}},
        {"duplex15_q128", 129, [] { return duplex_channel(15, false, true); },
         {3, 1}, {16, 9}, {13739, 6965}},
        {"envelope16_q129", 130, [] { return phase_envelope(16); },
         {61, 1}, {61, 1}, {8517, 2498}},
        {"johnson65_q129", 130, [] { return johnson_counter(65); },
         {0, 0}, {0, 0}, {8323, 4225}},
        // USC and normalcy as in tests/golden/search_counts.json; CSC on a
        // fresh checker, which no USC certificate answers.
        {"cf_asym_b_q105", 106,
         [] {
             return stg::load_astg_file(std::string(STGCC_MODELS_DIR) +
                                        "/cf_asym_b_csc.g");
         },
         {59038, 23570}, {649418, 259270}, {59720, 29252}},
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
    sched::Executor pool(4);
    const auto usc_split = checker.check_usc({}, pool);
    EXPECT_EQ(usc_split.holds, usc.holds);
    expect_tree(usc_split.stats, c.usc, "USC split over a pool");
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

/// A WordEdge case's USC and normalcy searches as text: verdicts, rendered
/// witnesses and the search nodes, leaves, propagations and depth.
std::string search_fingerprint(const EdgeCase& c) {
    const stg::Stg model = c.make();
    const core::UnfoldingChecker checker(model);
    std::string out;
    const auto add_counts = [&](const stg::CheckStats& s) {
        for (const std::size_t n : {s.search_nodes, s.leaves, s.propagations, s.max_depth}) {
            out += std::to_string(n);
            out += ' ';
        }
        out += '\n';
    };
    const auto usc = checker.check_usc();
    out += usc.holds ? "usc holds\n" : "usc violated\n";
    if (usc.witness) out += core::format_witness(model, *usc.witness);
    add_counts(usc.stats);
    const auto nrm = checker.check_normalcy();
    for (const auto& sig : nrm.per_signal) {
        out += model.signal_name(sig.signal);
        out += sig.p_normal ? " p" : " -";
        out += sig.n_normal ? "n\n" : "-\n";
        for (const auto* w : {&sig.p_violation, &sig.n_violation})
            if (*w) out += core::format_normalcy_witness(model, **w);
    }
    add_counts(nrm.stats);
    return out;
}

TEST(WordEdgeLevels, BackToBackOnOneThreadMatchFreshThreads) {
    // The cases alternate between one plane word, two and the runtime
    // widths, and so between level sizes.  Run forward and then backward
    // on one thread, each solve starts on the level stack the previous
    // one grew; each must match the case run alone on a new thread.
    const auto cases = edge_cases();
    std::vector<std::string> fresh;
    for (const EdgeCase& c : cases)
        std::thread([&] { fresh.push_back(search_fingerprint(c)); }).join();
    std::vector<std::string> forward, backward;
    std::thread([&] {
        for (const EdgeCase& c : cases) forward.push_back(search_fingerprint(c));
        for (auto c = cases.rbegin(); c != cases.rend(); ++c)
            backward.insert(backward.begin(), search_fingerprint(*c));
    }).join();
    ASSERT_EQ(fresh.size(), cases.size());
    ASSERT_EQ(forward.size(), cases.size());
    ASSERT_EQ(backward.size(), cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
        EXPECT_EQ(forward[i], fresh[i]) << cases[i].name << " (forward)";
        EXPECT_EQ(backward[i], fresh[i]) << cases[i].name << " (backward)";
    }
}

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
                    for (std::size_t w = 0; w < out.span().num_words(); ++w)
                        EXPECT_EQ(problem.out_word(side->places, w),
                                  out.span().words()[w])
                            << side->config << " Out word " << w;
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

TEST(SolverLeafView, AgreesWithMarkingOutAndCodeOnTwoCodeWords) {
    // |Z| = 65: the Out set and the code take two words.
    const stg::Stg model = stg::bench::johnson_counter(65);
    ASSERT_EQ(model.num_signals(), 65u);
    EXPECT_GT(check_leaf_views(model), 0u);
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

/// The normalcy section of a model's rendered report (default options):
/// from its "normalcy:" line to the end, or the error verify_stg throws.
std::string normalcy_section(const stg::Stg& model) {
    try {
        const std::string report =
            core::format_report(model, core::verify_stg(model, {}));
        const std::size_t at = report.find("normalcy:");
        return at == std::string::npos ? "" : report.substr(at);
    } catch (const std::exception& e) {
        return std::string("error: ") + e.what();
    }
}

std::string hex(std::uint64_t h) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

TEST(NormalcyPin, RenderedSectionsMatchPinnedHashes) {
    // FNV-1a 64 of the normalcy section per corpus model, and of the
    // concatenated sections of each half of the random sweep (seeds
    // 700-729 with the default knobs, 730-759 with sink places), pinned
    // when every leaf still called enabled() once per signal and side.
    std::vector<std::pair<std::string, std::string>> got;
    for (const fs::path& file : model_files())
        got.emplace_back(file.stem().string(),
                         hex(cache::fnv1a64(normalcy_section(
                             stg::load_astg_file(file.string())))));
    for (const unsigned first : {700u, 730u}) {
        std::string sections;
        for (unsigned seed = first; seed < first + 30; ++seed) {
            test::RandomStgConfig cfg;
            if (seed >= 730) cfg.sink_probability = 0.25;
            sections += normalcy_section(test::random_stg(seed, cfg));
            sections += '\n';
        }
        got.emplace_back("random " + std::to_string(first) + "-" +
                             std::to_string(first + 29),
                         hex(cache::fnv1a64(sections)));
    }
    const std::vector<std::pair<std::string, std::string>> pinned = {
        {"cf_asym_a_csc", "b42986bcfa9d3796"},
        {"cf_asym_b_csc", "ed1a7d69723c392f"},
        {"cf_sym_a_csc", "856f2f3200c63969"},
        {"cf_sym_b_csc", "0db9fb381dd90732"},
        {"cf_sym_c_csc", "5d7bc21fd50e7bc2"},
        {"cf_sym_d_csc", "fd7c7489118d59b5"},
        {"dup_4ph_a", "61f6cbc945febd53"},
        {"dup_4ph_b", "9e5a0172fef4947a"},
        {"dup_4ph_mtr_a", "64ed3e471d1ffb0c"},
        {"dup_4ph_mtr_b", "0d803371922a7345"},
        {"dup_mod_a", "722b5fed60bd3dbb"},
        {"dup_mod_b", "6ae7c613eaf29964"},
        {"dup_mod_c", "7313e0a1f82ba8f5"},
        {"envelope2", "d553395ebf8a4355"},
        {"johnson4", "3fa4b6cb1850e4cd"},
        {"lazyring", "433a4bee73ae7498"},
        {"muller4", "d26e136db09c4b7c"},
        {"par4", "2e8ffab1c3d737fc"},
        {"ring", "0ecf5f2c3ef2a8b4"},
        {"seq4", "2e8ffab1c3d737fc"},
        {"vme", "c8679775a0d5a7c6"},
        {"vme_csc", "a8792c6cda92e5ea"},
        {"random 700-729", "4cfc0c997daec4a3"},
        {"random 730-759", "65f60d804e357afb"},
    };
    EXPECT_EQ(got, pinned);
}

/// A leaf of a normalcy pass that closed flags: both sides' configurations
/// (lo first) and the p and n flags it closed, per code word.
struct ClosingLeaf {
    BitVec lo, hi;
    std::vector<BitSpan::Word> p, n;
    bool operator==(const ClosingLeaf&) const = default;
};

void PrintTo(const ClosingLeaf& c, std::ostream* os) {
    *os << "lo " << c.lo << " hi " << c.hi << " p";
    for (const auto w : c.p) *os << ' ' << w;
    *os << " n";
    for (const auto w : c.n) *os << ' ' << w;
}

struct NormalcyRun {
    std::vector<ClosingLeaf> closing;
    std::size_t nodes = 0;
    std::uint64_t side_prunes = 0;
};

/// check_normalcy's two passes on one record of open flags, through
/// CompatSolver directly, with or without NormalcyFlags::reachable as the
/// side test.
NormalcyRun run_normalcy(const core::CodingProblem& problem, bool side_test) {
    core::NormalcyFlags flags(problem);
    NormalcyRun run;
    obs::Counter& prunes = obs::counter("compat.side_prunes");
    for (const core::CodeRelation rel :
         {core::CodeRelation::LessEq, core::CodeRelation::GreaterEq}) {
        if (!flags.open()) break;
        const bool less_eq = rel == core::CodeRelation::LessEq;
        const auto leaf = [&](const core::LeafView& a, const core::LeafView& b) {
            const core::LeafView& lo = less_eq ? a : b;
            const core::LeafView& hi = less_eq ? b : a;
            ClosingLeaf closed{BitVec(lo.config), BitVec(hi.config), {}, {}};
            bool any = false;
            for (std::size_t w = 0; w < flags.words(); ++w) {
                const auto [p, n] = flags.close(w, flags.nxt(lo, w), flags.nxt(hi, w));
                closed.p.push_back(p);
                closed.n.push_back(n);
                any = any || (p | n) != 0;
            }
            if (any) run.closing.push_back(std::move(closed));
            return any && !flags.open();
        };
        core::SideTest side;
        if (side_test)
            side = [&](int s, const core::LeafView& v) {
                return flags.reachable((s == 0) == less_eq, v);
            };
        const std::uint64_t before = prunes.value();
        core::CompatSolver solver(problem);
        run.nodes += solver.solve(rel, leaf, side).stats.search_nodes;
        run.side_prunes += prunes.value() - before;
    }
    return run;
}

/// Compare the two runs on one model; returns the side test's run.  A model
/// the checker refuses (inconsistent, or dummies contraction cannot remove)
/// is skipped with an empty run.
NormalcyRun expect_side_test_sound(const stg::Stg& raw) {
    std::unique_ptr<core::UnfoldingChecker> checker;
    const stg::Stg model = raw.has_dummies() ? stg::contract_dummies(raw).stg : raw;
    try {
        checker = std::make_unique<core::UnfoldingChecker>(model);
    } catch (const std::exception&) {
        return {};
    }
    const NormalcyRun plain = run_normalcy(checker->problem(), false);
    const NormalcyRun pruned = run_normalcy(checker->problem(), true);
    EXPECT_EQ(plain.side_prunes, 0u);
    EXPECT_EQ(pruned.closing, plain.closing);
    EXPECT_LE(pruned.nodes, plain.nodes);
    // The two passes above are check_normalcy's.
    EXPECT_EQ(checker->check_normalcy().stats.search_nodes, pruned.nodes);
    return pruned;
}

TEST(NormalcySideTest, ClosesTheSameFlagsAtTheSameLeavesOnCorpus) {
    const auto files = model_files();
    ASSERT_FALSE(files.empty()) << "no .g files under " STGCC_MODELS_DIR;
    std::size_t checked = 0;
    for (const fs::path& file : files) {
        SCOPED_TRACE(file.filename().string());
        const NormalcyRun run =
            expect_side_test_sound(stg::load_astg_file(file.string()));
        if (file.stem().string().starts_with("cf_")) {
            EXPECT_GT(run.side_prunes, 0u);
            EXPECT_FALSE(run.closing.empty());
        }
        checked += run.nodes > 0;
    }
    EXPECT_EQ(checked, files.size());
}

TEST(NormalcySideTest, ClosesTheSameFlagsAtTheSameLeavesOnRandomStgs) {
    // The NormalcyPin sweep: seeds 700-729 with the default knobs, 730-759
    // with sink places.
    std::size_t checked = 0;
    std::uint64_t prunes = 0;
    for (unsigned seed = 700; seed < 760; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        test::RandomStgConfig cfg;
        if (seed >= 730) cfg.sink_probability = 0.25;
        const NormalcyRun run = expect_side_test_sound(test::random_stg(seed, cfg));
        checked += run.nodes > 0;
        prunes += run.side_prunes;
    }
    EXPECT_EQ(checked, 60u);
    EXPECT_GT(prunes, 0u);
}

TEST(NormalcySideTest, ClosesTheSameFlagsAtTheSameLeavesOnParAndPipelines) {
    using namespace stg::bench;
    for (int n = 2; n <= 4; ++n) {
        SCOPED_TRACE("PAR(" + std::to_string(n) + ")");
        EXPECT_GT(expect_side_test_sound(parallel_handshakes(n)).side_prunes, 0u);
    }
    for (int n = 2; n <= 3; ++n) {
        SCOPED_TRACE("pipeline(" + std::to_string(n) + ")");
        EXPECT_GT(expect_side_test_sound(handshake_pipeline(n)).side_prunes, 0u);
    }
}

}  // namespace
}  // namespace stgcc
