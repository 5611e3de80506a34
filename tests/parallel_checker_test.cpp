// Determinism and correctness of the parallel checking paths: the
// per-signal CSC fan-out, the executor overload of the normalcy check and the
// phase-parallel verify_stg must produce byte-identical verdicts and
// witnesses at every --jobs value.  Suites are named Parallel* so the tsan
// CI job can select them with `ctest -R 'Sched|Parallel'`.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/checkers.hpp"
#include "core/verdict.hpp"
#include "core/verifier.hpp"
#include "obs/metrics.hpp"
#include "sched/parallel.hpp"
#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "test_util.hpp"

namespace stgcc::core {
namespace {

namespace fs = std::filesystem;

/// The Table-1 subset the determinism contract is asserted on: both paper
/// models, a conflict-carrying ring, a USC-violating sequencer, and
/// conflict-free instances (the exhaustive-search case).
std::vector<stg::Stg> determinism_models() {
    std::vector<stg::Stg> models;
    models.push_back(stg::bench::vme_bus());
    models.push_back(stg::bench::vme_bus_csc_resolved());
    models.push_back(stg::bench::token_ring(2));
    models.push_back(stg::bench::sequential_handshakes(3));
    models.push_back(stg::bench::muller_pipeline(3));
    models.push_back(stg::bench::parallel_handshakes(3));
    return models;
}

std::string report_text(const stg::Stg& model, unsigned jobs) {
    VerifyOptions opts;
    opts.jobs = jobs;
    auto report = verify_stg(model, opts);
    return format_report(model, report);
}

TEST(ParallelDeterminism, ReportsByteIdenticalAcrossJobs) {
    for (const auto& model : determinism_models()) {
        const std::string serial = report_text(model, 1);
        const std::string parallel = report_text(model, 8);
        EXPECT_EQ(serial, parallel) << "model " << model.name();
    }
}

TEST(ParallelDeterminism, CacheOnAndOffReportsByteIdentical) {
    // The result cache (src/cache/) must be verdict- and witness-neutral
    // across the jobs matrix on the determinism corpus -- the fixed-model
    // counterpart of the random DifferentialCacheTest fleet: a cold cached
    // run at jobs 1 and a warm (replayed) run at jobs 8 both render the
    // uncached jobs-1 verdict of the same model text.
    const fs::path dir = test::temp_path("stgcc_parallel_determinism_cache");
    fs::remove_all(dir);
    const cache::ResultCache rcache(dir.string());
    obs::Counter& hits = obs::counter("cache.result.hits");
    for (const auto& built : determinism_models()) {
        const std::string text = stg::write_astg_string(built);
        const stg::Stg model = stg::parse_astg_string(text);
        const RenderedVerdict reference =
            render_verdict(model, verify_stg(model, {}));
        for (const unsigned jobs : {1u, 8u}) {
            sched::Executor ex(jobs);
            const std::uint64_t hits_before = hits.value();
            const RenderedVerdict v = verdict_cached(text, {}, rcache, ex);
            EXPECT_EQ(v.report, reference.report)
                << "model " << model.name() << " jobs=" << jobs;
            EXPECT_EQ(test::canonical_json(v.json),
                      test::canonical_json(reference.json))
                << "model " << model.name() << " jobs=" << jobs;
            EXPECT_EQ(hits.value(), hits_before + (jobs == 8 ? 1 : 0))
                << "model " << model.name() << " jobs=" << jobs;
        }
    }
    fs::remove_all(dir);
}

TEST(ParallelDeterminism, RepeatedParallelRunsAreStable) {
    // Re-running at jobs=8 must not depend on the schedule: three runs on
    // the conflict-rich models give one answer.
    auto vme = stg::bench::vme_bus();
    auto ring = stg::bench::token_ring(2);
    for (const auto* model : {&vme, &ring}) {
        const std::string first = report_text(*model, 8);
        for (int run = 0; run < 2; ++run)
            EXPECT_EQ(report_text(*model, 8), first)
                << "model " << model->name();
    }
}

TEST(ParallelChecker, PerSignalCscAgreesWithSingleInstance) {
    // The serial and pooled per-signal searches against an independent
    // oracle: the explicit state graph's CSC verdict.
    for (const auto& model : determinism_models()) {
        UnfoldingChecker checker(model);
        const bool oracle = stg::check_csc_sg(stg::StateGraph(model)).holds;
        sched::Executor serial(1);
        sched::Executor pool(8);
        const auto fan_serial = checker.check_csc({}, serial);
        const auto fan_pool = checker.check_csc({}, pool);
        EXPECT_EQ(oracle, fan_serial.holds) << model.name();
        EXPECT_EQ(oracle, fan_pool.holds) << model.name();
        // The serial and pooled runs agree exactly (same witness).
        ASSERT_EQ(fan_serial.witness.has_value(), fan_pool.witness.has_value());
        if (fan_serial.witness) {
            EXPECT_EQ(fan_serial.witness->code.to_string(),
                      fan_pool.witness->code.to_string());
            EXPECT_EQ(fan_serial.witness->trace1, fan_pool.witness->trace1);
            EXPECT_EQ(fan_serial.witness->trace2, fan_pool.witness->trace2);
        }
    }
}

TEST(ParallelChecker, PerSignalCscStatsMatchSerialOnEveryRun) {
    // The per-signal CSC totals count the instances up to the winning
    // signal and nothing cancelled above it, so they equal the serial run's
    // on every schedule.  These are the models whose totals once varied.
    for (const char* name :
         {"dup_4ph_b", "dup_4ph_mtr_a", "dup_4ph_mtr_b", "dup_mod_a",
          "dup_mod_b", "dup_mod_c", "envelope2", "lazyring", "ring", "vme"}) {
        const stg::Stg model = stg::load_astg_file(
            std::string(STGCC_MODELS_DIR) + "/" + name + ".g");
        UnfoldingChecker checker(model);
        sched::Executor serial(1);
        const stg::CheckStats want = checker.check_csc({}, serial).stats;
        sched::Executor pool(4);
        for (int run = 0; run < 20; ++run) {
            std::string trace = name;
            trace += " run ";
            trace += std::to_string(run);
            SCOPED_TRACE(trace);
            const stg::CheckStats got = checker.check_csc({}, pool).stats;
            EXPECT_EQ(got.search_nodes, want.search_nodes);
            EXPECT_EQ(got.leaves, want.leaves);
            EXPECT_EQ(got.propagations, want.propagations);
            EXPECT_EQ(got.max_depth, want.max_depth);
        }
    }
}

/// Read a model file of models/.
std::string model_text(const std::string& name) {
    std::ifstream in(std::string(STGCC_MODELS_DIR) + "/" + name + ".g");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/// The parallel composition of two .g texts: the second one's signals and
/// places get the prefix "v" (its transitions are named after its signals,
/// so they follow).
std::string compose(const std::string& a, const std::string& b) {
    std::vector<std::string> inputs, outputs, graph, marking;
    const auto read = [&](const std::string& text, const std::string& pre) {
        std::istringstream lines(text);
        for (std::string line; std::getline(lines, line);) {
            std::istringstream words(line);
            std::string head;
            if (!(words >> head)) continue;
            if (head == ".model" || head == ".graph" || head == ".end") continue;
            if (head == ".marking") {
                std::string body = line.substr(line.find('{') + 1);
                body = body.substr(0, body.find('}'));
                std::istringstream marks(body);
                for (std::string m; marks >> m;) {
                    if (m.front() == '<') {
                        const std::size_t comma = m.find(',');
                        m = "<" + pre + m.substr(1, comma) + pre + m.substr(comma + 1);
                    } else {
                        m = pre + m;
                    }
                    marking.push_back(m);
                }
                continue;
            }
            std::vector<std::string>& into =
                head == ".inputs" ? inputs : head == ".outputs" ? outputs : graph;
            std::string row = head == ".inputs" || head == ".outputs" ? "" : pre + head;
            for (std::string w; words >> w;) {
                if (!row.empty()) row += ' ';
                row += pre + w;
            }
            into.push_back(row);
        }
    };
    read(a, "");
    read(b, "v");
    std::string out = ".model composed\n.inputs";
    for (const auto& l : inputs) out += " " + l;
    out += "\n.outputs";
    for (const auto& l : outputs) out += " " + l;
    out += "\n.graph\n";
    for (const auto& l : graph) out += l + "\n";
    out += ".marking {";
    for (const auto& m : marking) out += " " + m;
    return out + " }\n.end\n";
}

/// What the split USC search must reproduce: the verdict, the rendered
/// witness and the deterministic search counts.
std::string usc_fingerprint(const stg::Stg& model, const stg::CodingCheckResult& r) {
    std::string out = r.holds ? "holds\n" : "VIOLATED\n";
    if (r.witness) out += format_witness(model, *r.witness);
    for (const std::size_t n : {r.stats.search_nodes, r.stats.leaves,
                                r.stats.propagations, r.stats.max_depth}) {
        out += std::to_string(n);
        out += ' ';
    }
    return out;
}

/// One model the USC split is checked on.  `name` is a gtest name; a
/// heavy case (a CF row or a composition) runs 20 times over, as its
/// subtrees are big enough for the schedule to vary.
struct UscSplitCase {
    std::string name;
    bool heavy;
    std::function<stg::Stg()> make;
};

void PrintTo(const UscSplitCase& c, std::ostream* os) { *os << c.name; }

/// The corpus, the Table 1 suite, and vme composed with CF-SYM-C either
/// way round.  With vme second, its conflict is found after 69 nodes while
/// the lanes above it are inside CF-SYM-C subtrees of thousands of nodes,
/// so they are cancelled mid-search; with vme first, the winner comes after
/// 24,939 nodes.
std::vector<UscSplitCase> usc_split_cases() {
    std::vector<UscSplitCase> cases;
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(STGCC_MODELS_DIR, ec))
        if (entry.path().extension() == ".g") files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    for (const fs::path& f : files) {
        const std::string stem = f.stem().string();
        cases.push_back({stem, stem.rfind("cf_", 0) == 0,
                         [f] { return stg::load_astg_file(f.string()); }});
    }
    // One build of the suite; each row's case copies its model out of it.
    const auto suite = std::make_shared<const std::vector<stg::bench::NamedBenchmark>>(
        stg::bench::table1_suite());
    for (std::size_t i = 0; i < suite->size(); ++i) {
        const std::string& row = (*suite)[i].name;
        std::string name = "table1_" + row;
        std::replace(name.begin(), name.end(), '-', '_');
        cases.push_back({name, row.rfind("CF-", 0) == 0,
                         [suite, i] { return (*suite)[i].stg; }});
    }
    cases.push_back({"cf_sym_c_then_vme", true, [] {
                         return stg::parse_astg_string(
                             compose(model_text("cf_sym_c_csc"), model_text("vme")));
                     }});
    cases.push_back({"vme_then_cf_sym_c", true, [] {
                         return stg::parse_astg_string(
                             compose(model_text("vme"), model_text("cf_sym_c_csc")));
                     }});
    return cases;
}

TEST(ParallelChecker, UscSplitCasesAreTheCorpusTable1AndCompositions) {
    const auto cases = usc_split_cases();
    ASSERT_EQ(cases.size(), 39u);  // 22 models, 15 Table 1 rows, 2 compositions
    EXPECT_EQ(std::count_if(cases.begin(), cases.end(),
                            [](const UscSplitCase& c) { return c.heavy; }),
              14);
}

class ParallelUscSplit : public ::testing::TestWithParam<UscSplitCase> {};

TEST_P(ParallelUscSplit, MatchesSerialOnEveryRun) {
    // The first-difference subtrees handed out over a pool give the jobs-1
    // witness and counts at every jobs value, on every run.
    const UscSplitCase& c = GetParam();
    const stg::Stg model = c.make();
    sched::Executor serial(1), pool2(2), pool4(4), pool8(8);
    const UnfoldingChecker checker(model);
    const std::string want = usc_fingerprint(model, checker.check_usc({}, serial));
    for (int run = 0; run < (c.heavy ? 20 : 1); ++run) {
        for (sched::Executor* ex : {&pool2, &pool4, &pool8}) {
            EXPECT_EQ(usc_fingerprint(model, checker.check_usc({}, *ex)), want)
                << "jobs " << ex->jobs() << " run " << run;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ParallelUscSplit, ::testing::ValuesIn(usc_split_cases()),
    [](const ::testing::TestParamInfo<UscSplitCase>& info) { return info.param.name; });

TEST(ParallelChecker, UscSplitOnWorkersThatRanOtherSolvesMatchesSerial) {
    // A worker keeps its level stack from one solve to the next.  The pool
    // first runs CF-SYM-D's split search, whose levels have another size,
    // then CF-ASYM-B's and CF-SYM-D's again: each on workers whose stacks
    // earlier solves grew must equal its serial run.
    const stg::Stg sym_d = stg::parse_astg_string(model_text("cf_sym_d_csc"));
    const stg::Stg asym_b = stg::parse_astg_string(model_text("cf_asym_b_csc"));
    const UnfoldingChecker sym_d_checker(sym_d), asym_b_checker(asym_b);
    sched::Executor serial(1), pool(4);
    const std::string sym_d_want =
        usc_fingerprint(sym_d, sym_d_checker.check_usc({}, serial));
    const std::string asym_b_want =
        usc_fingerprint(asym_b, asym_b_checker.check_usc({}, serial));
    EXPECT_EQ(usc_fingerprint(sym_d, sym_d_checker.check_usc({}, pool)), sym_d_want);
    EXPECT_EQ(usc_fingerprint(asym_b, asym_b_checker.check_usc({}, pool)), asym_b_want);
    EXPECT_EQ(usc_fingerprint(sym_d, sym_d_checker.check_usc({}, pool)), sym_d_want);
}

TEST(ParallelChecker, NormalcyExecutorAgreesWithSerial) {
    for (const auto& model : determinism_models()) {
        UnfoldingChecker checker(model);
        const auto serial = checker.check_normalcy();
        sched::Executor pool(8);
        const auto parallel = checker.check_normalcy({}, pool);
        EXPECT_EQ(serial.normal, parallel.normal) << model.name();
        ASSERT_EQ(serial.per_signal.size(), parallel.per_signal.size());
        for (std::size_t i = 0; i < serial.per_signal.size(); ++i) {
            const auto& a = serial.per_signal[i];
            const auto& b = parallel.per_signal[i];
            EXPECT_EQ(a.signal, b.signal);
            EXPECT_EQ(a.p_normal, b.p_normal) << model.name();
            EXPECT_EQ(a.n_normal, b.n_normal) << model.name();
            ASSERT_EQ(a.p_violation.has_value(), b.p_violation.has_value());
            if (a.p_violation) {
                EXPECT_EQ(a.p_violation->trace1, b.p_violation->trace1);
                EXPECT_EQ(a.p_violation->trace2, b.p_violation->trace2);
            }
            ASSERT_EQ(a.n_violation.has_value(), b.n_violation.has_value());
            if (a.n_violation) {
                EXPECT_EQ(a.n_violation->trace1, b.n_violation->trace1);
                EXPECT_EQ(a.n_violation->trace2, b.n_violation->trace2);
            }
        }
    }
}

TEST(ParallelChecker, PreCancelledSolveStopsEarly) {
    // A token cancelled before the solve starts must stop the search at
    // the first poll (every 1024 nodes) instead of running to exhaustion.
    auto model = stg::bench::counterflow(4, /*symmetric=*/true);
    UnfoldingChecker checker(model);

    SearchOptions plain;
    auto full = checker.check_usc(plain);
    ASSERT_TRUE(full.holds);  // conflict-free: the search is exhaustive
    ASSERT_GT(full.stats.search_nodes, 5000u)
        << "model too small to observe the cancellation poll";

    sched::CancellationSource source;
    source.cancel();
    SearchOptions cancelled;
    cancelled.cancel = source.token();
    CompatSolver solver(checker.problem(), cancelled);
    // Reject every leaf: uncancelled, this search would be exhaustive, so
    // the early stop is attributable to the token alone.
    auto outcome = solver.solve(
        CodeRelation::Equal,
        [](const LeafView&, const LeafView&) { return false; });
    EXPECT_TRUE(outcome.cancelled);
    EXPECT_FALSE(outcome.found);
    EXPECT_LT(outcome.stats.search_nodes, full.stats.search_nodes);
    EXPECT_LE(outcome.stats.search_nodes, 2048u);
}

TEST(ParallelChecker, VerifyReportsResolvedJobs) {
    auto model = stg::bench::vme_bus();
    VerifyOptions opts;
    opts.jobs = 3;
    auto report = verify_stg(model, opts);
    EXPECT_EQ(report.jobs, 3u);
    opts.jobs = 0;  // auto
    report = verify_stg(model, opts);
    EXPECT_EQ(report.jobs, sched::Executor::hardware_jobs());
}

}  // namespace
}  // namespace stgcc::core
