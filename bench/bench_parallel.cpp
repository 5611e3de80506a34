// Parallel-runtime benchmark: corpus wall-clock of the Table 1 suite at
// jobs = 1/2/4/8 (model-level + within-model parallelism on one shared
// pool, exactly the stgbatch configuration), the per-signal CSC fan-out
// speedup on the largest conflict-free instances (the exhaustive searches
// that dominate checking time), and the USC search split by first
// difference on CF-ASYM-B and CF-SYM-D at jobs 1 and 4.  Writes
// BENCH_parallel.json.
//
// Verdicts (and the USC split's nodes and leaves) are asserted identical
// across jobs values while measuring -- a benchmark run doubles as a
// determinism check.  Speedups are whatever
// the hardware gives: on a single-core container they hover around 1.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/checkers.hpp"
#include "core/verifier.hpp"
#include "sched/parallel.hpp"
#include "stg/benchmarks.hpp"
#include "util/stopwatch.hpp"

using namespace stgcc;

namespace {

struct Verdicts {
    std::vector<int> rows;  // packed per-model: usc, csc, normalcy
    bool operator==(const Verdicts&) const = default;
};

/// Verify the whole suite through one shared executor (model-level
/// parallel_for; each verify's phases and per-signal instances reuse the
/// same pool).  Returns wall-clock seconds and the verdict vector.
double run_corpus(const std::vector<stg::bench::NamedBenchmark>& suite,
                  unsigned jobs, Verdicts& verdicts) {
    sched::Executor ex(jobs);
    std::vector<core::VerificationReport> reports(suite.size());
    Stopwatch timer;
    sched::parallel_for(ex, suite.size(), [&](std::size_t i) {
        reports[i] = core::verify_stg(suite[i].stg, {}, ex);
    });
    const double seconds = timer.seconds();
    verdicts.rows.clear();
    for (const auto& r : reports) {
        verdicts.rows.push_back(r.usc.holds);
        verdicts.rows.push_back(r.csc.holds);
        verdicts.rows.push_back(r.normalcy.normal);
    }
    return seconds;
}

}  // namespace

int main() {
    benchutil::BenchReport report("parallel");
    const auto suite = stg::bench::table1_suite();
    const unsigned hw = sched::Executor::hardware_jobs();

    std::printf("Parallel checking: Table 1 corpus, %zu models "
                "(hardware concurrency: %u)\n\n",
                suite.size(), hw);
    std::printf("%-8s %12s %10s\n", "jobs", "wall-clock", "speedup");
    benchutil::rule(34);

    Verdicts baseline;
    double serial_seconds = 0.0;
    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        Verdicts verdicts;
        const double seconds = run_corpus(suite, jobs, verdicts);
        if (jobs == 1) {
            baseline = verdicts;
            serial_seconds = seconds;
        } else if (!(verdicts == baseline)) {
            std::fprintf(stderr,
                         "FATAL: verdicts at jobs=%u differ from serial\n",
                         jobs);
            return 1;
        }
        const double speedup = seconds > 0 ? serial_seconds / seconds : 1.0;
        std::printf("%-8u %12s %9.2fx\n", jobs,
                    benchutil::fmt_time(seconds).c_str(), speedup);
        report.add_row(obs::Json::object()
                           .set("section", "corpus")
                           .set("jobs", jobs)
                           .set("models", suite.size())
                           .set("seconds", seconds)
                           .set("speedup", speedup));
    }

    std::printf("\nPer-signal CSC fan-out on conflict-free instances "
                "(exhaustive searches):\n\n");
    std::printf("%-24s %8s %12s %12s %10s\n", "model", "signals", "jobs=1",
                "jobs=8", "speedup");
    benchutil::rule(72);
    for (const auto& entry : suite) {
        if (!entry.expect_conflict_free) continue;
        core::UnfoldingChecker checker(entry.stg);
        const std::size_t signals =
            entry.stg.circuit_driven_signals().size();

        sched::Executor serial(1);
        Stopwatch t1;
        const auto r1 = checker.check_csc({}, serial);
        const double s1 = t1.seconds();

        sched::Executor pool(8);
        Stopwatch t8;
        const auto r8 = checker.check_csc({}, pool);
        const double s8 = t8.seconds();

        if (r1.holds != r8.holds) {
            std::fprintf(stderr, "FATAL: CSC verdict differs on %s\n",
                         entry.name.c_str());
            return 1;
        }
        const double speedup = s8 > 0 ? s1 / s8 : 1.0;
        std::printf("%-24s %8zu %12s %12s %9.2fx\n", entry.name.c_str(),
                    signals, benchutil::fmt_time(s1).c_str(),
                    benchutil::fmt_time(s8).c_str(), speedup);
        report.add_row(obs::Json::object()
                           .set("section", "csc_fanout")
                           .set("model", entry.name)
                           .set("signals", signals)
                           .set("seconds_jobs1", s1)
                           .set("seconds_jobs8", s8)
                           .set("speedup", speedup));
    }

    std::printf("\nUSC split by first difference (fastest of 5 per jobs value):"
                "\n\n");
    std::printf("%-16s %10s %10s %12s %12s %10s\n", "model", "nodes", "leaves",
                "jobs=1", "jobs=4", "speedup");
    benchutil::rule(76);
    for (const auto& entry : suite) {
        if (entry.name != "CF-ASYM-B-CSC" && entry.name != "CF-SYM-D-CSC")
            continue;
        core::UnfoldingChecker checker(entry.stg);
        sched::Executor serial(1);
        sched::Executor pool(4);
        stg::CheckStats stats[2];
        double best[2] = {1e9, 1e9};
        for (int rep = 0; rep < 5; ++rep) {
            for (int k = 0; k < 2; ++k) {
                Stopwatch t;
                stats[k] = checker.check_usc({}, k == 0 ? serial : pool).stats;
                best[k] = std::min(best[k], t.seconds());
            }
        }
        if (stats[0].search_nodes != stats[1].search_nodes ||
            stats[0].leaves != stats[1].leaves) {
            std::fprintf(stderr,
                         "FATAL: USC split on %s grew another tree: %zu/%zu "
                         "nodes/leaves at jobs 1, %zu/%zu at jobs 4\n",
                         entry.name.c_str(), stats[0].search_nodes,
                         stats[0].leaves, stats[1].search_nodes, stats[1].leaves);
            return 1;
        }
        const double speedup = best[1] > 0 ? best[0] / best[1] : 1.0;
        std::printf("%-16s %10zu %10zu %12s %12s %9.2fx\n", entry.name.c_str(),
                    stats[0].search_nodes, stats[0].leaves,
                    benchutil::fmt_time(best[0]).c_str(),
                    benchutil::fmt_time(best[1]).c_str(), speedup);
        report.add_row(obs::Json::object()
                           .set("section", "usc_split")
                           .set("model", entry.name)
                           .set("nodes", stats[0].search_nodes)
                           .set("leaves", stats[0].leaves)
                           .set("nodes_jobs4", stats[1].search_nodes)
                           .set("leaves_jobs4", stats[1].leaves)
                           .set("seconds_jobs1", best[0])
                           .set("seconds_jobs4", best[1])
                           .set("speedup", speedup));
    }

    std::printf("\n");
    report.write();
    return 0;
}
