// Determinism and correctness of the parallel checking paths: the
// per-signal CSC fan-out, the orientation-parallel normalcy check and the
// phase-parallel verify_stg must produce byte-identical verdicts and
// witnesses at every --jobs value.  Suites are named Parallel* so the tsan
// CI job can select them with `ctest -R 'Sched|Parallel'`.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "core/checkers.hpp"
#include "core/verifier.hpp"
#include "sched/parallel.hpp"
#include "stg/benchmarks.hpp"

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
    // uncached jobs-1 report.
    const fs::path dir =
        fs::path(::testing::TempDir()) / "stgcc_parallel_determinism_cache";
    fs::remove_all(dir);
    const cache::ResultCache rcache(dir.string());
    for (const auto& model : determinism_models()) {
        const std::string reference = report_text(model, 1);
        for (const unsigned jobs : {1u, 8u}) {
            VerifyOptions opts;
            opts.jobs = jobs;
            const auto report = verify_stg_cached(model, opts, rcache);
            EXPECT_EQ(format_report(model, report), reference)
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
    for (const auto& model : determinism_models()) {
        UnfoldingChecker checker(model);
        const auto single = checker.check_csc();
        sched::Executor serial(1);
        sched::Executor pool(8);
        const auto fan_serial = checker.check_csc({}, serial);
        const auto fan_pool = checker.check_csc({}, pool);
        EXPECT_EQ(single.holds, fan_serial.holds) << model.name();
        EXPECT_EQ(single.holds, fan_pool.holds) << model.name();
        // The decomposed paths agree with each other exactly (same witness).
        ASSERT_EQ(fan_serial.witness.has_value(), fan_pool.witness.has_value());
        if (fan_serial.witness) {
            EXPECT_EQ(fan_serial.witness->code.to_string(),
                      fan_pool.witness->code.to_string());
            EXPECT_EQ(fan_serial.witness->trace1, fan_pool.witness->trace1);
            EXPECT_EQ(fan_serial.witness->trace2, fan_pool.witness->trace2);
        }
    }
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
        [](const BitVec&, const BitVec&) { return false; });
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
