// Scheduler scaling stress suite.  These tests pin the properties that
// make `--jobs N` safe to recommend: nested fan-out with helping never
// deadlocks and computes exact results, parallel_for under contention
// covers every index exactly once, find_first probes the same ascending
// frontier as the serial loop (the fix for the corpus-scaling regression,
// see docs/PARALLELISM.md), counter shards track the pool width without
// false sharing, and a real stgbatch corpus run is byte-identical across
// `--jobs {1, 2, 4, 8}`.
//
// Suite names start with "Scaling" so CI's ThreadSanitizer job
// (`ctest -R 'Sched|Parallel|Differential|Scaling'`) picks them up.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "sched/cancellation.hpp"
#include "sched/parallel.hpp"
#include "sched/thread_pool.hpp"
#include "test_util.hpp"

namespace stgcc {
namespace {

namespace fs = std::filesystem;

// ------------------------------------------------------ scheduler stress

// N producers each fan out M consumer subtasks through a nested TaskGroup
// and wait for them while the pool is already saturated with the other
// producers.  The producer's wait() must *help* (execute queued tasks on
// its own thread) rather than block, or a pool narrower than N would
// deadlock; the per-producer sums prove every consumer ran exactly once.
TEST(ScalingStress, ProducerConsumerFanOutWithHelping) {
    constexpr unsigned kWorkers = 4;
    constexpr std::size_t kProducers = 16;  // 4x the worker count
    constexpr std::size_t kConsumers = 64;

    sched::WorkStealingPool pool(kWorkers);
    std::vector<std::atomic<std::uint64_t>> sums(kProducers);

    sched::TaskGroup producers(&pool);
    for (std::size_t p = 0; p < kProducers; ++p) {
        producers.run([&, p] {
            sched::TaskGroup consumers(&pool);
            for (std::size_t c = 0; c < kConsumers; ++c) {
                consumers.run([&, p, c] {
                    sums[p].fetch_add(p * 1000 + c + 1,
                                      std::memory_order_relaxed);
                });
            }
            consumers.wait();  // helps; must not deadlock at any pool width
        });
    }
    producers.wait();

    // Sum of (p*1000 + c + 1) over c in [0, kConsumers).
    for (std::size_t p = 0; p < kProducers; ++p) {
        const std::uint64_t expected =
            kConsumers * (p * 1000) + kConsumers * (kConsumers + 1) / 2;
        EXPECT_EQ(sums[p].load(), expected) << "producer " << p;
    }

    // wait() returns before the last producer's tally is published; poll
    // stats().executed (published last) rather than reading it once.
    const std::uint64_t total = kProducers + kProducers * kConsumers;
    while (pool.stats().executed < total) std::this_thread::yield();
    EXPECT_EQ(pool.stats().executed, total);
}

// Nested parallel_for under contention: every (i, j) cell must be visited
// exactly once, and the reduction must equal the serial executor's result
// bit for bit.  Repeated to give the scheduler several chances to pick a
// different interleaving.
TEST(ScalingStress, NestedParallelForUnderContention) {
    constexpr std::size_t kOuter = 24;
    constexpr std::size_t kInner = 48;

    auto checksum = [&](sched::Executor& ex) {
        std::vector<std::atomic<int>> visits(kOuter * kInner);
        sched::parallel_for(ex, kOuter, [&](std::size_t i) {
            sched::parallel_for(ex, kInner, [&](std::size_t j) {
                visits[i * kInner + j].fetch_add(1, std::memory_order_relaxed);
            });
        });
        std::uint64_t sum = 0;
        for (std::size_t cell = 0; cell < visits.size(); ++cell) {
            EXPECT_EQ(visits[cell].load(), 1) << "cell " << cell;
            sum += (cell * 2654435761u) ^ visits[cell].load();
        }
        return sum;
    };

    sched::Executor serial(1);
    const std::uint64_t want = checksum(serial);
    for (int round = 0; round < 3; ++round) {
        sched::Executor ex(4);
        EXPECT_EQ(checksum(ex), want) << "round " << round;
    }
}

// The work-optimality property behind the corpus-scaling fix: find_first
// dispenses indices in ascending order from a shared counter, so with a
// hit at a low index the search only ever *enters* (a) the misses below
// the hit, (b) the hit itself, and (c) at most one in-flight probe per
// lane above it.  The pre-fix per-index LIFO submission entered indices
// highest-first and burned all n probes before reaching the hit.
TEST(ScalingStress, FindFirstDispensesAscendingAndStopsEarly) {
    constexpr std::size_t kN = 64;
    constexpr std::size_t kHit = 3;

    sched::Executor ex(2);  // 2 workers + the helping caller = 3 lanes
    std::vector<std::atomic<bool>> entered(kN);

    const auto result = sched::find_first<int>(
        ex, kN,
        [&](std::size_t i, const sched::CancellationToken& token)
            -> std::optional<int> {
            entered[i].store(true, std::memory_order_relaxed);
            if (i < kHit) return std::nullopt;  // fast miss below the hit
            if (i == kHit) {
                // Slow hit: give the other lanes time to run ahead and
                // park on their tokens.
                std::this_thread::sleep_for(std::chrono::milliseconds(20));
                return static_cast<int>(i);
            }
            // Above the hit: simulate an exhaustive search that only ends
            // when cancelled (bounded so a cancellation bug fails the test
            // instead of hanging it).
            const auto deadline =
                std::chrono::steady_clock::now() + std::chrono::seconds(5);
            while (!token.cancelled() &&
                   std::chrono::steady_clock::now() < deadline) {
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
            EXPECT_TRUE(token.cancelled()) << "probe " << i << " never cancelled";
            return std::nullopt;
        });

    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->index, kHit);
    EXPECT_EQ(result->value, static_cast<int>(kHit));

    std::size_t entered_count = 0;
    std::size_t entered_max = 0;
    for (std::size_t i = 0; i < kN; ++i) {
        if (!entered[i].load(std::memory_order_relaxed)) continue;
        ++entered_count;
        entered_max = i;
    }
    // Misses below the hit + the hit + one in-flight probe per lane, with
    // slack for a lane that squeezed in one extra dispense before the
    // winner published.  Far below the pre-fix behaviour (all 64 entered,
    // highest first).
    EXPECT_LE(entered_count, 12u) << "find_first over-probed";
    EXPECT_LE(entered_max, 12u) << "find_first probed far above the hit";
    for (std::size_t i = 0; i <= kHit; ++i)
        EXPECT_TRUE(entered[i].load()) << "serial frontier index " << i
                                       << " was skipped";
}

// ------------------------------------------------- counter shard sizing

// Counter shards are sized to the thread population (satellite of the
// scaling fix: a 4-worker pool gets 5 shards, not a hardcoded 16) and
// each shard owns a full cache line so two workers never false-share.
TEST(ScalingShards, CounterShardsTrackPoolWidthAndStayLineAligned) {
    // Layout: one 64-byte line per shard, and the whole Counter is
    // line-aligned wherever it is placed (compile-time static_asserts in
    // obs/metrics.hpp pin the same facts; this keeps them exercised at
    // runtime too).
    EXPECT_EQ(sizeof(obs::Counter), 64u * obs::detail::kMaxCounterShards);
    EXPECT_EQ(alignof(obs::Counter), 64u);
    obs::Counter local;
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(&local) % 64u, 0u);
    local.add(7);
    local.add(35);
    EXPECT_EQ(local.value(), 42u);

    // Pool construction raises the effective shard count to workers + 1
    // (the helping caller is a writer too), clamped to capacity.
    const unsigned before = obs::detail::counter_shards();
    EXPECT_GE(before, 1u);
    EXPECT_LE(before, obs::detail::kMaxCounterShards);
    {
        sched::WorkStealingPool pool(6);
        EXPECT_GE(obs::detail::counter_shards(),
                  std::min(7u, obs::detail::kMaxCounterShards));
    }

    // The count never shrinks (threads keep their claimed slots) and a
    // runaway request clamps to the compile-time capacity.
    obs::detail::raise_counter_shards(1);
    EXPECT_GE(obs::detail::counter_shards(), before);
    obs::detail::raise_counter_shards(1u << 20);
    EXPECT_EQ(obs::detail::counter_shards(), obs::detail::kMaxCounterShards);
}

// --------------------------------------- corpus determinism across jobs

struct RunResult {
    int exit_code = -1;
    std::string output;  ///< stdout + stderr, interleaved
};

RunResult run(const std::string& command) {
    RunResult r;
    FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
    if (!pipe) return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, pipe)) > 0)
        r.output.append(buf, n);
    const int status = ::pclose(pipe);
    r.exit_code = (status >= 0 && WIFEXITED(status)) ? WEXITSTATUS(status) : -1;
    return r;
}

/// stgbatch verdict lines minus the wall-clock "(N s)" suffixes and the
/// timing summary, *sorted*: at --jobs > 1 models report in completion
/// order, so line order is schedule-dependent but line content is not.
std::vector<std::string> sorted_verdict_lines(const std::string& text) {
    std::vector<std::string> lines;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos) end = text.size();
        std::string line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.empty()) continue;
        if (line.rfind("stgbatch:", 0) == 0) continue;  // summary: time, jobs
        if (line.rfind("report written to", 0) == 0)
            continue;  // carries the per-jobs report path
        if (line.size() > 1 && line[0] == '[') {
            // "[3/9] model ..." progress index is completion-order, drop it.
            const auto close = line.find("] ");
            if (close != std::string::npos) line.erase(0, close + 2);
        }
        const auto paren = line.rfind("  (");
        if (paren != std::string::npos && line.back() == ')')
            line.erase(paren);  // per-model "  (0.123 s)"
        lines.push_back(std::move(line));
    }
    std::sort(lines.begin(), lines.end());
    return lines;
}

std::string canonical_report(const std::string& path) {
    const auto bytes = cache::read_file_bytes(path);
    EXPECT_TRUE(bytes.has_value()) << path;
    if (!bytes) return {};
    const auto parsed = obs::Json::parse(*bytes);
    EXPECT_TRUE(parsed.has_value()) << path;
    if (!parsed) return {};
    return test::canonical_json(*parsed);
}

// The end-to-end gate: real stgbatch invocations over a corpus subset must
// produce byte-identical verdicts and canonical reports at every jobs
// value.  Each run gets its own cold cache directory (overriding any
// ambient $STGCC_CACHE_DIR) so every jobs value does the full verification
// work instead of replaying the first run's rows.
TEST(ScalingDeterminism, CorpusReportsByteIdenticalAcrossJobsMatrix) {
    const fs::path work =
        fs::path(::testing::TempDir()) / "stgcc_scaling_matrix";
    fs::remove_all(work);
    fs::create_directories(work);

    // Mix of verdicts and workloads: a CSC violation (vme), its resolved
    // variant, marked-graph style corpus entries, and two conflict-free
    // models that exercise the exhaustive per-signal CSC fan-out.
    const char* models[] = {"vme.g",     "vme_csc.g",      "johnson4.g",
                            "par4.g",    "seq4.g",         "ring.g",
                            "dup_mod_a.g", "cf_sym_a_csc.g", "cf_sym_b_csc.g"};
    const fs::path manifest = work / "manifest.txt";
    {
        std::string text = "# scaling matrix subset\n";
        for (const char* m : models)
            text += (fs::path(STGCC_MODELS_DIR) / m).string() + "\n";
        std::ofstream(manifest) << text;
    }

    const unsigned jobs_matrix[] = {1, 2, 4, 8};
    int want_exit = -2;
    std::vector<std::string> want_lines;
    std::string want_report;
    for (unsigned jobs : jobs_matrix) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        const fs::path json = work / ("report_j" + std::to_string(jobs) +
                                      ".json");
        const fs::path cache = work / ("cache_j" + std::to_string(jobs));
        const RunResult r =
            run(std::string(STGCC_STGBATCH_BIN) + " " + manifest.string() +
                " --jobs " + std::to_string(jobs) + " --cache-dir " +
                cache.string() + " --json " + json.string());
        ASSERT_EQ(r.exit_code, 1) << r.output;  // vme.g has a CSC conflict
        const auto lines = sorted_verdict_lines(r.output);
        const std::string report = canonical_report(json.string());
        ASSERT_FALSE(report.empty());
        if (want_exit == -2) {
            want_exit = r.exit_code;
            want_lines = lines;
            want_report = report;
            continue;
        }
        EXPECT_EQ(r.exit_code, want_exit);
        EXPECT_EQ(lines, want_lines);
        EXPECT_EQ(report, want_report);
    }
    fs::remove_all(work);
}

}  // namespace
}  // namespace stgcc
