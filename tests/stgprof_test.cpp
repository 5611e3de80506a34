// stgprof tests: the trace round trip is byte-stable, profile_trace
// recovers self times / queue delays from a hand-checked fixture, the
// bottleneck report and --compare triage match committed goldens, and the
// stgprof binary honours its exit-code contract.
//
// The fixtures live in tests/golden/:
//   stgprof_trace.json    a 3-thread trace in the Tracer's exact byte
//                         format (nested spans + two flow links)
//   stgprof_batch_a.json  a 15-model stgbatch --jobs 2 report whose
//                         scheduler tallies decompose exactly (ideal 8 s
//                         of a 10 s wall; serialization 10%, queue delay
//                         7%, steal 3%) -> dominant: serialization
//   stgprof_batch_b.json  the same corpus with a queue-delay backlog
//                         (wall 12 s, vme.g 3x slower) -> --compare names
//                         queue delay as the regression contributor
//   stgprof_report.txt    golden `stgprof stgprof_batch_a.json` output
//   stgprof_compare.txt   golden `stgprof --compare A B` output
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "cache/result_cache.hpp"
#include "obs/profile.hpp"

namespace stgcc {
namespace {

namespace fs = std::filesystem;

const std::string kGolden = STGCC_GOLDEN_DIR;
const std::string kStgprof = STGCC_STGPROF_BIN;

std::string read_file(const std::string& path) {
    const auto bytes = cache::read_file_bytes(path);
    EXPECT_TRUE(bytes.has_value()) << path;
    return bytes.value_or(std::string{});
}

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

// ------------------------------------------------------------- quantiles

TEST(SampleQuantile, EmptyIsZero) {
    EXPECT_EQ(obs::sample_quantile({}, 0.5), 0.0);
}

TEST(SampleQuantile, SingleSampleForEveryQ) {
    EXPECT_EQ(obs::sample_quantile({7.0}, 0.0), 7.0);
    EXPECT_EQ(obs::sample_quantile({7.0}, 0.5), 7.0);
    EXPECT_EQ(obs::sample_quantile({7.0}, 1.0), 7.0);
}

TEST(SampleQuantile, LinearInterpolationBetweenOrderStatistics) {
    const std::vector<double> s = {40.0, 10.0, 20.0, 30.0};  // unsorted input
    EXPECT_DOUBLE_EQ(obs::sample_quantile(s, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(obs::sample_quantile(s, 0.5), 25.0);
    EXPECT_DOUBLE_EQ(obs::sample_quantile(s, 1.0), 40.0);
    // pos = 0.9 * 3 = 2.7 -> 30 + 0.7 * (40 - 30)
    EXPECT_NEAR(obs::sample_quantile(s, 0.9), 37.0, 1e-9);
}

TEST(SampleQuantile, QIsClamped) {
    const std::vector<double> s = {1.0, 2.0};
    EXPECT_DOUBLE_EQ(obs::sample_quantile(s, -1.0), 1.0);
    EXPECT_DOUBLE_EQ(obs::sample_quantile(s, 2.0), 2.0);
}

// ------------------------------------------------------------ round trip

TEST(TraceRoundTrip, FixtureReemitsByteForByte) {
    for (const char* name : {"/stgprof_trace.json", "/obs_trace.json"}) {
        const std::string raw = read_file(kGolden + name);
        ASSERT_FALSE(raw.empty()) << name;
        const auto trace = obs::parse_chrome_trace(raw);
        ASSERT_TRUE(trace.has_value()) << name;
        EXPECT_EQ(obs::to_chrome_json(*trace), raw) << name;
    }
}

TEST(TraceRoundTrip, ParseEmitParseIsIdentity) {
    const std::string raw = read_file(kGolden + "/stgprof_trace.json");
    const auto once = obs::parse_chrome_trace(raw);
    ASSERT_TRUE(once.has_value());
    const std::string emitted = obs::to_chrome_json(*once);
    const auto twice = obs::parse_chrome_trace(emitted);
    ASSERT_TRUE(twice.has_value());
    EXPECT_EQ(obs::to_chrome_json(*twice), emitted);
}

TEST(TraceRoundTrip, MalformedInputsRejected) {
    EXPECT_FALSE(obs::parse_chrome_trace("not json").has_value());
    EXPECT_FALSE(obs::parse_chrome_trace("{}").has_value());
    EXPECT_FALSE(
        obs::parse_chrome_trace("{\"traceEvents\":42}").has_value());
}

// --------------------------------------------------------- trace profile

// Hand-checked numbers for stgprof_trace.json: tid 1 runs verify (1000 us)
// with unfold (200 us) nested; worker tid 2 runs solve.csc (700 us) with
// compat.solve (600 us) nested; worker tid 3 runs solve.normalcy (500 us).
// Flow 1 is queued 245 -> 250 (5 us), flow 2 is queued 246 -> 260 (14 us).
TEST(ProfileTrace, RecoversSelfTimesBusyAndQueueDelay) {
    const auto trace =
        obs::parse_chrome_trace(read_file(kGolden + "/stgprof_trace.json"));
    ASSERT_TRUE(trace.has_value());
    const obs::TraceProfile p = obs::profile_trace(*trace);

    EXPECT_EQ(p.threads, 3u);
    EXPECT_EQ(p.workers, 2u);
    EXPECT_DOUBLE_EQ(p.wall_us, 1000.0);
    EXPECT_DOUBLE_EQ(p.busy_us, 1000.0 + 700.0 + 500.0);

    ASSERT_EQ(p.spans.size(), 5u);  // sorted by self time, descending
    EXPECT_EQ(p.spans[0].name, "verify");
    EXPECT_DOUBLE_EQ(p.spans[0].self_us, 800.0);
    EXPECT_DOUBLE_EQ(p.spans[0].total_us, 1000.0);
    EXPECT_EQ(p.spans[1].name, "compat.solve");
    EXPECT_DOUBLE_EQ(p.spans[1].self_us, 600.0);
    EXPECT_EQ(p.spans[2].name, "solve.normalcy");
    EXPECT_DOUBLE_EQ(p.spans[2].self_us, 500.0);
    EXPECT_EQ(p.spans[3].name, "unfold");
    EXPECT_DOUBLE_EQ(p.spans[3].self_us, 200.0);
    EXPECT_EQ(p.spans[4].name, "solve.csc");
    EXPECT_DOUBLE_EQ(p.spans[4].self_us, 100.0);
    EXPECT_EQ(p.spans[4].count, 1u);

    EXPECT_EQ(p.queue_delay.samples, 2u);
    EXPECT_DOUBLE_EQ(p.queue_delay.mean_us, 9.5);
    EXPECT_DOUBLE_EQ(p.queue_delay.max_us, 14.0);
}

// ---------------------------------------------------------- golden report

TEST(BottleneckReport, MatchesGoldenOnEngineeredFixture) {
    obs::InputSet in;
    std::string error;
    ASSERT_TRUE(obs::load_input(kGolden + "/stgprof_batch_a.json", in, error))
        << error;
    // The report echoes input paths; pin to the basename so the golden is
    // independent of the checkout location.
    in.batch_file = "stgprof_batch_a.json";
    const std::string report = obs::bottleneck_report(in);
    EXPECT_EQ(report, read_file(kGolden + "/stgprof_report.txt"));
    // The load-bearing conclusions, asserted directly so a regenerated
    // golden cannot silently drop them.
    EXPECT_NE(report.find("dominant bottleneck: serialization"),
              std::string::npos);
    EXPECT_NE(report.find("efficiency         80.0%"), std::string::npos);
}

TEST(CompareReports, MatchesGoldenAndNamesQueueDelay) {
    const auto a =
        obs::Json::parse(read_file(kGolden + "/stgprof_batch_a.json"));
    const auto b =
        obs::Json::parse(read_file(kGolden + "/stgprof_batch_b.json"));
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    const std::string triage = obs::compare_reports(*a, *b);
    EXPECT_EQ(triage, read_file(kGolden + "/stgprof_compare.txt"));
    EXPECT_NE(triage.find("dominant regression contributor: queue delay"),
              std::string::npos);
    EXPECT_NE(triage.find("3.00x"), std::string::npos);  // vme.g 0.5 -> 1.5
}

TEST(CompareReports, SelfCompareFindsNothing) {
    const auto a =
        obs::Json::parse(read_file(kGolden + "/stgprof_batch_a.json"));
    ASSERT_TRUE(a.has_value());
    const std::string triage = obs::compare_reports(*a, *a);
    EXPECT_NE(triage.find("(none)"), std::string::npos);
    EXPECT_NE(triage.find("dominant regression contributor: none"),
              std::string::npos);
}

// --------------------------------------------------------------- binary

TEST(StgprofBinary, ReportsOnMixedInputsAndExitsZero) {
    const auto r = run(kStgprof + " " + kGolden + "/stgprof_trace.json " +
                       kGolden + "/stgprof_batch_a.json");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("bottlenecks"), std::string::npos);
    EXPECT_NE(r.output.find("dominant bottleneck:"), std::string::npos);
    EXPECT_NE(r.output.find("top spans by self time"), std::string::npos);
}

TEST(StgprofBinary, UsageAndInputErrorsExitTwo) {
    EXPECT_EQ(run(kStgprof).exit_code, 2);
    EXPECT_EQ(run(kStgprof + " /nonexistent.json").exit_code, 2);
    EXPECT_EQ(run(kStgprof + " --bogus-flag x").exit_code, 2);
}

TEST(StgprofBinary, ReemitWritesByteStableTrace) {
    const fs::path out = fs::path(::testing::TempDir()) / "stgprof_reemit.json";
    fs::remove(out);
    const auto r = run(kStgprof + " " + kGolden + "/stgprof_trace.json" +
                       " --reemit " + out.string());
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_EQ(read_file(out.string()),
              read_file(kGolden + "/stgprof_trace.json"));
    fs::remove(out);
}

TEST(StgprofBinary, CompareExitsZero) {
    const auto r = run(kStgprof + " --compare " + kGolden +
                       "/stgprof_batch_a.json " + kGolden +
                       "/stgprof_batch_b.json");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("regression triage"), std::string::npos);
}

}  // namespace
}  // namespace stgcc
