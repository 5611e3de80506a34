// stgprof tests: the trace round trip is byte-stable, profile_trace
// recovers self times / queue delays from a hand-checked fixture, the
// profile report and --compare triage match committed goldens, and the
// stgprof binary honours its exit-code contract.
//
// The fixtures live in tests/golden/:
//   stgprof_trace.json    a 3-thread trace in the Tracer's exact byte
//                         format (nested spans + two flow links)
//   stgprof_batch_a.json  a 15-model stgbatch --jobs 2 report: 16 s busy
//                         over a 10 s wall (80% efficient), critical path
//                         9 s (speedup bound 1.78x)
//   stgprof_batch_b.json  the same corpus with a 12 s wall and vme.g 3x
//                         slower -> --compare lists vme.g and ring.g and
//                         an efficiency drop to 66.7%
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
#include "test_util.hpp"

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

TEST(ProfileReport, MatchesGoldenOnEngineeredFixture) {
    obs::InputSet in;
    std::string error;
    ASSERT_TRUE(obs::load_input(kGolden + "/stgprof_batch_a.json", in, error))
        << error;
    // The report echoes input paths; pin to the basename so the golden is
    // independent of the checkout location.
    in.batch_file = "stgprof_batch_a.json";
    const std::string report = obs::profile_report(in);
    EXPECT_EQ(report, read_file(kGolden + "/stgprof_report.txt"));
    // The load-bearing figures, asserted directly so a regenerated golden
    // cannot silently drop them.
    EXPECT_NE(report.find("efficiency         80.0%"), std::string::npos);
    EXPECT_NE(report.find("speedup bound      1.78x"), std::string::npos);
    EXPECT_NE(report.find("p90 550.000 ms"), std::string::npos);
    // The profile states facts; it does not classify the makespan.
    EXPECT_EQ(report.find("bottleneck"), std::string::npos);
}

TEST(CompareReports, MatchesGoldenWithRatiosAndEfficiencyDrift) {
    const auto a =
        obs::Json::parse(read_file(kGolden + "/stgprof_batch_a.json"));
    const auto b =
        obs::Json::parse(read_file(kGolden + "/stgprof_batch_b.json"));
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    const std::string triage = obs::compare_reports(*a, *b);
    EXPECT_EQ(triage, read_file(kGolden + "/stgprof_compare.txt"));
    EXPECT_NE(triage.find("3.00x"), std::string::npos);  // vme.g 0.5 -> 1.5
    EXPECT_NE(triage.find("efficiency: A 80.0% -> B 66.7%"),
              std::string::npos);
    EXPECT_EQ(triage.find("dominant"), std::string::npos);
}

TEST(CompareReports, SelfCompareFindsNothing) {
    const auto a =
        obs::Json::parse(read_file(kGolden + "/stgprof_batch_a.json"));
    ASSERT_TRUE(a.has_value());
    const std::string triage = obs::compare_reports(*a, *a);
    EXPECT_NE(triage.find("(none)"), std::string::npos);
    EXPECT_NE(triage.find("efficiency: A 80.0% -> B 80.0%"),
              std::string::npos);
}

// --------------------------------------------------------------- binary

TEST(StgprofBinary, ReportsOnMixedInputsAndExitsZero) {
    const auto r = run(kStgprof + " " + kGolden + "/stgprof_trace.json " +
                       kGolden + "/stgprof_batch_a.json");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("parallel efficiency"), std::string::npos);
    EXPECT_NE(r.output.find("critical path"), std::string::npos);
    EXPECT_NE(r.output.find("queue delay (submit -> start)"),
              std::string::npos);
    EXPECT_NE(r.output.find("top spans by self time"), std::string::npos);
    EXPECT_EQ(r.output.find("bottleneck"), std::string::npos);
}

TEST(StgprofBinary, UsageAndInputErrorsExitTwo) {
    EXPECT_EQ(run(kStgprof).exit_code, 2);
    EXPECT_EQ(run(kStgprof + " /nonexistent.json").exit_code, 2);
    EXPECT_EQ(run(kStgprof + " --bogus-flag x").exit_code, 2);
    // A NaN threshold would make --compare flag no regression at all.
    for (const char* bad : {"nan", "inf"}) {
        SCOPED_TRACE(bad);
        const auto r = run(kStgprof + " --compare " + kGolden +
                           "/stgprof_batch_a.json " + kGolden +
                           "/stgprof_batch_b.json --threshold " + bad);
        EXPECT_EQ(r.exit_code, 2);
        EXPECT_NE(r.output.find("bad --threshold value"), std::string::npos)
            << r.output;
    }
}

TEST(StgprofBinary, FlagsOfTheOtherModeAreUsageErrors) {
    // --reemit needs a trace, which --compare never reads, and --threshold
    // only steers --compare: either would be dropped without a word.
    fs::path out = test::temp_path("stgprof_compare_reemit");
    fs::remove(out);
    const auto reemit = run(kStgprof + " --compare " + kGolden +
                            "/stgprof_batch_a.json " + kGolden +
                            "/stgprof_batch_b.json --reemit " + out.string());
    EXPECT_EQ(reemit.exit_code, 2);
    EXPECT_NE(reemit.output.find("--reemit"), std::string::npos) << reemit.output;
    EXPECT_FALSE(fs::exists(out));
    const auto threshold = run(kStgprof + " " + kGolden +
                               "/stgprof_trace.json --threshold 2");
    EXPECT_EQ(threshold.exit_code, 2);
    EXPECT_NE(threshold.output.find("--threshold"), std::string::npos)
        << threshold.output;
}

TEST(StgprofBinary, ReemitWritesByteStableTrace) {
    fs::path out = test::temp_path("stgprof_reemit");
    out += ".json";
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
