// Live-telemetry tests (docs/OBSERVABILITY.md): Prometheus text exposition
// (byte-stable golden on a synthetic snapshot, global-registry smoke with
// cumulative-bucket monotonicity), the RollingWindow rate/quantile
// aggregator under an injected clock (window edges, slot reclamation at
// ring wrap), the JSONL event log (level filtering, parseable records,
// size rotation, append-resume) and the trace-id / build-info helpers the
// service stack shares.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "obs/build_info.hpp"
#include "obs/eventlog.hpp"
#include "obs/expo.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace stgcc {
namespace {

namespace fs = std::filesystem;

constexpr std::uint64_t kSecond = 1'000'000'000u;

// ----------------------------------------------------- Prometheus text

TEST(PrometheusExpo, NameSanitisation) {
    EXPECT_EQ(obs::prometheus_name("stgcc", "svc.check_ns"),
              "stgcc_svc_check_ns");
    EXPECT_EQ(obs::prometheus_name("stgcc", "a-b/c d"), "stgcc_a_b_c_d");
    EXPECT_EQ(obs::prometheus_name("", "svc.requests"), "svc_requests");
}

TEST(PrometheusExpo, GoldenSnapshotIsByteStable) {
    // A hand-built Registry::to_json() shape: two counters (one zero), a
    // gauge, and a histogram with three occupied log2 buckets.  The
    // expected text pins the exposition format byte for byte -- counter
    // `_total` suffixes, cumulative buckets closed by +Inf, `_sum`/`_count`
    // and the companion summary family.
    obs::Json hist = obs::Json::object()
                         .set("count", std::uint64_t{3})
                         .set("sum", std::uint64_t{14})
                         .set("p50", 2.5)
                         .set("p90", 7.3)
                         .set("p99", 7.93);
    obs::Json buckets = obs::Json::array();
    buckets.push(obs::Json::object()
                     .set("le", std::uint64_t{1})
                     .set("count", std::uint64_t{1}));
    buckets.push(obs::Json::object()
                     .set("le", std::uint64_t{3})
                     .set("count", std::uint64_t{1}));
    buckets.push(obs::Json::object()
                     .set("le", std::uint64_t{7})
                     .set("count", std::uint64_t{1}));
    hist.set("buckets", std::move(buckets));
    const obs::Json snapshot =
        obs::Json::object()
            .set("counters", obs::Json::object()
                                 .set("svc.requests", std::uint64_t{7})
                                 .set("unfold.events", std::uint64_t{0}))
            .set("gauges",
                 obs::Json::object().set("mem.rss_bytes", std::int64_t{4096}))
            .set("histograms",
                 obs::Json::object().set("svc.check_ns", std::move(hist)));

    const char* expected =
        "# TYPE stgcc_svc_requests_total counter\n"
        "stgcc_svc_requests_total 7\n"
        "# TYPE stgcc_unfold_events_total counter\n"
        "stgcc_unfold_events_total 0\n"
        "# TYPE stgcc_mem_rss_bytes gauge\n"
        "stgcc_mem_rss_bytes 4096\n"
        "# TYPE stgcc_svc_check_ns histogram\n"
        "stgcc_svc_check_ns_bucket{le=\"1\"} 1\n"
        "stgcc_svc_check_ns_bucket{le=\"3\"} 2\n"
        "stgcc_svc_check_ns_bucket{le=\"7\"} 3\n"
        "stgcc_svc_check_ns_bucket{le=\"+Inf\"} 3\n"
        "stgcc_svc_check_ns_sum 14\n"
        "stgcc_svc_check_ns_count 3\n"
        "# TYPE stgcc_svc_check_ns_summary summary\n"
        "stgcc_svc_check_ns_summary{quantile=\"0.5\"} 2.5\n"
        "stgcc_svc_check_ns_summary{quantile=\"0.9\"} 7.3\n"
        "stgcc_svc_check_ns_summary{quantile=\"0.99\"} 7.93\n"
        "stgcc_svc_check_ns_summary_sum 14\n"
        "stgcc_svc_check_ns_summary_count 3\n";
    EXPECT_EQ(obs::prometheus_text(snapshot), expected);
    // Rendering the identical snapshot again must be byte-identical.
    EXPECT_EQ(obs::prometheus_text(snapshot), obs::prometheus_text(snapshot));
}

TEST(PrometheusExpo, GlobalRegistrySmokeAndBucketMonotonicity) {
    obs::counter("expo_test.smoke").add(5);
    auto& h = obs::histogram("expo_test.lat_ns");
    for (const std::uint64_t v : {0u, 1u, 3u, 100u, 100u, 5000u, 1u << 20})
        h.observe(v);
    const std::string text = obs::prometheus_text();
    EXPECT_NE(text.find("# TYPE stgcc_expo_test_smoke_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("stgcc_expo_test_smoke_total 5\n"), std::string::npos);
    EXPECT_NE(text.find("# TYPE stgcc_expo_test_lat_ns histogram\n"),
              std::string::npos);

    // Every histogram family in the scrape must have non-decreasing
    // cumulative bucket counts ending at its _count -- the same invariant
    // the CI scrape validates against a live daemon.
    std::istringstream lines(text);
    std::string line;
    std::uint64_t prev = 0;
    std::string prev_family;
    int bucket_lines = 0;
    while (std::getline(lines, line)) {
        const auto brace = line.find("_bucket{le=\"");
        if (brace == std::string::npos) continue;
        const std::string family = line.substr(0, brace);
        if (family != prev_family) {
            prev_family = family;
            prev = 0;
        }
        const auto space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        const std::uint64_t count = std::stoull(line.substr(space + 1));
        EXPECT_GE(count, prev) << line;
        prev = count;
        ++bucket_lines;
    }
    EXPECT_GT(bucket_lines, 0);
}

// -------------------------------------------------------- RollingWindow

TEST(RollingWindow, CountsSumsAndRatesPerWindow) {
    obs::RollingWindow w;
    const std::uint64_t t0 = 5 * kSecond;
    w.record(10, t0);
    w.record(20, t0 + kSecond / 2);
    w.record(30, t0 + kSecond / 2);
    EXPECT_EQ(w.count(1, t0 + kSecond / 2), 3u);
    EXPECT_EQ(w.sum(1, t0 + kSecond / 2), 60u);
    EXPECT_DOUBLE_EQ(w.rate(1, t0 + kSecond / 2), 3.0);

    // One second later the 1s window is empty but 10s still sees all three.
    const std::uint64_t t1 = t0 + kSecond;
    EXPECT_EQ(w.count(1, t1), 0u);
    EXPECT_EQ(w.count(10, t1), 3u);
    EXPECT_DOUBLE_EQ(w.rate(10, t1), 0.3);

    // Ten seconds later only the 60s window still holds them.
    const std::uint64_t t10 = t0 + 10 * kSecond;
    EXPECT_EQ(w.count(10, t10), 0u);
    EXPECT_EQ(w.count(60, t10), 3u);
    EXPECT_DOUBLE_EQ(w.rate(60, t10), 0.05);

    // Sixty seconds later everything has aged out.
    EXPECT_EQ(w.count(60, t0 + 60 * kSecond), 0u);
    // Degenerate inputs.
    EXPECT_DOUBLE_EQ(w.rate(0, t0), 0.0);
    EXPECT_EQ(w.count(0, t0), 0u);
}

TEST(RollingWindow, QuantilesTrackTheLog2Buckets) {
    obs::RollingWindow w;
    const std::uint64_t t = 100 * kSecond;
    for (int i = 0; i < 100; ++i) w.record(100, t);
    // All mass in [64, 127]; any quantile must interpolate inside it.
    for (const double q : {0.5, 0.9, 0.99}) {
        const double est = w.quantile(60, q, t);
        EXPECT_GE(est, 64.0) << q;
        EXPECT_LE(est, 127.0) << q;
    }
    EXPECT_DOUBLE_EQ(w.quantile(60, 0.5, t + 61 * kSecond), 0.0);  // empty

    obs::RollingWindow zeros;
    zeros.record(0, t);
    EXPECT_DOUBLE_EQ(zeros.quantile(60, 0.99, t), 0.0);  // bucket 0 == {0}
}

TEST(RollingWindow, RingWrapReclaimsStaleSlots) {
    obs::RollingWindow w;
    const std::uint64_t t0 = 5 * kSecond;
    w.record(10, t0);
    // 64 seconds later the same ring slot is reused; the old second must
    // not leak into any window.
    const std::uint64_t t64 = t0 + 64 * kSecond;
    w.record(20, t64);
    EXPECT_EQ(w.count(60, t64), 1u);
    EXPECT_EQ(w.sum(60, t64), 20u);
    // A window larger than the ring is clamped to the ring size.
    EXPECT_EQ(w.count(1000, t64), 1u);
}

TEST(RollingWindow, ToJsonShapeMatchesTheStatsContract) {
    obs::RollingWindow w;
    const std::uint64_t t = 7 * kSecond;
    w.record(1000, t);
    w.record(3000, t);
    const obs::Json j = w.to_json(t);
    for (const char* key :
         {"rate_1s", "rate_10s", "rate_60s", "p50", "p90", "p99"}) {
        ASSERT_NE(j.find(key), nullptr) << key;
    }
    EXPECT_DOUBLE_EQ(j.find("rate_1s")->as_double(), 2.0);
    EXPECT_GT(j.find("p50")->as_double(), 0.0);
}

// ------------------------------------------------------------- EventLog

class EventLogTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = test::test_temp_path("stgcc_eventlog_");
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    [[nodiscard]] std::string log_path() const {
        return (dir_ / "events.jsonl").string();
    }

    static std::vector<obs::Json> parse_lines(const std::string& path) {
        std::vector<obs::Json> records;
        std::ifstream in(path);
        std::string line;
        while (std::getline(in, line)) {
            auto j = obs::Json::parse(line);
            EXPECT_TRUE(j.has_value()) << line;
            if (j) records.push_back(std::move(*j));
        }
        return records;
    }

    fs::path dir_;
};

TEST_F(EventLogTest, DisabledLogDropsEverything) {
    obs::EventLog log;
    EXPECT_FALSE(log.enabled());
    EXPECT_FALSE(log.should_log(obs::LogLevel::Error));
    EXPECT_FALSE(log.write(obs::LogLevel::Error, "x", obs::Json::object()));
    EXPECT_EQ(log.records_written(), 0u);
}

TEST_F(EventLogTest, RecordsAreSelfContainedJsonLines) {
    obs::EventLog log(log_path());
    ASSERT_TRUE(log.enabled());
    EXPECT_TRUE(log.info("check.completed",
                         obs::Json::object()
                             .set("trace", "cafe0123deadbeef")
                             .set("exit", 1)));
    EXPECT_TRUE(log.write(obs::LogLevel::Warn, "check.error",
                          obs::Json::object().set("code", "model_error")));
    EXPECT_EQ(log.records_written(), 2u);

    const auto records = parse_lines(log_path());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_GT(records[0].find("ts_ms")->as_uint(), 0u);
    EXPECT_EQ(records[0].find("level")->as_string(), "info");
    EXPECT_EQ(records[0].find("event")->as_string(), "check.completed");
    EXPECT_EQ(records[0].find("trace")->as_string(), "cafe0123deadbeef");
    EXPECT_EQ(records[0].find("exit")->as_int(), 1);
    EXPECT_EQ(records[1].find("level")->as_string(), "warn");
    EXPECT_EQ(records[1].find("code")->as_string(), "model_error");
}

TEST_F(EventLogTest, LevelFilteringDropsBelowMinimum) {
    obs::EventLog log(log_path(), obs::LogLevel::Warn);
    EXPECT_FALSE(log.should_log(obs::LogLevel::Debug));
    EXPECT_FALSE(log.should_log(obs::LogLevel::Info));
    EXPECT_TRUE(log.should_log(obs::LogLevel::Warn));
    EXPECT_FALSE(log.write(obs::LogLevel::Info, "quiet", obs::Json::object()));
    EXPECT_TRUE(log.write(obs::LogLevel::Error, "loud", obs::Json::object()));
    const auto records = parse_lines(log_path());
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].find("event")->as_string(), "loud");
}

TEST_F(EventLogTest, RotatesToDotOneWhenOverMaxBytes) {
    obs::EventLog log(log_path(), obs::LogLevel::Info, 256);
    const std::string padding(64, 'x');
    for (int i = 0; i < 16; ++i)
        EXPECT_TRUE(log.info("tick", obs::Json::object()
                                         .set("i", i)
                                         .set("pad", padding)));
    EXPECT_TRUE(fs::exists(log_path()));
    ASSERT_TRUE(fs::exists(log_path() + ".1")) << "no rotation happened";
    EXPECT_LE(fs::file_size(log_path()), 256u + 200u);
    // Both the live file and the rotation parse line by line.
    const auto live = parse_lines(log_path());
    const auto old = parse_lines(log_path() + ".1");
    EXPECT_GT(live.size() + old.size(), 0u);
    for (const auto& r : live) EXPECT_EQ(r.find("event")->as_string(), "tick");
}

TEST_F(EventLogTest, ReopeningResumesTheExistingFile) {
    {
        obs::EventLog log(log_path());
        EXPECT_TRUE(log.info("first", obs::Json::object()));
    }
    {
        obs::EventLog log(log_path());
        EXPECT_TRUE(log.info("second", obs::Json::object()));
    }
    const auto records = parse_lines(log_path());
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].find("event")->as_string(), "first");
    EXPECT_EQ(records[1].find("event")->as_string(), "second");
}

TEST(EventLogLevels, NamesRoundTrip) {
    using obs::LogLevel;
    EXPECT_STREQ(obs::log_level_name(LogLevel::Debug), "debug");
    EXPECT_STREQ(obs::log_level_name(LogLevel::Info), "info");
    EXPECT_STREQ(obs::log_level_name(LogLevel::Warn), "warn");
    EXPECT_STREQ(obs::log_level_name(LogLevel::Error), "error");
    for (const auto level : {LogLevel::Debug, LogLevel::Info, LogLevel::Warn,
                             LogLevel::Error}) {
        LogLevel parsed;
        ASSERT_TRUE(obs::parse_log_level(obs::log_level_name(level), parsed));
        EXPECT_EQ(parsed, level);
    }
    LogLevel parsed;
    EXPECT_FALSE(obs::parse_log_level("verbose", parsed));
    EXPECT_FALSE(obs::parse_log_level("", parsed));
    EXPECT_FALSE(obs::parse_log_level("INFO", parsed));
}

// ------------------------------------------------------------ trace ids

TEST(TraceId, GeneratedIdsAreSixteenHexDigitsAndDistinct) {
    std::set<std::string> seen;
    for (int i = 0; i < 64; ++i) {
        const std::string id = obs::generate_trace_id();
        ASSERT_EQ(id.size(), 16u) << id;
        for (const char c : id)
            EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << id;
        EXPECT_TRUE(obs::plausible_trace_id(id));
        seen.insert(id);
    }
    // 64 draws of 64 random bits must not collide.
    EXPECT_EQ(seen.size(), 64u);
}

TEST(TraceId, PlausibilityBoundsTheAcceptedAlphabet) {
    EXPECT_TRUE(obs::plausible_trace_id("a"));
    EXPECT_TRUE(obs::plausible_trace_id("Client-Trace_1.2"));
    EXPECT_TRUE(obs::plausible_trace_id(std::string(64, 'f')));
    EXPECT_FALSE(obs::plausible_trace_id(""));
    EXPECT_FALSE(obs::plausible_trace_id(std::string(65, 'f')));
    EXPECT_FALSE(obs::plausible_trace_id("has space"));
    EXPECT_FALSE(obs::plausible_trace_id("new\nline"));
    EXPECT_FALSE(obs::plausible_trace_id("quote\""));
}

// ------------------------------------------------------------ build info

TEST(BuildInfo, EmbeddedFieldsArePresentAndStable) {
    EXPECT_FALSE(obs::build_git_describe().empty());
    EXPECT_FALSE(obs::build_compiler().empty());
    EXPECT_FALSE(obs::build_sanitize().empty());
    const obs::Json info = obs::build_info();
    for (const char* key : {"git", "compiler", "build_type", "sanitize"}) {
        const obs::Json* v = info.find(key);
        ASSERT_NE(v, nullptr) << key;
        EXPECT_EQ(v->kind(), obs::Json::Kind::String) << key;
    }
    ASSERT_NE(info.find("cache_version"), nullptr);
    EXPECT_GE(info.find("cache_version")->as_uint(), 1u);
    ASSERT_NE(info.find("report_schema"), nullptr);
    EXPECT_GE(info.find("report_schema")->as_uint(), 1u);
    // Byte-stable per binary: two snapshots render identically.
    EXPECT_EQ(obs::build_info().dump(), info.dump());
}

}  // namespace
}  // namespace stgcc
