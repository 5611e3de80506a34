// Tests for the observability subsystem (src/obs/): the ordered JSON
// builder, span tracer (nesting, Chrome-trace golden file), metrics
// registry (incl. a multi-threaded smoke test), the report envelope, and
// the disabled-instrumentation overhead contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "core/verifier.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "unfolding/unfolder.hpp"
#include "util/stopwatch.hpp"

namespace stgcc::obs {
namespace {

// Each TEST runs in its own process under gtest_discover_tests, but keep
// the fixture defensive anyway: tracing off and all global state zeroed on
// both sides of every test.
// Replace the number after every `"key":` in `json` with 0.000.
std::string mask_number(std::string json, const char* key) {
    std::string tag = "\"";
    tag.append(key).append("\":");
    for (std::size_t at = json.find(tag); at != std::string::npos;
         at = json.find(tag, at)) {
        at += tag.size();
        const std::size_t end = json.find_first_not_of("0123456789.", at);
        json.replace(at, end == std::string::npos ? end : end - at, "0.000");
    }
    return json;
}

class ObsTest : public ::testing::Test {
protected:
    void SetUp() override {
        set_enabled(false);
        Tracer::instance().clear();
        Registry::instance().reset_values();
    }
    void TearDown() override {
        set_enabled(false);
        Tracer::instance().clear();
        Registry::instance().reset_values();
    }
};

// ---------------------------------------------------------------- Json --

TEST_F(ObsTest, JsonScalarsAndEscaping) {
    EXPECT_EQ(Json().dump(), "null");
    EXPECT_EQ(Json(true).dump(), "true");
    EXPECT_EQ(Json(-7).dump(), "-7");
    EXPECT_EQ(Json(std::uint64_t{18446744073709551615ull}).dump(),
              "18446744073709551615");
    EXPECT_EQ(Json(0.5).dump(), "0.5");
    EXPECT_EQ(Json("a\"b\\c\n\t").dump(), "\"a\\\"b\\\\c\\n\\t\"");
}

TEST_F(ObsTest, JsonObjectKeepsInsertionOrder) {
    Json j = Json::object()
                 .set("zebra", 1)
                 .set("apple", Json::array().push(1).push("x"))
                 .set("mid", Json::object().set("k", false));
    EXPECT_EQ(j.dump(),
              "{\"zebra\":1,\"apple\":[1,\"x\"],\"mid\":{\"k\":false}}");
    ASSERT_NE(j.find("apple"), nullptr);
    EXPECT_EQ(j.find("apple")->size(), 2u);
    EXPECT_EQ(j.find("nope"), nullptr);
}

TEST_F(ObsTest, JsonPrettyPrint) {
    Json j = Json::object().set("a", Json::array().push(1).push(2));
    EXPECT_EQ(j.dump(2), "{\n  \"a\": [\n    1,\n    2\n  ]\n}");
}

// -------------------------------------------------------------- Tracer --

TEST_F(ObsTest, SpanNestingAndOrdering) {
    set_enabled(true);
    {
        Span a("outer");
        {
            Span b("inner1");
            b.attr("n", 1);
        }
        { Span c("inner2"); }
    }
    { Span d("sibling"); }
    auto spans = Tracer::instance().snapshot();
    ASSERT_EQ(spans.size(), 4u);
    // Buffer order is begin order.
    EXPECT_EQ(spans[0].name, "outer");
    EXPECT_EQ(spans[1].name, "inner1");
    EXPECT_EQ(spans[2].name, "inner2");
    EXPECT_EQ(spans[3].name, "sibling");
    EXPECT_EQ(spans[0].parent, kNoSpan);
    EXPECT_EQ(spans[1].parent, 0u);
    EXPECT_EQ(spans[2].parent, 0u);
    EXPECT_EQ(spans[3].parent, kNoSpan);
    EXPECT_EQ(spans[0].depth, 0u);
    EXPECT_EQ(spans[1].depth, 1u);
    EXPECT_EQ(spans[3].depth, 0u);
    for (const auto& s : spans) {
        EXPECT_FALSE(s.open);
        EXPECT_LE(s.start_ns, s.end_ns);
    }
    // Children nest inside the parent's time window.
    EXPECT_GE(spans[1].start_ns, spans[0].start_ns);
    EXPECT_LE(spans[2].end_ns, spans[0].end_ns);
    ASSERT_EQ(spans[1].attrs.size(), 1u);
    EXPECT_EQ(spans[1].attrs[0].first, "n");
}

TEST_F(ObsTest, DisabledSpanRecordsNothingButStillTimes) {
    ASSERT_FALSE(enabled());
    Span s("ghost");
    s.attr("k", 1);
    EXPECT_FALSE(s.recording());
    EXPECT_GE(s.seconds(), 0.0);
    EXPECT_EQ(Tracer::instance().num_spans(), 0u);
}

TEST_F(ObsTest, FinishIsIdempotentAndEarly) {
    set_enabled(true);
    Span s("once");
    s.finish();
    s.finish();
    EXPECT_FALSE(s.recording());
    auto spans = Tracer::instance().snapshot();
    ASSERT_EQ(spans.size(), 1u);
    EXPECT_FALSE(spans[0].open);
}

TEST_F(ObsTest, ChromeTraceMatchesGoldenFile) {
    set_enabled(true);
    {
        Span root("root");
        root.attr("model", "vme");
        {
            Span u("unfold");
            u.attr("events", 42);
        }
        {
            Span s("solve");
            s.attr("found", false);
        }
    }
    set_enabled(false);
    std::string got = Tracer::instance().chrome_trace_json();
    // Timestamps vary run to run; normalise them before diffing.
    got = mask_number(mask_number(got, "ts"), "dur");

    const std::string golden_path =
        std::string(STGCC_GOLDEN_DIR) + "/obs_trace.json";
    std::ifstream in(golden_path);
    ASSERT_TRUE(in) << "missing golden file " << golden_path;
    std::stringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str());
}

TEST_F(ObsTest, VerifyPipelineEmitsNestedPhaseSpans) {
    set_enabled(true);
    auto model = stg::bench::vme_bus();
    (void)core::verify_stg(model);
    auto spans = Tracer::instance().snapshot();
    auto find = [&](const char* name) -> const SpanRecord* {
        auto it = std::find_if(spans.begin(), spans.end(),
                               [&](const SpanRecord& s) { return s.name == name; });
        return it == spans.end() ? nullptr : &*it;
    };
    const SpanRecord* verify = find("verify");
    ASSERT_NE(verify, nullptr);
    for (const char* phase :
         {"unfold", "encode", "solve.usc", "solve.csc", "solve.normalcy"}) {
        const SpanRecord* s = find(phase);
        ASSERT_NE(s, nullptr) << phase;
        EXPECT_FALSE(s->open) << phase;
    }
    // The unfold phase is nested (transitively) under verify.
    const SpanRecord* unfold = find("unfold");
    std::uint32_t p = unfold->parent;
    bool under_verify = false;
    while (p != kNoSpan) {
        if (&spans[p] == verify) under_verify = true;
        p = spans[p].parent;
    }
    EXPECT_TRUE(under_verify);
    // The compat solver ran and recorded per-instance spans.
    EXPECT_NE(find("compat.solve"), nullptr);
}

// ------------------------------------------------------------- Metrics --

TEST_F(ObsTest, CounterGaugeHistogramBasics) {
    Counter& c = counter("t.counter");
    c.add();
    c.add(4);
    EXPECT_EQ(c.value(), 5u);
    // Same name returns the same object.
    EXPECT_EQ(&c, &counter("t.counter"));

    Gauge& g = gauge("t.gauge");
    g.set(7);
    g.record_max(3);
    EXPECT_EQ(g.value(), 7);
    g.record_max(11);
    EXPECT_EQ(g.value(), 11);

    Histogram& h = histogram("t.hist");
    h.observe(0);
    h.observe(1);
    h.observe(2);
    h.observe(3);
    h.observe(1024);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 1030u);
    EXPECT_EQ(h.bucket(0), 1u);  // {0}
    EXPECT_EQ(h.bucket(1), 1u);  // {1}
    EXPECT_EQ(h.bucket(2), 2u);  // {2,3}
    EXPECT_EQ(h.bucket(11), 1u);  // [1024, 2048)
}

TEST_F(ObsTest, HistogramBucketMath) {
    EXPECT_EQ(Histogram::bucket_of(0), 0);
    EXPECT_EQ(Histogram::bucket_of(1), 1);
    EXPECT_EQ(Histogram::bucket_of(2), 2);
    EXPECT_EQ(Histogram::bucket_of(3), 2);
    EXPECT_EQ(Histogram::bucket_of(4), 3);
    EXPECT_EQ(Histogram::bucket_of(~std::uint64_t{0}), 64);
    EXPECT_EQ(Histogram::bucket_limit(0), 0u);
    EXPECT_EQ(Histogram::bucket_limit(1), 1u);
    EXPECT_EQ(Histogram::bucket_limit(3), 7u);
}

TEST_F(ObsTest, HistogramQuantiles) {
    Histogram& empty = histogram("q.empty");
    EXPECT_EQ(empty.quantile(0.5), 0.0);

    // Bucket 0 holds exactly {0}: any quantile landing there is 0.
    Histogram& zeros = histogram("q.zeros");
    for (int i = 0; i < 5; ++i) zeros.observe(0);
    zeros.observe(1);
    EXPECT_EQ(zeros.quantile(0.5), 0.0);
    // p99 lands on the single 1-sample; bucket 1 is [1, 1].
    EXPECT_DOUBLE_EQ(zeros.quantile(0.99), 1.0);

    // Four samples in one bucket [1024, 2047]: the median interpolates to
    // the bucket midpoint.
    Histogram& one = histogram("q.one");
    for (int i = 0; i < 4; ++i) one.observe(1024);
    EXPECT_DOUBLE_EQ(one.quantile(0.5), 1024.0 + 0.5 * 1023.0);
    // q is clamped to [0, 1].
    EXPECT_EQ(one.quantile(-1.0), one.quantile(0.0));
    EXPECT_EQ(one.quantile(2.0), one.quantile(1.0));

    // Quantiles are monotone in q and bounded by the log2 bucket width
    // (relative error <= 2x).
    Histogram& mixed = histogram("q.mixed");
    for (std::uint64_t v : {3u, 9u, 80u, 700u, 6000u, 50000u})
        mixed.observe(v);
    double prev = 0.0;
    for (double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0}) {
        const double val = mixed.quantile(q);
        EXPECT_GE(val, prev) << q;
        prev = val;
    }
    const double p99 = mixed.quantile(0.99);
    EXPECT_GE(p99, 50000.0 / 2.0);
    EXPECT_LE(p99, 2.0 * 50000.0);
}

TEST_F(ObsTest, RegistryJsonAndReset) {
    counter("r.c").add(2);
    gauge("r.g").set(-3);
    histogram("r.h").observe(5);
    Json j = Registry::instance().to_json();
    const Json* cs = j.find("counters");
    ASSERT_NE(cs, nullptr);
    ASSERT_NE(cs->find("r.c"), nullptr);
    EXPECT_EQ(cs->find("r.c")->dump(), "2");
    const Json* h = j.find("histograms");
    ASSERT_NE(h, nullptr);
    const Json* rh = h->find("r.h");
    ASSERT_NE(rh, nullptr);
    EXPECT_EQ(rh->find("count")->dump(), "1");
    EXPECT_EQ(rh->find("sum")->dump(), "5");
    // Quantile snapshot travels with every histogram export (consumed by
    // stgprof's queue-delay table when no trace is present).
    ASSERT_NE(rh->find("p50"), nullptr);
    ASSERT_NE(rh->find("p90"), nullptr);
    ASSERT_NE(rh->find("p99"), nullptr);
    EXPECT_GE(rh->find("p99")->as_double(), rh->find("p50")->as_double());

    const std::string text = Registry::instance().text_summary();
    EXPECT_NE(text.find("r.c"), std::string::npos);
    EXPECT_NE(text.find("r.g"), std::string::npos);

    Registry::instance().reset_values();
    EXPECT_EQ(counter("r.c").value(), 0u);
    EXPECT_EQ(gauge("r.g").value(), 0);
    EXPECT_EQ(histogram("r.h").count(), 0u);
}

TEST_F(ObsTest, MetricsConcurrencySmoke) {
    Counter& c = counter("mt.counter");
    Gauge& g = gauge("mt.gauge");
    Histogram& h = histogram("mt.hist");
    constexpr int kThreads = 8;
    constexpr int kIters = 20000;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t)
        ts.emplace_back([&, t] {
            for (int i = 0; i < kIters; ++i) {
                c.add();
                g.record_max(t * kIters + i);
                h.observe(static_cast<std::uint64_t>(i));
            }
        });
    for (auto& t : ts) t.join();
    EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_EQ(g.value(), (kThreads - 1) * kIters + kIters - 1);
    EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kIters);
}

// The solver's prune counters are published once per solve whether or not
// a trace is recording, and recording one changes none of them.
TEST_F(ObsTest, SolverCountersRecordWithoutTracing) {
    const stg::Stg model = stg::load_astg_file(
        std::string(STGCC_MODELS_DIR) + "/cf_sym_c_csc.g");
    core::VerifyOptions opts;
    opts.jobs = 1;
    Counter& signal = counter("compat.signal_prunes");
    Counter& closure = counter("compat.closure_prunes");
    Counter& side = counter("compat.side_prunes");
    auto prunes = [&] {
        const std::uint64_t s0 = signal.value(), c0 = closure.value(),
                            d0 = side.value();
        (void)core::verify_stg(model, opts);
        return std::tuple{signal.value() - s0, closure.value() - c0,
                          side.value() - d0};
    };

    ASSERT_FALSE(enabled());
    const auto untraced = prunes();
    EXPECT_EQ(Tracer::instance().num_spans(), 0u);
    EXPECT_GT(std::get<0>(untraced), 0u);
    EXPECT_GT(std::get<1>(untraced), 0u);
    EXPECT_GT(std::get<2>(untraced), 0u);  // the normalcy side test

    set_enabled(true);
    const auto traced = prunes();
    set_enabled(false);
    EXPECT_GT(Tracer::instance().num_spans(), 0u);
    EXPECT_EQ(untraced, traced);
}

// ------------------------------------------------------------- Reports --

TEST_F(ObsTest, ReportEnvelopeAndReportJsonSchema) {
    Json env = make_report("stgcheck", Json::object().set("x", 1));
    EXPECT_EQ(env.find("tool")->dump(), "\"stgcheck\"");
    EXPECT_EQ(env.find("schema_version")->dump(),
              std::to_string(kReportSchemaVersion));
    ASSERT_NE(env.find("body"), nullptr);
    EXPECT_EQ(env.find("body")->find("x")->dump(), "1");

    auto model = stg::bench::vme_bus();
    auto report = core::verify_stg(model);
    Json body = core::report_json(model, report);
    ASSERT_NE(body.find("model"), nullptr);
    EXPECT_EQ(body.find("model")->find("name")->dump(), "\"vme-bus\"");
    ASSERT_NE(body.find("prefix"), nullptr);
    EXPECT_EQ(body.find("prefix")->find("events")->dump(), "12");
    const Json* results = body.find("results");
    ASSERT_NE(results, nullptr);
    EXPECT_EQ(results->find("consistent")->dump(), "true");
    EXPECT_EQ(results->find("usc")->find("holds")->dump(), "false");
    EXPECT_EQ(results->find("csc")->find("holds")->dump(), "false");
    ASSERT_NE(body.find("stats"), nullptr);
    ASSERT_NE(body.find("stats")->find("usc"), nullptr);
    EXPECT_NE(body.find("stats")->find("usc")->find("seconds"), nullptr);
}

TEST_F(ObsTest, SaveJsonFailsGracefully) {
    EXPECT_FALSE(save_json("/nonexistent-dir/x.json", Json::object()));
}

// ------------------------------------------------------------ Overhead --

// The xorshift body stands in for real per-iteration solver work; the
// instrumented variant adds exactly the guard pattern used on hot paths.
template <bool Instrumented>
std::uint64_t hot_loop(int n, Counter& c) {
    std::uint64_t x = 88172645463325252ull, acc = 0;
    for (int i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += x & 1;
        if constexpr (Instrumented) {
            if (enabled()) c.add();
        }
    }
    return acc;
}

template <class F>
double median_seconds(F&& f, int reps = 5) {
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        Stopwatch w;
        f();
        t.push_back(w.seconds());
    }
    std::sort(t.begin(), t.end());
    return t[t.size() / 2];
}

// The contract from docs/OBSERVABILITY.md: with tracing disabled, hot-path
// instrumentation costs one predictable branch.  Measured as: (per-guard
// disabled cost) x (a generous overcount of guard executions in one
// LAZYRING unfold) must stay under 5% of the unfold time itself.
TEST_F(ObsTest, DisabledInstrumentationOverheadUnderFivePercent) {
    ASSERT_FALSE(enabled());
    Counter& c = counter("ovh.counter");

    constexpr int kN = 1 << 22;
    volatile std::uint64_t sink = 0;
    const double base =
        median_seconds([&] { sink = sink + hot_loop<false>(kN, c); });
    const double instr =
        median_seconds([&] { sink = sink + hot_loop<true>(kN, c); });
    (void)sink;
    EXPECT_EQ(c.value(), 0u) << "disabled guard must not record";
    const double per_guard = std::max(0.0, (instr - base) / kN);
    // A relaxed load + untaken branch is a couple of ns at the very most.
    EXPECT_LT(per_guard, 100e-9);

    // The `bench_paper unfolding` LAZYRING case.
    auto model = stg::bench::token_ring(2);
    auto sys = model.system();
    std::size_t events = 0, conditions = 0;
    const double unfold_s = median_seconds([&] {
        auto prefix = unf::unfold(sys);
        events = prefix.num_events();
        conditions = prefix.num_conditions();
    });
    // Guards per unfold: one per inserted event (the progress tick), well
    // below events + conditions; 4x that is a safe overcount.
    const double guards = 4.0 * static_cast<double>(events + conditions);
    EXPECT_LE(per_guard * guards, 0.05 * unfold_s + 1e-5)
        << "per_guard=" << per_guard << "s guards=" << guards
        << " unfold=" << unfold_s << "s";
}

}  // namespace
}  // namespace stgcc::obs
