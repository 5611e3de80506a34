// End-to-end CLI tests: drive the installed stgcheck / stgbatch binaries
// through a shell, asserting the documented exit-code contract and the
// caching acceptance criteria of docs/CACHING.md -- a warm (cache-hit) run
// and a --no-cache run must be byte-identical to the cold run, modulo the
// wall-clock timing fields, and a corrupted cache entry must fall back to
// a clean recompute.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "cache/result_cache.hpp"
#include "obs/json.hpp"
#include "sched/parallel.hpp"
#include "svc/cli.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "test_util.hpp"

namespace stgcc {
namespace {

namespace fs = std::filesystem;

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

/// Strip the one wall-clock line stgcheck prints ("unfolding+IP time: ...")
/// and stgbatch's per-model "(N s)" suffixes + summary line, leaving only
/// schedule- and cache-independent text.
std::string strip_timing(const std::string& text) {
    std::string out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos) end = text.size();
        std::string line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.rfind("unfolding+IP time:", 0) == 0) continue;
        if (line.rfind("stgbatch:", 0) == 0 &&
            line.find(" in ") != std::string::npos)
            continue;  // summary line carries total seconds
        const auto paren = line.rfind("  (");
        if (paren != std::string::npos && line.back() == ')')
            line.erase(paren);  // per-model "  (0.123 s)"
        out += line;
        out += '\n';
    }
    return out;
}

/// Load a report file and render it with test::canonical_json (volatile
/// timing/stats/jobs/metrics fields removed).
std::string canonical_file(const std::string& path) {
    const auto bytes = cache::read_file_bytes(path);
    EXPECT_TRUE(bytes.has_value()) << path;
    if (!bytes) return {};
    const auto parsed = obs::Json::parse(*bytes);
    EXPECT_TRUE(parsed.has_value()) << path;
    if (!parsed) return {};
    return test::canonical_json(*parsed);
}

class CliTest : public ::testing::Test {
protected:
    void SetUp() override {
        work_ = test::test_temp_path("stgcc_cli_");
        fs::remove_all(work_);
        fs::create_directories(work_);
    }
    void TearDown() override { fs::remove_all(work_); }

    std::string model(const std::string& name) const {
        return std::string(STGCC_MODELS_DIR) + "/" + name;
    }
    std::string in_work(const std::string& name) const {
        return (work_ / name).string();
    }

    fs::path work_;
};

// --- exit-code contract ---------------------------------------------------

TEST_F(CliTest, StgcheckExitCodes) {
    EXPECT_EQ(run(std::string(STGCC_STGCHECK_BIN) + " " +
                  model("johnson4.g") + " --no-cache")
                  .exit_code,
              0);
    EXPECT_EQ(run(std::string(STGCC_STGCHECK_BIN) + " " + model("vme.g") +
                  " --no-cache")
                  .exit_code,
              1);
    EXPECT_EQ(run(std::string(STGCC_STGCHECK_BIN) + " " +
                  in_work("missing.g") + " --no-cache")
                  .exit_code,
              2);
    // A weighted PNML arc is rejected, not dropped: t0 needs 2 tokens from
    // p0, which holds 1, so the net is dead at M0 -- read as an ordinary
    // net it would report "deadlock: free" and exit 0.
    {
        std::ofstream net(in_work("weighted.pnml"));
        net << "<pnml><net id=\"n\" type=\"ptnet\"><page id=\"pg\">"
               "<place id=\"p0\"><initialMarking><text>1</text>"
               "</initialMarking></place><transition id=\"t0\"/>"
               "<arc id=\"a0\" source=\"p0\" target=\"t0\"><inscription>"
               "<text>2</text></inscription></arc>"
               "<arc id=\"a1\" source=\"t0\" target=\"p0\"/>"
               "</page></net></pnml>";
    }
    const auto weighted = run(std::string(STGCC_STGCHECK_BIN) + " " +
                              in_work("weighted.pnml"));
    EXPECT_EQ(weighted.exit_code, 2) << weighted.output;
    EXPECT_NE(weighted.output.find("weight 2"), std::string::npos)
        << weighted.output;
}

TEST_F(CliTest, BadJobsValuesExitTwoAtTheParser) {
    // Parser level only: a binary given one of these values at a parser that
    // wrapped or saturated would start a pool of billions of workers.
    const svc::CliTool tool{"usage: t FILE", "missing input", {}, ""};
    const auto parse = [&](const char* jobs, svc::CliOptions& out) {
        std::string name = "t", input = "m.g", flag = "--jobs", value = jobs;
        char* argv[] = {name.data(), input.data(), flag.data(), value.data()};
        ::testing::internal::CaptureStderr();
        const auto rc = svc::parse_cli(4, argv, tool, out);
        return std::make_pair(rc, ::testing::internal::GetCapturedStderr());
    };
    for (const char* bad : {"-1", "", " 3", "+2", "1025", "4294967295",
                            "4294967296", "18446744073709551616", "3x"}) {
        svc::CliOptions out;
        const auto [rc, err] = parse(bad, out);
        EXPECT_EQ(rc, std::optional<int>(2)) << "'" << bad << "'";
        EXPECT_NE(err.find("bad --jobs value"), std::string::npos) << err;
    }
    for (const auto& [text, jobs] :
         {std::pair<const char*, unsigned>{"0", 0u}, {"8", 8u},
          {"1024", sched::Executor::kMaxJobs}}) {
        svc::CliOptions out;
        EXPECT_EQ(parse(text, out).first, std::nullopt) << text;
        EXPECT_EQ(out.jobs, jobs);
    }
    std::uint64_t v = 0;
    ::testing::internal::CaptureStderr();
    EXPECT_FALSE(svc::parse_flag_number("--deadline-ms", "-5", v));
    EXPECT_FALSE(svc::parse_flag_number("--deadline-ms", "", v));
    EXPECT_NE(::testing::internal::GetCapturedStderr().find(
                  "bad --deadline-ms value: -5"),
              std::string::npos);
    ASSERT_TRUE(svc::parse_flag_number("--deadline-ms", "18446744073709551615", v));
    EXPECT_EQ(v, UINT64_MAX);
}

TEST_F(CliTest, JobsAboveTheCapExitTwoInEveryBinary) {
    // Each worker is an OS thread, so a count past Executor::kMaxJobs is a
    // usage error before any pool is built.
    {
        std::ofstream m(in_work("one.txt"));
        m << model("johnson4.g") << "\n";
    }
    for (const std::string& tool :
         {std::string(STGCC_STGCHECK_BIN) + " " + model("johnson4.g"),
          std::string(STGCC_STGBATCH_BIN) + " " + in_work("one.txt"),
          std::string(STGCC_STGD_BIN) + " --listen unix:" +
              in_work("stgd.sock")}) {
        const auto r = run(tool + " --jobs 1025");
        EXPECT_EQ(r.exit_code, 2) << tool << "\n" << r.output;
        EXPECT_NE(r.output.find("bad --jobs value: 1025"), std::string::npos)
            << tool << "\n" << r.output;
    }
}

TEST_F(CliTest, StgcheckAndStgbatchShareOneFlagParser) {
    {
        std::ofstream m(in_work("one.txt"));
        m << model("johnson4.g") << "\n";
    }
    const std::string stgcheck =
        std::string(STGCC_STGCHECK_BIN) + " " + model("johnson4.g");
    const std::string stgbatch =
        std::string(STGCC_STGBATCH_BIN) + " " + in_work("one.txt");
    for (const std::string& tool : {stgcheck, stgbatch}) {
        SCOPED_TRACE(tool);
        // Every spelling of every shared flag is accepted ...
        for (const std::string& flags :
             {std::string("--jobs 2"), std::string("--jobs 1 --no-normalcy"),
              std::string("--deadlock"),
              std::string("--no-cache"),
              "--cache-dir " + in_work("cache"),
              "--json " + in_work("r.json"), "--trace " + in_work("t.json"),
              std::string("--deadline-ms 5000")}) {
            const auto r = run(tool + " " + flags);
            EXPECT_EQ(r.exit_code, 0) << flags << "\n" << r.output;
        }
        // ... and a stgd that is not there is an error in both.
        EXPECT_EQ(run(tool + " --connect unix:/nonexistent/stgd.sock").exit_code,
                  2);
    }
    // Tool-specific flags stay with their tool.
    EXPECT_EQ(run(stgcheck + " --persistency").exit_code, 0);
    EXPECT_EQ(run(stgbatch + " --persistency").exit_code, 2);
    EXPECT_EQ(run(stgbatch + " --quiet").exit_code, 0);
    EXPECT_EQ(run(stgcheck + " --quiet").exit_code, 2);

    // All five tools parse through one flag table: each help lists exactly
    // the flags its parser takes ("--flag ARG" for a value flag), and every
    // tool reports the same usage errors the same way.  No command below
    // gets past the parser, so no daemon starts.
    struct Tool {
        std::string command;  ///< the binary plus the arguments it needs
        std::vector<std::string> flags;
        std::vector<std::string> bad_numbers;
    };
    const std::vector<std::string> shared = {
        "--jobs N",     "--no-normalcy", "--deadlock",
        "--json FILE",  "--trace FILE",  "--cache-dir DIR",
        "--no-cache",   "--connect EP",  "--deadline-ms D"};
    const auto with_shared = [&](std::vector<std::string> own) {
        own.insert(own.begin(), shared.begin(), shared.end());
        return own;
    };
    const std::vector<std::string> shared_bad = {"--jobs x", "--deadline-ms x",
                                                 "--deadline-ms 5ms"};
    const Tool tools[] = {
        {stgcheck,
         with_shared({"--persistency", "--state-based", "--synthesize",
                      "--cores", "--dot FILE", "--metrics"}),
         shared_bad},
        {stgbatch, with_shared({"--quiet"}), shared_bad},
        {std::string(STGCC_STGD_BIN) + " --listen unix:" + in_work("d.sock"),
         {"--listen EP", "--jobs N", "--cache-dir DIR", "--max-inflight N",
          "--deadline-ms D", "--bundle-slots N", "--stats FILE",
          "--metrics-listen EP", "--event-log FILE", "--event-log-level L",
          "--event-log-max-bytes N", "--quiet"},
         {"--jobs x", "--bundle-slots -1", "--event-log-max-bytes 1x"}},
        {std::string(STGCC_STGPROF_BIN) + " " + STGCC_GOLDEN_DIR +
             "/stgprof_trace.json",
         {"--compare", "--threshold R", "--reemit FILE"},
         {}},
        {std::string(STGCC_STGTOP_BIN) + " --connect unix:" + in_work("d.sock"),
         {"--connect EP", "--interval MS", "--once"},
         {"--interval x"}}};
    for (const Tool& tool : tools) {
        SCOPED_TRACE(tool.command);
        for (const char* help : {"-h", "--help"}) {
            const auto r = run(tool.command + " " + help);
            EXPECT_EQ(r.exit_code, 0) << help;
            const auto listed = [&](const std::string& flag) {
                return r.output.find("\n  " + flag + " ") != std::string::npos ||
                       r.output.find("\n  " + flag + "\n") != std::string::npos;
            };
            for (const std::string& flag : tool.flags)
                EXPECT_TRUE(listed(flag)) << flag << "\n" << r.output;
            EXPECT_TRUE(listed("-h, --help")) << r.output;
            std::size_t lines = 0;
            for (auto at = r.output.find("\n  -"); at != std::string::npos;
                 at = r.output.find("\n  -", at + 1))
                ++lines;
            EXPECT_EQ(lines, tool.flags.size() + 1) << r.output;
        }
        const auto bogus = run(tool.command + " --bogus");
        EXPECT_EQ(bogus.exit_code, 2) << bogus.output;
        EXPECT_NE(bogus.output.find("unknown option: --bogus"),
                  std::string::npos)
            << bogus.output;
        for (const std::string& flag : tool.flags) {
            const std::string name = flag.substr(0, flag.find(' '));
            if (name == flag) {
                // A switch is taken, and parsing goes on past it.
                const auto r = run(tool.command + " " + name + " --bogus");
                EXPECT_EQ(r.exit_code, 2) << name;
                EXPECT_NE(r.output.find("unknown option: --bogus"),
                          std::string::npos)
                    << name << "\n" << r.output;
            } else {
                // A value flag in last position has no value.
                const auto r = run(tool.command + " " + name);
                EXPECT_EQ(r.exit_code, 2) << name;
                EXPECT_NE(r.output.find(name + " needs a value"),
                          std::string::npos)
                    << name << "\n" << r.output;
            }
        }
        for (const std::string& bad : tool.bad_numbers) {
            const auto r = run(tool.command + " " + bad);
            EXPECT_EQ(r.exit_code, 2) << bad;
            EXPECT_NE(r.output.find("bad " + bad.substr(0, bad.find(' ')) +
                                    " value"),
                      std::string::npos)
                << bad << "\n" << r.output;
        }
    }
    const auto one_file = run(std::string(STGCC_STGPROF_BIN) + " --compare " +
                              STGCC_GOLDEN_DIR + "/stgprof_batch_a.json");
    EXPECT_EQ(one_file.exit_code, 2) << one_file.output;
}

TEST_F(CliTest, StgbatchExitCodesCoverOkViolatedAndError) {
    // Manifest of all-ok models -> 0.
    {
        std::ofstream m(in_work("ok.txt"));
        m << model("johnson4.g") << "\n" << model("par4.g") << "\n";
    }
    EXPECT_EQ(run(std::string(STGCC_STGBATCH_BIN) + " " + in_work("ok.txt") +
                  " --quiet --no-cache")
                  .exit_code,
              0);
    // A model with a coding conflict -> 1.
    {
        std::ofstream m(in_work("violated.txt"));
        m << model("vme.g") << "\n" << model("johnson4.g") << "\n";
    }
    EXPECT_EQ(run(std::string(STGCC_STGBATCH_BIN) + " " +
                  in_work("violated.txt") + " --quiet --no-cache")
                  .exit_code,
              1);
    // An unreadable model -> 2, even when other models are violated:
    // errors dominate so CI never mistakes a broken corpus for a verdict.
    {
        std::ofstream m(in_work("error.txt"));
        m << model("vme.g") << "\n" << in_work("missing.g") << "\n";
    }
    EXPECT_EQ(run(std::string(STGCC_STGBATCH_BIN) + " " +
                  in_work("error.txt") + " --quiet --no-cache")
                  .exit_code,
              2);
    // Unknown flags and empty manifests are usage errors.
    EXPECT_EQ(run(std::string(STGCC_STGBATCH_BIN) + " --bogus").exit_code, 2);
    EXPECT_EQ(run(std::string(STGCC_STGBATCH_BIN)).exit_code, 2);
}

// --- caching acceptance ---------------------------------------------------

TEST_F(CliTest, StgcheckWarmAndNoCacheRunsAreByteIdentical) {
    const std::string cache = in_work("cache");
    const std::string base = std::string(STGCC_STGCHECK_BIN) + " " +
                             model("vme.g") + " --deadlock";
    const auto cold = run(base + " --cache-dir " + cache);
    const auto warm = run(base + " --cache-dir " + cache);
    const auto nocache = run(base + " --no-cache");
    EXPECT_EQ(cold.exit_code, warm.exit_code);
    EXPECT_EQ(cold.exit_code, nocache.exit_code);
    EXPECT_EQ(strip_timing(cold.output), strip_timing(warm.output));
    EXPECT_EQ(strip_timing(cold.output), strip_timing(nocache.output));
    // The warm run actually hit the cache (an entry exists).
    EXPECT_FALSE(fs::is_empty(cache));
}

TEST_F(CliTest, NoCacheStillAppliesTheUscCscCertificate) {
    // USC => CSC is a rule, not a cache: with the result caches off, the
    // clean USC pass on a conflict-free Table 1 row still answers CSC
    // without a single search node.
    const std::string json = in_work("cf.json");
    const auto r = run(std::string(STGCC_STGCHECK_BIN) + " " +
                       model("cf_sym_a_csc.g") +
                       " --jobs 1 --no-normalcy --no-cache --json " + json);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    const auto bytes = cache::read_file_bytes(json);
    ASSERT_TRUE(bytes.has_value());
    const auto report = obs::Json::parse(*bytes);
    ASSERT_TRUE(report.has_value());
    const obs::Json* body = report->find("body");
    ASSERT_NE(body, nullptr);
    const obs::Json& results = *body->find("results");
    EXPECT_TRUE(results.find("usc")->find("holds")->as_bool());
    EXPECT_TRUE(results.find("csc")->find("holds")->as_bool());
    const obs::Json& stats = *body->find("stats");
    EXPECT_GT(stats.find("usc")->find("search_nodes")->as_uint(), 0u);
    EXPECT_EQ(stats.find("csc")->find("search_nodes")->as_uint(), 0u);
    // --json alone records no trace, so the bound stopwatch never ran and
    // its share is omitted rather than reported as zero.
    EXPECT_EQ(stats.find("usc")->find("bound_seconds"), nullptr);

    const std::string traced_json = in_work("cf_traced.json");
    const auto traced =
        run(std::string(STGCC_STGCHECK_BIN) + " " + model("cf_sym_a_csc.g") +
            " --jobs 1 --no-normalcy --no-cache --json " + traced_json +
            " --trace " + in_work("cf.trace.json"));
    EXPECT_EQ(traced.exit_code, 0) << traced.output;
    const auto traced_bytes = cache::read_file_bytes(traced_json);
    ASSERT_TRUE(traced_bytes.has_value());
    const auto traced_report = obs::Json::parse(*traced_bytes);
    ASSERT_TRUE(traced_report.has_value());
    const obs::Json* bound = traced_report->find("body")
                                 ->find("stats")
                                 ->find("usc")
                                 ->find("bound_seconds");
    ASSERT_NE(bound, nullptr);
    EXPECT_GT(bound->as_double(), 0.0);
}

TEST_F(CliTest, StgbatchCacheAndJobsNeutralReports) {
    const std::string cache = in_work("cache");
    // A representative fast subset (conflicted + clean models); the full
    // corpus is covered by the golden suite and the nightly job.
    {
        std::ofstream m(in_work("subset.txt"));
        for (const char* name : {"vme.g", "vme_csc.g", "johnson4.g", "par4.g",
                                 "ring.g", "lazyring.g", "seq4.g", "muller4.g"})
            m << model(name) << "\n";
    }
    const std::string base = std::string(STGCC_STGBATCH_BIN) + " " +
                             in_work("subset.txt") + " --quiet";
    const auto cold = run(base + " --jobs 1 --cache-dir " + cache +
                          " --json " + in_work("cold.json"));
    const auto warm = run(base + " --jobs 8 --cache-dir " + cache +
                          " --json " + in_work("warm.json"));
    const auto nocache =
        run(base + " --jobs 8 --no-cache --json " + in_work("nocache.json"));
    EXPECT_EQ(cold.exit_code, warm.exit_code);
    EXPECT_EQ(cold.exit_code, nocache.exit_code);
    const std::string c = canonical_file(in_work("cold.json"));
    ASSERT_FALSE(c.empty());
    EXPECT_EQ(c, canonical_file(in_work("warm.json")));
    EXPECT_EQ(c, canonical_file(in_work("nocache.json")));

    // The pool's ledger is written once, whole, under body.stats.sched;
    // rows carry no per-model scheduler stats.
    const auto bytes = cache::read_file_bytes(in_work("nocache.json"));
    ASSERT_TRUE(bytes.has_value());
    const auto report = obs::Json::parse(*bytes);
    ASSERT_TRUE(report.has_value());
    const obs::Json& body = *report->find("body");
    const obs::Json& sched = *body.find("stats")->find("sched");
    const std::vector<std::string> keys = {
        "workers",        "wall_ns",          "executed",
        "stolen",         "busy_ns",          "external_busy_ns",
        "queue_delay_ns", "critical_path_ns", "park_ns"};
    ASSERT_EQ(sched.size(), keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        EXPECT_EQ(sched.member(i).first, keys[i]);
    const obs::Json& rows = *body.find("models");
    ASSERT_EQ(rows.size(), 8u);
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows.at(i).find("stats"), nullptr) << i;
}

TEST_F(CliTest, OneVerdictEntryIsWarmForStgcheckStgbatchAndStgd) {
    const std::string cache = in_work("cache");
    const auto check = run(std::string(STGCC_STGCHECK_BIN) + " " +
                           model("vme.g") + " --cache-dir " + cache);
    EXPECT_EQ(check.exit_code, 1) << check.output;
    // Entries whose file name starts with `prefix` ("" counts them all).
    const auto entries = [&](const std::string& prefix) {
        std::size_t n = 0;
        for (const auto& e : fs::directory_iterator(cache)) {
            const std::string name = e.path().filename().string();
            if (name.rfind(prefix, 0) == 0 && e.path().extension() == ".json")
                ++n;
        }
        return n;
    };
    // Every file in the directory, whatever its name: no lock or temp file
    // stays beside the entries.
    const auto files = [&] {
        return std::distance(fs::directory_iterator(cache),
                             fs::directory_iterator{});
    };
    EXPECT_EQ(entries("verdict-"), 1u);
    EXPECT_EQ(entries(""), 1u);
    EXPECT_EQ(files(), 1);

    // stgbatch replays stgcheck's entry: one hit, nothing unfolded.
    {
        std::ofstream m(in_work("vme.txt"));
        m << model("vme.g") << "\n";
    }
    const auto batch = run(std::string(STGCC_STGBATCH_BIN) + " " +
                           in_work("vme.txt") + " --quiet --cache-dir " +
                           cache + " --json " + in_work("batch.json"));
    EXPECT_EQ(batch.exit_code, 1) << batch.output;
    const auto bytes = cache::read_file_bytes(in_work("batch.json"));
    ASSERT_TRUE(bytes.has_value());
    const auto report = obs::Json::parse(*bytes);
    ASSERT_TRUE(report.has_value());
    const obs::Json& counters =
        *report->find("body")->find("metrics")->find("counters");
    const auto counter = [&](const char* name) -> std::uint64_t {
        const obs::Json* c = counters.find(name);
        return c ? c->as_uint() : 0;
    };
    EXPECT_EQ(counter("cache.result.hits"), 1u);
    EXPECT_EQ(counter("cache.result.misses"), 0u);
    EXPECT_EQ(counter("cache.artifacts.built"), 0u);

    // A daemon on the same directory answers from the same entry.
    svc::ServerConfig cfg;
    std::string error;
    cfg.listen.push_back(
        *svc::parse_endpoint("unix:" + in_work("stgd.sock"), error));
    cfg.cache_dir = cache;
    cfg.jobs = 1;
    svc::Server server(std::move(cfg));
    ASSERT_TRUE(server.start(error)) << error;
    std::thread serving([&] { server.run(); });
    svc::Client client;
    ASSERT_TRUE(client.connect(server.bound()[0], error)) << error;
    const auto response = client.call(
        obs::Json::object()
            .set("op", "check")
            .set("id", 1)
            .set("model", *cache::read_file_bytes(model("vme.g")))
            .set("options", svc::CheckOptions{}.to_json()),
        error);
    server.request_shutdown();
    serving.join();
    ASSERT_TRUE(response.has_value()) << error;
    ASSERT_TRUE(svc::response_ok(*response)) << svc::response_error(*response);
    EXPECT_EQ(response->find("cached")->as_string(), "disk");
    EXPECT_EQ(strip_timing(response->find("report")->as_string()),
              strip_timing(check.output));
    // Three tools, one model: still one rendered entry and nothing else.
    EXPECT_EQ(entries("verdict-"), 1u);
    EXPECT_EQ(entries(""), 1u);
    EXPECT_EQ(files(), 1);
}

TEST_F(CliTest, CorruptedCacheEntriesFallBackToCleanRecompute) {
    const std::string cache = in_work("cache");
    const std::string base = std::string(STGCC_STGCHECK_BIN) + " " +
                             model("vme.g") + " --cache-dir " + cache;
    const auto cold = run(base);
    // Truncate every entry in the cache directory (simulated crash or disk
    // corruption); the next run must evict, recompute and answer exactly as
    // before.
    std::size_t truncated = 0;
    for (const auto& entry : fs::directory_iterator(cache)) {
        std::ofstream out(entry.path(), std::ios::binary | std::ios::trunc);
        out << "{\"cache_version\": 1, \"trunc";
        ++truncated;
    }
    ASSERT_GT(truncated, 0u);
    const auto recovered = run(base);
    EXPECT_EQ(cold.exit_code, recovered.exit_code);
    EXPECT_EQ(strip_timing(cold.output), strip_timing(recovered.output));
    // And the recompute repopulated a valid entry: the next run hits again.
    const auto warm = run(base);
    EXPECT_EQ(strip_timing(cold.output), strip_timing(warm.output));
}

}  // namespace
}  // namespace stgcc
