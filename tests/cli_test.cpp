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
#include <string>

#include "cache/result_cache.hpp"
#include "obs/json.hpp"
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
        work_ = fs::path(::testing::TempDir()) /
                ("stgcc_cli_" + std::string(::testing::UnitTest::GetInstance()
                                                ->current_test_info()
                                                ->name()));
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
