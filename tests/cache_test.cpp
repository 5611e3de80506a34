// Unit tests for the caching layer (src/cache/, docs/CACHING.md): the
// USC=>CSC certificate flag, the shared prefix artifacts (bit-parallel co-relation, consistency and marking helpers must
// agree exactly with the first-principles implementations they replace),
// and the on-disk result cache's keying, eviction and atomicity.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/prefix_artifacts.hpp"
#include "cache/result_cache.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "unfolding/configuration.hpp"
#include "test_util.hpp"

namespace stgcc {
namespace {

namespace fs = std::filesystem;

// --- the USC=>CSC certificate -------------------------------------------

TEST(ClauseStore, UscCertificate) {
    cache::ClauseStore store;
    EXPECT_FALSE(store.usc_holds());
    store.record_usc_holds();
    EXPECT_TRUE(store.usc_holds());
}

// --- tier 1: shared prefix artifacts ------------------------------------

TEST(PrefixArtifacts, CoRowsMatchPairwiseConcurrency) {
    for (unsigned seed : {1001u, 1017u}) {
        auto model = test::random_stg(seed);
        cache::PrefixArtifacts artifacts(model);
        const auto& prefix = artifacts.prefix();
        for (unf::EventId e = 0; e < prefix.num_events(); ++e) {
            const BitSpan row = artifacts.co_row(e);
            for (unf::EventId f = 0; f < prefix.num_events(); ++f)
                EXPECT_EQ(row.test(f), prefix.concurrent(e, f))
                    << "seed=" << seed << " e=" << e << " f=" << f;
        }
    }
}

TEST(PrefixArtifacts, MarkingOfDenseAgreesWithConfigurationHelper) {
    for (unsigned seed : {1001u, 1005u, 1023u}) {
        auto model = test::random_stg(seed);
        cache::PrefixArtifacts artifacts(model);
        ASSERT_TRUE(artifacts.consistent()) << "seed=" << seed;
        const auto& problem = artifacts.problem();
        // The empty configuration reaches the initial marking...
        BitVec empty(std::max<std::size_t>(problem.size(), 1));
        EXPECT_EQ(artifacts.marking_of_dense(empty),
                  unf::marking_of(artifacts.prefix(),
                                  problem.to_event_set(empty)));
        // ... and every local configuration [e] agrees bit-for-bit with the
        // sparse helper the masks replace.
        for (std::size_t i = 0; i < problem.size(); ++i) {
            BitVec config(problem.preds(i));
            config.set(i);
            EXPECT_EQ(artifacts.marking_of_dense(config),
                      unf::marking_of(artifacts.prefix(),
                                      problem.to_event_set(config)))
                << "seed=" << seed << " dense=" << i;
        }
    }
}

TEST(PrefixArtifacts, ConsistencyMatchesStandaloneAnalysis) {
    for (unsigned seed : {1001u, 1013u}) {
        auto model = test::random_stg(seed);
        cache::PrefixArtifacts artifacts(model);
        const auto standalone =
            unf::analyze_consistency(model, artifacts.prefix());
        EXPECT_EQ(artifacts.consistent(), standalone.consistent);
        EXPECT_EQ(artifacts.consistency().reason, standalone.reason);
        if (standalone.consistent)
            EXPECT_EQ(artifacts.consistency().initial_code.to_string(),
                      standalone.initial_code.to_string());
    }
}

TEST(PrefixArtifacts, InconsistentStgDiagnosedOnceProblemThrows) {
    // Two consecutive rising edges of one signal: inconsistent by strict
    // alternation.  The artifacts construct fine, carry the diagnosis, and
    // only problem() raises -- with the historical ModelError.
    stg::StgBuilder b("bad");
    b.input("a").output("b");
    b.arc("a+", "b+").arc("b+", "a+/2").arc("a+/2", "b-").arc("b-", "a+");
    b.token_between("b-", "a+");
    auto model = b.build();
    cache::PrefixArtifacts artifacts(model);
    EXPECT_FALSE(artifacts.consistent());
    EXPECT_FALSE(artifacts.consistency().reason.empty());
    EXPECT_THROW(artifacts.problem(), ModelError);
}

// --- tier 3: on-disk result cache ---------------------------------------

class ResultCacheTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = fs::path(::testing::TempDir()) /
               ("stgcc_cache_" +
                std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
                "_" + ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
        fs::remove_all(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }
    fs::path dir_;
};

TEST_F(ResultCacheTest, DisabledCacheMissesAndRefusesStores) {
    const cache::ResultCache off("");
    EXPECT_FALSE(off.enabled());
    EXPECT_FALSE(off.store("t", 1, "o", obs::Json(true)));
    EXPECT_FALSE(off.load("t", 1, "o").has_value());
}

TEST_F(ResultCacheTest, RoundTripsStructuredValues) {
    const cache::ResultCache cache(dir_.string());
    obs::Json value = obs::Json::object()
                          .set("verdict", "USC:ok CSC:VIOLATED")
                          .set("exit", 1)
                          .set("nested", obs::Json::array().push(1).push("x"));
    ASSERT_TRUE(cache.store("stgcheck", 0xabcdef, "opts/1", value));
    const auto loaded = cache.load("stgcheck", 0xabcdef, "opts/1");
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->dump(2), value.dump(2));
}

TEST_F(ResultCacheTest, KeyComponentsAreAllDiscriminating) {
    const cache::ResultCache cache(dir_.string());
    ASSERT_TRUE(cache.store("stgcheck", 1, "a", obs::Json("v")));
    EXPECT_TRUE(cache.load("stgcheck", 1, "a").has_value());
    EXPECT_FALSE(cache.load("stgcheck", 2, "a").has_value());  // content
    EXPECT_FALSE(cache.load("stgcheck", 1, "b").has_value());  // options
    EXPECT_FALSE(cache.load("stgbatch", 1, "a").has_value());  // tool
}

TEST_F(ResultCacheTest, TruncatedEntryIsEvictedAndRecomputable) {
    const cache::ResultCache cache(dir_.string());
    ASSERT_TRUE(cache.store("stgcheck", 42, "o", obs::Json("payload")));
    const std::string path = cache.entry_path("stgcheck", 42, "o");
    // Corrupt the entry the way a crashed writer or a bad disk would:
    // truncate it mid-document.
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "{\"cache_version\": 1, \"conte";
    }
    EXPECT_FALSE(cache.load("stgcheck", 42, "o").has_value());
    EXPECT_FALSE(fs::exists(path)) << "corrupt entry must be evicted";
    // A clean recompute+store brings the entry back.
    ASSERT_TRUE(cache.store("stgcheck", 42, "o", obs::Json("payload")));
    ASSERT_TRUE(cache.load("stgcheck", 42, "o").has_value());
}

TEST_F(ResultCacheTest, MismatchedEmbeddedKeyIsEvicted) {
    const cache::ResultCache cache(dir_.string());
    // A well-formed entry whose embedded key disagrees with its file name
    // (e.g. a manually copied file) must be rejected and deleted.
    ASSERT_TRUE(cache.store("stgcheck", 7, "o", obs::Json("v")));
    const std::string good = cache.entry_path("stgcheck", 7, "o");
    const std::string bad = cache.entry_path("stgcheck", 8, "o");
    fs::copy_file(good, bad);
    EXPECT_FALSE(cache.load("stgcheck", 8, "o").has_value());
    EXPECT_FALSE(fs::exists(bad));
    EXPECT_TRUE(cache.load("stgcheck", 7, "o").has_value());
}

TEST_F(ResultCacheTest, StaleFormatVersionIsEvicted) {
    const cache::ResultCache cache(dir_.string());
    ASSERT_TRUE(cache.store("stgcheck", 9, "o", obs::Json("v")));
    const std::string path = cache.entry_path("stgcheck", 9, "o");
    auto bytes = cache::read_file_bytes(path);
    ASSERT_TRUE(bytes.has_value());
    const auto pos = bytes->find("\"cache_version\": 1");
    ASSERT_NE(pos, std::string::npos);
    bytes->replace(pos, 18, "\"cache_version\": 0");
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << *bytes;
    }
    EXPECT_FALSE(cache.load("stgcheck", 9, "o").has_value());
    EXPECT_FALSE(fs::exists(path));
}

TEST_F(ResultCacheTest, TwoWriterDrillNeverPublishesCorruptEntries) {
    // Corruption drill for the racing-writer case the daemon creates: many
    // writers publishing the same key concurrently (distinct payloads make
    // interleaving detectable), a reader hammering load() throughout.
    // Every load must return one writer's complete payload or miss cleanly;
    // nothing may be evicted (eviction means a torn entry was published).
    const cache::ResultCache cache(dir_.string());
    obs::counter("cache.result.evicted").reset();
    constexpr int kWriters = 4;
    constexpr int kIterations = 200;
    std::atomic<bool> stop{false};
    std::atomic<int> bad_loads{0};
    std::thread reader([&] {
        while (!stop.load(std::memory_order_acquire)) {
            const auto hit = cache.load("drill", 0x5eed, "two-writer");
            if (!hit) continue;
            const obs::Json* writer = hit->find("writer");
            const obs::Json* blob = hit->find("blob");
            if (!writer || !blob ||
                blob->as_string() !=
                    std::string(4096, static_cast<char>(
                                          'a' + writer->as_int())))
                bad_loads.fetch_add(1, std::memory_order_relaxed);
        }
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w)
        writers.emplace_back([&, w] {
            const obs::Json value =
                obs::Json::object()
                    .set("writer", w)
                    .set("blob",
                         std::string(4096, static_cast<char>('a' + w)));
            for (int i = 0; i < kIterations; ++i)
                cache.store("drill", 0x5eed, "two-writer", value);
        });
    for (auto& t : writers) t.join();
    stop.store(true, std::memory_order_release);
    reader.join();
    EXPECT_EQ(bad_loads.load(), 0) << "a load observed a torn entry";
    EXPECT_EQ(obs::counter("cache.result.evicted").value(), 0u)
        << "a torn entry was published and had to be evicted";
    // The key still round-trips after the storm.
    ASSERT_TRUE(cache.store("drill", 0x5eed, "two-writer",
                            obs::Json::object().set("writer", 99).set(
                                "blob", std::string(4096, 'z' ))));
    EXPECT_TRUE(cache.load("drill", 0x5eed, "two-writer").has_value());
}

TEST(ResultCacheHash, Fnv1a64KnownVectors) {
    // Reference values of the 64-bit FNV-1a test suite.
    EXPECT_EQ(cache::fnv1a64(""), 0xcbf29ce484222325ull);
    EXPECT_EQ(cache::fnv1a64("a"), 0xaf63dc4c8601ec8cull);
    EXPECT_EQ(cache::fnv1a64("foobar"), 0x85944171f73967e8ull);
}

// --- the JSON parser the result cache relies on ---------------------------

TEST(JsonParse, RoundTripsNestedDocuments) {
    obs::Json doc = obs::Json::object()
                        .set("string", "he\"llo\nworld")
                        .set("int", -42)
                        .set("uint", std::uint64_t{1} << 60)
                        .set("double", 1.5)
                        .set("bool", true)
                        .set("null", obs::Json())
                        .set("arr", obs::Json::array()
                                        .push(obs::Json::object().set("k", "v"))
                                        .push(3));
    const auto parsed = obs::Json::parse(doc.dump(2));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->dump(2), doc.dump(2));
}

TEST(JsonParse, RejectsMalformedAndOverdeepInput) {
    EXPECT_FALSE(obs::Json::parse("").has_value());
    EXPECT_FALSE(obs::Json::parse("{\"a\": }").has_value());
    EXPECT_FALSE(obs::Json::parse("[1, 2").has_value());
    EXPECT_FALSE(obs::Json::parse("{} trailing").has_value());
    const std::string deep(4096, '[');
    EXPECT_FALSE(obs::Json::parse(deep).has_value());
}

}  // namespace
}  // namespace stgcc
