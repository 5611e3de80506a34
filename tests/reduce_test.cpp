// Reduction pass manager tests (docs/REDUCTIONS.md): pass-spec parsing,
// per-pass soundness on hand-built nets where a naive reduction would flip
// the verdict, witness back-translation onto the original net, the report
// codec round-trip, the centralized options signature (one spelling for
// every cache key), the shared semantic result-cache tier, and the
// reduce-on/reduce-off differential fleet at jobs 1 and 8.
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "cache/result_cache.hpp"
#include "core/report_codec.hpp"
#include "core/verdict.hpp"
#include "core/verifier.hpp"
#include "petri/pnml.hpp"
#include "stg/astg.hpp"
#include "stg/builder.hpp"
#include "stg/reduce/reduce.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "svc/protocol.hpp"
#include "test_util.hpp"

namespace stgcc {
namespace {

namespace fs = std::filesystem;
using stg::reduce::Options;

// --- pass-spec parsing ------------------------------------------------------

TEST(ReduceOptions, ParseAndCanonicalSpec) {
    EXPECT_FALSE(Options::parse("none").enabled);
    EXPECT_FALSE(Options::parse("off").enabled);
    EXPECT_EQ(Options::parse("none").spec(), "none");

    const Options all = Options::parse("all");
    EXPECT_TRUE(all.enabled);
    EXPECT_EQ(all.spec(), "contract,series,dup-place,const-place");
    EXPECT_EQ(Options::parse("").spec(), all.spec());
    EXPECT_EQ(Options::parse("on").spec(), all.spec());
    EXPECT_EQ(Options::all(), all);

    const Options listed = Options::parse("dup-place,contract");
    EXPECT_TRUE(listed.enabled);
    EXPECT_EQ(listed.spec(), "dup-place,contract");  // run order preserved

    EXPECT_THROW((void)Options::parse("contract,bogus"), ModelError);
    EXPECT_THROW((void)Options::parse(","), ModelError);
}

TEST(ReduceOptions, KnownPassesResolve) {
    for (const std::string& name : stg::reduce::known_passes()) {
        const auto* pass = stg::reduce::find_pass(name);
        ASSERT_NE(pass, nullptr) << name;
        EXPECT_EQ(pass->name(), name);
    }
    EXPECT_EQ(stg::reduce::find_pass("bogus"), nullptr);
}

// --- hand-built nets --------------------------------------------------------

/// tiny_handshake plus an explicit duplicate of the implicit <b-,a+> place
/// (same preset, same postset, same marking) -- dup-place removes it.
stg::Stg handshake_with_dup() {
    stg::StgBuilder b("dup-pos");
    b.input("a").output("b");
    b.arc("a+", "b+").arc("b+", "a-").arc("a-", "b-").arc("b-", "a+");
    b.token_between("b-", "a+");
    b.place("dup0", 1);
    b.arc("b-", "dup0").arc("dup0", "a+");
    return b.build();
}

/// Same shape but the extra place starts EMPTY: equal pre/postsets, unequal
/// initial marking.  The net deadlocks immediately (a+ can never fire); a
/// naive duplicate-removal that ignored M0 would delete the empty place and
/// flip the deadlock verdict to "free".
stg::Stg handshake_with_starved_dup() {
    stg::StgBuilder b("dup-neg");
    b.input("a").output("b");
    b.arc("a+", "b+").arc("b+", "a-").arc("a-", "b-").arc("b-", "a+");
    b.token_between("b-", "a+");
    b.place("dup0", 0);
    b.arc("b-", "dup0").arc("dup0", "a+");
    return b.build();
}

/// tiny_handshake plus a marked pure-self-loop place on a+ -- its marking
/// is constant, const-place removes it.
stg::Stg handshake_with_const_place() {
    stg::StgBuilder b("const-pos");
    b.input("a").output("b");
    b.arc("a+", "b+").arc("b+", "a-").arc("a-", "b-").arc("b-", "a+");
    b.token_between("b-", "a+");
    b.place("cp", 1);
    b.arc("cp", "a+").arc("a+", "cp");
    return b.build();
}

TEST(ReducePasses, DupPlaceRemovesTrueDuplicate) {
    const auto model = handshake_with_dup();
    const auto baseline = test::tiny_handshake();

    core::VerifyOptions on;
    on.reduce = Options::parse("dup-place");
    const auto r_on = core::verify_stg(model, on);
    const auto r_off = core::verify_stg(model, {});
    const auto r_base = core::verify_stg(baseline, {});

    EXPECT_EQ(r_on.reduction.places_removed(), 1u);
    EXPECT_EQ(r_on.reduction.transitions_removed(), 0u);
    ASSERT_TRUE(r_on.reduced_stg.has_value());
    EXPECT_EQ(r_on.reduced_stg->net().num_places(),
              model.net().num_places() - 1);
    // Verdicts agree with both the unreduced run and the duplicate-free net.
    EXPECT_EQ(r_on.usc.holds, r_off.usc.holds);
    EXPECT_EQ(r_on.csc.holds, r_off.csc.holds);
    EXPECT_EQ(r_on.usc.holds, r_base.usc.holds);
    const std::string text = core::format_report(model, r_on);
    EXPECT_NE(text.find("dup-place"), std::string::npos);
}

TEST(ReducePasses, DupPlaceKeepsStarvedSibling) {
    // The starved duplicate is semantically load-bearing: removing it would
    // turn a dead net into a live one.  The pass must keep it and the
    // deadlock verdict must survive reduce=all.
    const auto model = handshake_with_starved_dup();
    core::VerifyOptions opts;
    opts.reduce = Options::all();
    opts.check_deadlock = true;
    const auto report = core::verify_stg(model, opts);
    EXPECT_EQ(report.reduction.places_removed(), 0u);
    EXPECT_TRUE(report.deadlock_checked);
    EXPECT_FALSE(report.deadlock_free);

    core::VerifyOptions off;
    off.check_deadlock = true;
    const auto r_off = core::verify_stg(model, off);
    EXPECT_EQ(report.deadlock_free, r_off.deadlock_free);
}

TEST(ReducePasses, ConstPlaceRemovesMarkedSelfLoop) {
    const auto model = handshake_with_const_place();
    core::VerifyOptions on;
    on.reduce = Options::parse("const-place");
    const auto r_on = core::verify_stg(model, on);
    const auto r_off = core::verify_stg(model, {});

    EXPECT_EQ(r_on.reduction.places_removed(), 1u);
    ASSERT_TRUE(r_on.reduced_stg.has_value());
    EXPECT_EQ(r_on.reduced_stg->net().find_place("cp"), petri::kNoPlace);
    EXPECT_EQ(r_on.usc.holds, r_off.usc.holds);
    EXPECT_EQ(r_on.csc.holds, r_off.csc.holds);
}

TEST(ReducePasses, ConstPlaceKeepsPlaceWithPureProducer) {
    // cp gains a producer that never consumes it: its marking is no longer
    // constant, so removal could merge reachable markings and (for a net
    // where those markings share a code) manufacture or hide a USC verdict.
    // The pass must refuse.
    stg::StgBuilder b("const-neg");
    b.input("a").output("b");
    b.arc("a+", "b+").arc("b+", "a-").arc("a-", "b-").arc("b-", "a+");
    b.token_between("b-", "a+");
    b.place("cp", 1);
    b.arc("cp", "a+").arc("a+", "cp").arc("b+", "cp");
    const auto model = b.build();

    const auto* pass = stg::reduce::find_pass("const-place");
    ASSERT_NE(pass, nullptr);
    const auto res = pass->apply(std::make_shared<const stg::Stg>(model));
    EXPECT_FALSE(res.changed);
}

TEST(ReducePasses, SeriesContractsOnlySingletonDummies) {
    // eps2 joins two branches (|*eps2| = 2): series must skip it, the
    // general contract pass handles it.
    stg::StgBuilder b("series-vs-contract");
    b.input("a").input("c").output("x").dummy("eps");
    b.arc("a+", "eps").arc("c+", "eps").arc("eps", "x+");
    b.chain({"x+", "a-", "c-", "x-"});
    b.arc("x-", "a+").arc("x-", "c+");
    b.token_between("x-", "a+");
    b.token_between("x-", "c+");
    const auto model = b.build();

    const auto series = stg::reduce::run_passes(
        std::make_shared<const stg::Stg>(model), Options::parse("series"));
    EXPECT_EQ(series.summary.transitions_removed(), 0u);
    ASSERT_EQ(series.summary.remaining_dummies.size(), 1u);
    EXPECT_EQ(series.summary.remaining_dummies[0], "eps");

    const auto contract = stg::reduce::run_passes(
        std::make_shared<const stg::Stg>(model), Options::parse("contract"));
    EXPECT_EQ(contract.summary.transitions_removed(), 1u);
    EXPECT_TRUE(contract.summary.remaining_dummies.empty());
    EXPECT_FALSE(contract.stg->has_dummies());
}

// --- witness back-translation ----------------------------------------------

TEST(WitnessChain, TranslatedTracesReplayOnInput) {
    // a+ -> eps -> x+ -> a- -> x- -> (back); contraction removes eps.
    stg::StgBuilder b("chain-dummy");
    b.input("a").output("x").dummy("eps");
    b.chain({"a+", "eps", "x+", "a-", "x-", "a+"});
    b.token_between("x-", "a+");
    const auto shared = std::make_shared<const stg::Stg>(b.build());

    const auto red = stg::reduce::run_passes(shared, Options::parse("contract"));
    ASSERT_EQ(red.summary.transitions_removed(), 1u);
    ASSERT_FALSE(red.chain.empty());

    // Reduced trace a+ x+: on the input net the removed dummy must be
    // spliced in before x+ becomes enabled.
    const auto a_plus = red.stg->net().find_transition("a+");
    const auto x_plus = red.stg->net().find_transition("x+");
    ASSERT_NE(a_plus, petri::kNoTransition);
    ASSERT_NE(x_plus, petri::kNoTransition);
    const auto lifted = red.chain.translate({a_plus, x_plus});
    ASSERT_TRUE(lifted.has_value());
    const auto replayed = shared->system().fire_sequence(lifted->trace);
    ASSERT_TRUE(replayed.has_value());
    EXPECT_TRUE(*replayed == lifted->marking);
    // The lifted trace contains the dummy: strictly longer than the input.
    EXPECT_GT(lifted->trace.size(), 2u);

    // The empty trace tau-closes past an initially enabled dummy chain --
    // here nothing is initially enabled, so it stays empty.
    const auto empty = red.chain.translate({});
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->marking == shared->system().initial_marking());
}

// --- canonical text / semantic identity ------------------------------------

TEST(SemanticHash, InsensitiveToConstructionOrder) {
    // The same net assembled in two different arc orders: place/transition
    // ids differ, canonical text (sorted by name) does not.
    stg::StgBuilder b1("canon");
    b1.input("x").output("y").output("z");
    stg::StgBuilder b2("canon");
    b2.input("x").output("y").output("z");
    const std::vector<std::string> cycle = {"x+/1", "y+/1", "x-/1", "y-/1",
                                            "z+",   "x+/2", "y+/2", "x-/2",
                                            "y-/2", "z-"};
    const std::size_t n = cycle.size();
    for (std::size_t i = 0; i < n; ++i)
        b1.arc(cycle[i], cycle[(i + 1) % n]);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = (i + 4) % n;  // rotated insertion order
        b2.arc(cycle[j], cycle[(j + 1) % n]);
    }
    b1.token_between(cycle.back(), cycle.front());
    b2.token_between(cycle.back(), cycle.front());
    const auto s1 = b1.build();
    const auto s2 = b2.build();
    EXPECT_EQ(stg::reduce::canonical_text(s1), stg::reduce::canonical_text(s2));
    EXPECT_EQ(stg::reduce::semantic_hash(s1), stg::reduce::semantic_hash(s2));
}

TEST(SemanticHash, SignalOrderIsSignificant) {
    // Codes are bit strings indexed by SignalId, so two nets that differ
    // only in signal declaration order must NOT share a semantic hash.
    stg::StgBuilder b1("sig-order");
    b1.input("a").output("b");
    b1.arc("a+", "b+").arc("b+", "a-").arc("a-", "b-").arc("b-", "a+");
    b1.token_between("b-", "a+");
    stg::StgBuilder b2("sig-order");
    b2.output("b").input("a");
    b2.arc("a+", "b+").arc("b+", "a-").arc("a-", "b-").arc("b-", "a+");
    b2.token_between("b-", "a+");
    EXPECT_NE(stg::reduce::semantic_hash(b1.build()),
              stg::reduce::semantic_hash(b2.build()));
}

// --- report codec -----------------------------------------------------------

TEST(ReportCodec, RoundTripsConflictsAndDeadlock) {
    const auto model = test::tiny_conflict();
    core::VerifyOptions opts;
    opts.check_deadlock = true;
    const auto report = core::verify_stg(model, opts);
    ASSERT_FALSE(report.usc.holds);

    const obs::Json payload = core::encode_report(report, model);
    const auto decoded = core::decode_report(payload, model);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(core::format_report(model, report),
              core::format_report(model, *decoded));
}

TEST(ReportCodec, RejectsPayloadFromDifferentNet) {
    const auto model = test::tiny_conflict();
    const auto other = test::tiny_handshake();
    const auto report = core::verify_stg(model, {});
    const obs::Json payload = core::encode_report(report, model);
    // Decoding against a net that lacks the witnesses' transitions fails
    // closed (nullopt), never mis-renders.
    EXPECT_FALSE(core::decode_report(payload, other).has_value());
}

// --- centralized options signature (satellite: one spelling) ----------------

TEST(OptionsSignature, OneSpellingSharedByAllCaches) {
    const auto sig = [](const svc::CheckOptions& c) {
        return core::options_signature(c.verify_options());
    };
    svc::CheckOptions copts;
    EXPECT_EQ(sig(copts), "v2;normalcy=1;reduce=none;deadlock=0;persistency=0");

    // The reduce spec is canonicalized, so "all" and the expanded list key
    // the same entries.
    svc::CheckOptions alias = copts;
    alias.reduce = "all";
    svc::CheckOptions listed = copts;
    listed.reduce = "contract,series,dup-place,const-place";
    EXPECT_EQ(sig(alias), sig(listed));
    EXPECT_NE(sig(alias), sig(copts));

    // to_json/from_json round-trips the signature.
    const obs::Json j = listed.to_json();
    EXPECT_EQ(sig(svc::CheckOptions::from_json(&j)), sig(listed));
}

// --- shared semantic cache tier ---------------------------------------------

class SemanticCacheTest : public ::testing::Test {
protected:
    void SetUp() override {
        // One directory per test: ctest -j runs the cases concurrently.
        dir_ = fs::path(::testing::TempDir()) /
               ("stgcc_semantic_cache_" +
                std::string(::testing::UnitTest::GetInstance()
                                ->current_test_info()
                                ->name()));
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }
    fs::path dir_;
};

TEST_F(SemanticCacheTest, StructurallyEquivalentInputsShareEntries) {
    // Two source spellings of the same net (rotated arc insertion): their
    // content hashes differ, their reduced-net hashes agree, so the second
    // verification replays the first one's stored verdict.
    stg::StgBuilder b1("warm");
    b1.input("x").output("y").output("z");
    stg::StgBuilder b2("warm");
    b2.input("x").output("y").output("z");
    const std::vector<std::string> cycle = {"x+/1", "y+/1", "x-/1", "y-/1",
                                            "z+",   "x+/2", "y+/2", "x-/2",
                                            "y-/2", "z-"};
    const std::size_t n = cycle.size();
    for (std::size_t i = 0; i < n; ++i)
        b1.arc(cycle[i], cycle[(i + 1) % n]);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t j = (i + 3) % n;
        b2.arc(cycle[j], cycle[(j + 1) % n]);
    }
    b1.token_between(cycle.back(), cycle.front());
    b2.token_between(cycle.back(), cycle.front());
    const auto a = b1.build();
    const auto b = b2.build();

    const cache::ResultCache rcache(dir_.string());
    ASSERT_TRUE(rcache.enabled());
    core::VerifyOptions opts;
    sched::Executor ex(opts.jobs);
    bool hit = true;
    const auto r1 = core::verify_stg_cached(a, opts, rcache, ex, &hit);
    EXPECT_FALSE(hit);
    const auto r2 = core::verify_stg_cached(b, opts, rcache, ex, &hit);
    EXPECT_TRUE(hit);
    // The replayed report renders faithfully on input B.
    const auto fresh = core::verify_stg(b, opts);
    EXPECT_EQ(core::format_report(b, r2), core::format_report(b, fresh));
}

TEST_F(SemanticCacheTest, ReducedNetsShareEntriesAcrossDummySpellings) {
    // The same dummy net written in two arc orders: reduce=contract maps
    // both onto one reduced net, whose hash keys the shared entry.  The
    // hit is translated through input B's own witness chain.
    stg::StgBuilder b1("dummy-warm");
    b1.input("a").output("x").dummy("eps");
    b1.chain({"a+", "eps", "x+", "a-", "x-", "a+"});
    b1.token_between("x-", "a+");
    stg::StgBuilder b2("dummy-warm");
    b2.input("a").output("x").dummy("eps");
    b2.chain({"x+", "a-", "x-", "a+"});
    b2.arc("a+", "eps").arc("eps", "x+");
    b2.token_between("x-", "a+");
    const auto a = b1.build();
    const auto b = b2.build();

    const cache::ResultCache rcache(dir_.string());
    core::VerifyOptions opts;
    opts.reduce = Options::parse("contract");
    sched::Executor ex(opts.jobs);
    bool hit = true;
    (void)core::verify_stg_cached(a, opts, rcache, ex, &hit);
    EXPECT_FALSE(hit);
    const auto r2 = core::verify_stg_cached(b, opts, rcache, ex, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(core::format_report(b, r2),
              core::format_report(b, core::verify_stg(b, opts)));
}

TEST_F(SemanticCacheTest, ReduceSpecToggleHitsTheSemanticTier) {
    // The tier's measured use: a warm cache and a changed reduce spec.  The
    // verdict entry is keyed on the options, so it misses; VME has nothing
    // to reduce, so the reduced net hashes like the unreduced one and the
    // "stgcore" entry answers.
    const auto model = stg::load_astg_file(std::string(STGCC_MODELS_DIR) +
                                           "/vme.g");
    const cache::ResultCache rcache(dir_.string());
    ASSERT_TRUE(rcache.enabled());
    core::VerifyOptions off;
    off.reduce = Options::parse("none");
    core::VerifyOptions all = off;
    all.reduce = Options::parse("all");
    sched::Executor ex(off.jobs);
    bool hit = true;
    (void)core::verify_stg_cached(model, off, rcache, ex, &hit);
    EXPECT_FALSE(hit);
    const auto replayed = core::verify_stg_cached(model, all, rcache, ex, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(core::format_report(model, replayed),
              core::format_report(model, core::verify_stg(model, all)));
}

// --- differential fleet: reduce on/off, jobs 1 and 8 ------------------------

int fleet_iters() {
    const char* env = std::getenv("STGCC_FLEET_ITERS");
    return env ? std::atoi(env) : 6;
}

class ReduceDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ReduceDifferentialTest, ReduceIsInvisibleOnDummyFreeModels) {
    // Dummy-free generated models across the choice/sync knob sweep: the
    // default pipeline finds nothing to remove, so reduce-on and reduce-off
    // runs are byte-identical -- verdicts, witnesses, prefix sizes -- at
    // jobs 1 and 8.
    const unsigned seed = GetParam();
    test::RandomStgConfig cfg;
    cfg.machines = 2 + static_cast<int>(seed % 2);
    cfg.signals_per_machine = 3;
    cfg.branch_probability = 0.25 + 0.2 * static_cast<double>(seed % 3);
    cfg.sync_transitions = static_cast<int>(seed % 3);
    cfg.dummy_probability = 0.0;
    const auto model = test::random_stg(seed, cfg);

    for (const unsigned jobs : {1u, 8u}) {
        core::VerifyOptions off;
        off.jobs = jobs;
        off.check_deadlock = true;
        core::VerifyOptions on = off;
        on.reduce = Options::all();
        const auto r_off = core::verify_stg(model, off);
        const auto r_on = core::verify_stg(model, on);
        EXPECT_EQ(core::format_report(model, r_off),
                  core::format_report(model, r_on))
            << "seed=" << seed << " jobs=" << jobs;
        EXPECT_EQ(r_on.reduction.places_removed() +
                      r_on.reduction.transitions_removed(),
                  0u)
            << "seed=" << seed;
    }
}

/// Strip the reduction accounting line ("reduction: ...") -- the only
/// rendered difference allowed between pipeline spellings that converge to
/// the same reduced net.
std::string strip_reduction_line(const std::string& text) {
    std::string out;
    std::size_t pos = 0;
    while (pos < text.size()) {
        std::size_t end = text.find('\n', pos);
        if (end == std::string::npos) end = text.size();
        const std::string line = text.substr(pos, end - pos);
        pos = end + 1;
        if (line.rfind("reduction:", 0) == 0) continue;
        out += line;
        out += '\n';
    }
    return out;
}

TEST_P(ReduceDifferentialTest, AllAndContractAgreeOnDummyModels) {
    // Dummy-carrying models: reduce=none rejects them (the checkers need
    // dummy-free STGs), so the differential is reduce=all vs the contract
    // pipeline alone.  Both converge to the same reduced net, so reports
    // are byte-identical modulo the per-pass accounting line, at jobs 1
    // and 8 -- and every witness replays on the ORIGINAL net.
    const unsigned seed = GetParam();
    test::RandomStgConfig cfg;
    cfg.machines = 2;
    cfg.signals_per_machine = 3;
    cfg.sync_transitions = static_cast<int>(seed % 3);
    cfg.dummy_probability = 0.3;
    const auto model = test::random_stg(seed, cfg);

    std::string first;
    for (const unsigned jobs : {1u, 8u}) {
        core::VerifyOptions all;
        all.jobs = jobs;
        all.check_deadlock = true;
        all.reduce = Options::all();
        core::VerifyOptions contract = all;
        contract.reduce = Options::parse("contract");
        const auto r_all = core::verify_stg(model, all);
        const auto r_contract = core::verify_stg(model, contract);
        const std::string t_all =
            strip_reduction_line(core::format_report(model, r_all));
        const std::string t_contract =
            strip_reduction_line(core::format_report(model, r_contract));
        EXPECT_EQ(t_all, t_contract) << "seed=" << seed << " jobs=" << jobs;
        if (first.empty())
            first = t_all;
        else
            EXPECT_EQ(first, t_all) << "jobs-dependent output, seed=" << seed;

        if (!r_all.usc.holds) {
            const auto& w = *r_all.usc.witness;
            const auto m1 = model.system().fire_sequence(w.trace1);
            const auto m2 = model.system().fire_sequence(w.trace2);
            ASSERT_TRUE(m1 && m2) << "witness does not replay on the "
                                     "original net, seed=" << seed;
            EXPECT_FALSE(*m1 == *m2) << "seed=" << seed;
            EXPECT_EQ(model.change_vector(w.trace1),
                      model.change_vector(w.trace2))
                << "seed=" << seed;
        }
        if (r_all.deadlock_checked && !r_all.deadlock_free) {
            EXPECT_TRUE(
                model.system().fire_sequence(r_all.deadlock_trace).has_value())
                << "seed=" << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReduceDifferentialTest,
                         ::testing::Range(9000u, 9000u + static_cast<unsigned>(
                                                             fleet_iters())));

// --- CLI: --reduce flags and .pnml dispatch ---------------------------------

struct RunResult {
    int exit_code = -1;
    std::string output;
};

RunResult run_cli(const std::string& command) {
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

class ReduceCliTest : public ::testing::Test {
protected:
    void SetUp() override {
        work_ = fs::path(::testing::TempDir()) /
                ("stgcc_reduce_cli_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()));
        fs::remove_all(work_);
        fs::create_directories(work_);
    }
    void TearDown() override { fs::remove_all(work_); }

    std::string write(const std::string& name, const std::string& text) const {
        const auto path = (work_ / name).string();
        std::ofstream out(path);
        out << text;
        return path;
    }

    fs::path work_;
};

const char* kDummyModel = R"(.model clidum
.inputs a
.outputs x
.dummy eps
.graph
a+ eps
eps x+
x+ a-
a- x-
x- a+
.marking { <x-,a+> }
.end
)";

TEST_F(ReduceCliTest, ReduceFlagSupersedesContract) {
    const std::string path = write("dum.g", kDummyModel);
    const auto reduced =
        run_cli(std::string(STGCC_STGCHECK_BIN) + " " + path + " --reduce");
    const auto contracted = run_cli(std::string(STGCC_STGCHECK_BIN) + " " +
                                    path + " --reduce=contract");
    EXPECT_EQ(reduced.exit_code, 0) << reduced.output;
    EXPECT_EQ(contracted.exit_code, 0) << contracted.output;
    // The retired --contract alias is an unknown option.
    EXPECT_EQ(run_cli(std::string(STGCC_STGCHECK_BIN) + " " + path +
                      " --contract")
                  .exit_code,
              2);
    EXPECT_NE(reduced.output.find("reduction: -1t "), std::string::npos);
    EXPECT_EQ(reduced.output.find("dummies contracted"), std::string::npos);

    const auto bad = run_cli(std::string(STGCC_STGCHECK_BIN) + " " + path +
                             " --reduce=bogus");
    EXPECT_EQ(bad.exit_code, 2);
}

TEST_F(ReduceCliTest, JsonCarriesReductionAccounting) {
    const std::string path = write("dum.g", kDummyModel);
    const std::string json = (work_ / "out.json").string();
    const auto r = run_cli(std::string(STGCC_STGCHECK_BIN) + " " + path +
                           " --reduce --json " + json);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    const auto bytes = cache::read_file_bytes(json);
    ASSERT_TRUE(bytes.has_value());
    const auto parsed = obs::Json::parse(*bytes);
    ASSERT_TRUE(parsed.has_value());
    const obs::Json* body = parsed->find("body");
    ASSERT_NE(body, nullptr);
    const obs::Json* reduction = body->find("reduction");
    ASSERT_NE(reduction, nullptr) << *bytes;
    EXPECT_EQ(reduction->find("transitions_removed")->as_int(), 1);
    EXPECT_EQ(reduction->find("remaining_dummies")->size(), 0u);
    EXPECT_EQ(body->find("dummies_contracted"), nullptr);
    const obs::Json* passes = reduction->find("passes");
    ASSERT_NE(passes, nullptr);
    EXPECT_GE(passes->size(), 1u);
}

TEST_F(ReduceCliTest, PnmlExtensionDispatchesToPetriChecks) {
    // Loopback: write a known net through the PNML writer, feed the file to
    // stgcheck, and get the Petri-side report (satellite: the previously
    // unreachable PNML reader is now wired into the CLI).
    const auto model = test::tiny_handshake();
    const std::string path = (work_ / "hs.pnml").string();
    petri::save_pnml_file(path, model.system());

    const auto r = run_cli(std::string(STGCC_STGCHECK_BIN) + " " + path);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_NE(r.output.find("petri net:"), std::string::npos);
    EXPECT_NE(r.output.find("deadlock: free"), std::string::npos);

    const std::string json = (work_ / "pnml.json").string();
    const auto rj = run_cli(std::string(STGCC_STGCHECK_BIN) + " " + path +
                            " --json " + json);
    EXPECT_EQ(rj.exit_code, 0) << rj.output;
    const auto bytes = cache::read_file_bytes(json);
    ASSERT_TRUE(bytes.has_value());
    const auto parsed = obs::Json::parse(*bytes);
    ASSERT_TRUE(parsed.has_value());
    const obs::Json* body = parsed->find("body");
    ASSERT_NE(body, nullptr);
    EXPECT_TRUE(body->find("deadlock_free")->as_bool());

    // The usage string documents the dispatch.
    const auto help = run_cli(std::string(STGCC_STGCHECK_BIN) + " --help");
    EXPECT_NE(help.output.find(".pnml"), std::string::npos);
}

TEST_F(ReduceCliTest, BatchAggregateCarriesReductionSummary) {
    (void)write("dum.g", kDummyModel);
    const std::string json = (work_ / "batch.json").string();
    const auto r = run_cli(std::string(STGCC_STGBATCH_BIN) + " " +
                           work_.string() + " --reduce --quiet --json " +
                           json);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    const auto bytes = cache::read_file_bytes(json);
    ASSERT_TRUE(bytes.has_value());
    const auto parsed = obs::Json::parse(*bytes);
    ASSERT_TRUE(parsed.has_value());
    const obs::Json* summary = parsed->find("body")->find("summary");
    ASSERT_NE(summary, nullptr);
    const obs::Json* reduction = summary->find("reduction");
    ASSERT_NE(reduction, nullptr) << *bytes;
    EXPECT_EQ(reduction->find("models_reduced")->as_int(), 1);
    EXPECT_EQ(reduction->find("transitions_removed")->as_int(), 1);
}

}  // namespace
}  // namespace stgcc
