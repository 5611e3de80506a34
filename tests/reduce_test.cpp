// Dummy contraction inside verify (docs/ALGORITHMS.md, "Dummy
// contraction"): witness back-translation onto the original net, the one
// options signature, the dummy-free / dummy-laced differential fleet at
// jobs 1 and 8, and the CLI (retired --reduce flags, .pnml dispatch).
#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <iterator>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "core/verdict.hpp"
#include "core/verifier.hpp"
#include "petri/pnml.hpp"
#include "stg/astg.hpp"
#include "stg/builder.hpp"
#include "stg/contraction.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "svc/protocol.hpp"
#include "test_util.hpp"

namespace stgcc {
namespace {

namespace fs = std::filesystem;

// --- contraction ------------------------------------------------------------

TEST(ReducePasses, SeriesContractsOnlySingletonDummies) {
    // eps joins two branches (|*eps| = 2): the general contraction removes
    // it with 2x1 product places.
    stg::StgBuilder b("series-vs-contract");
    b.input("a").input("c").output("x").dummy("eps");
    b.arc("a+", "eps").arc("c+", "eps").arc("eps", "x+");
    b.chain({"x+", "a-", "c-", "x-"});
    b.arc("x-", "a+").arc("x-", "c+");
    b.token_between("x-", "a+");
    b.token_between("x-", "c+");
    const auto model = b.build();

    const auto contract = stg::contract_dummies(model);
    EXPECT_EQ(contract.contracted, 1u);
    EXPECT_FALSE(contract.stg.has_dummies());
    EXPECT_EQ(contract.map.removed,
              std::vector<petri::TransitionId>{
                  model.net().find_transition("eps")});
}

// --- witness back-translation ----------------------------------------------

TEST(WitnessChain, TranslatedTracesReplayOnInput) {
    // a+ -> eps -> x+ -> a- -> x- -> (back); contraction removes eps.
    stg::StgBuilder b("chain-dummy");
    b.input("a").output("x").dummy("eps");
    b.chain({"a+", "eps", "x+", "a-", "x-", "a+"});
    b.token_between("x-", "a+");
    const auto model = b.build();

    const auto contraction = stg::contract_dummies(model);
    ASSERT_EQ(contraction.contracted, 1u);
    const stg::WitnessMap& map = contraction.map;

    // Contracted trace a+ x+: on the input net the removed dummy must be
    // spliced in before x+ becomes enabled.
    const auto a_plus = contraction.stg.net().find_transition("a+");
    const auto x_plus = contraction.stg.net().find_transition("x+");
    ASSERT_NE(a_plus, petri::kNoTransition);
    ASSERT_NE(x_plus, petri::kNoTransition);
    const auto lifted = map.translate(model, {a_plus, x_plus});
    ASSERT_TRUE(lifted.has_value());
    const auto replayed = model.system().fire_sequence(lifted->trace);
    ASSERT_TRUE(replayed.has_value());
    EXPECT_TRUE(*replayed == lifted->marking);
    // The lifted trace contains the dummy: strictly longer than the input.
    EXPECT_GT(lifted->trace.size(), 2u);

    // The empty trace tau-closes past an initially enabled dummy chain --
    // here nothing is initially enabled, so it stays empty.
    const auto empty = map.translate(model, {});
    ASSERT_TRUE(empty.has_value());
    EXPECT_TRUE(empty->marking == model.system().initial_marking());
}

// --- centralized options signature (one spelling) ---------------------------

TEST(OptionsSignature, OneSpellingSharedByAllCaches) {
    const auto sig = [](const svc::CheckOptions& c) {
        return core::options_signature(c.verify_options());
    };
    svc::CheckOptions copts;
    EXPECT_EQ(sig(copts), "v3;normalcy=1;deadlock=0;persistency=0");
    svc::CheckOptions deadlock = copts;
    deadlock.deadlock = true;
    EXPECT_EQ(sig(deadlock), "v3;normalcy=1;deadlock=1;persistency=0");

    // to_json/from_json round-trips the signature, and a protocol-2
    // "reduce" member is ignored.
    obs::Json j = deadlock.to_json();
    EXPECT_EQ(j.find("reduce"), nullptr);
    EXPECT_EQ(sig(svc::CheckOptions::from_json(&j)), sig(deadlock));
    j.set("reduce", "all");
    EXPECT_EQ(sig(svc::CheckOptions::from_json(&j)), sig(deadlock));
}

// --- differential fleet: reduce on/off, jobs 1 and 8 ------------------------

int fleet_iters() {
    const char* env = std::getenv("STGCC_FLEET_ITERS");
    return env ? std::atoi(env) : 6;
}

class ReduceDifferentialTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(ReduceDifferentialTest, ReduceIsInvisibleOnDummyFreeModels) {
    // Dummy-free generated models across the choice/sync knob sweep: no
    // contraction runs, so no report carries a "reduction" line or object,
    // and jobs 1 and 8 render byte-identically.
    const unsigned seed = GetParam();
    test::RandomStgConfig cfg;
    cfg.machines = 2 + static_cast<int>(seed % 2);
    cfg.signals_per_machine = 3;
    cfg.branch_probability = 0.25 + 0.2 * static_cast<double>(seed % 3);
    cfg.sync_transitions = static_cast<int>(seed % 3);
    cfg.dummy_probability = 0.0;
    const auto model = test::random_stg(seed, cfg);

    std::string first;
    for (const unsigned jobs : {1u, 8u}) {
        core::VerifyOptions opts;
        opts.jobs = jobs;
        opts.check_deadlock = true;
        const auto report = core::verify_stg(model, opts);
        const std::string text = core::format_report(model, report);
        EXPECT_FALSE(report.reduced_stg.has_value()) << "seed=" << seed;
        EXPECT_EQ(text.find("reduction:"), std::string::npos)
            << "seed=" << seed;
        EXPECT_EQ(core::report_json(model, report).find("reduction"), nullptr)
            << "seed=" << seed;
        if (first.empty())
            first = text;
        else
            EXPECT_EQ(first, text) << "jobs-dependent output, seed=" << seed;
    }
}

/// Strip the reduction accounting line ("reduction: ..."): the pins below
/// cover the verdicts, witnesses and prefix sizes.
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

/// FNV-1a of each dummy-laced fleet model's report (deadlock check on, the
/// reduction line stripped), taken with the contraction-only pipeline of
/// the `--reduce=contract` CLI: verdicts and witnesses must not move.
/// Seeds past the table (STGCC_FLEET_ITERS > 12) are checked for replay
/// and jobs-independence only.
std::uint64_t pinned_report_hash(unsigned seed) {
    static const std::uint64_t pins[] = {
        12890602734931901475ull, 3807025181182050973ull,
        17585246427536372922ull, 5777481610717333220ull,
        17586013102822071610ull, 18085478209630681274ull,
        10812860155886120773ull, 10169960021508441868ull,
        8545446896262552783ull,  8360834208787107033ull,
        11451832026623289113ull, 15078624759408472729ull,
    };
    const unsigned i = seed - 9000u;
    return i < std::size(pins) ? pins[i] : 0;
}

TEST_P(ReduceDifferentialTest, AllAndContractAgreeOnDummyModels) {
    // Dummy-carrying models: the default run contracts them, renders the
    // same verdicts and witnesses as the pinned contraction-only run, at
    // jobs 1 and 8 -- and every witness replays on the ORIGINAL net.
    const unsigned seed = GetParam();
    test::RandomStgConfig cfg;
    cfg.machines = 2;
    cfg.signals_per_machine = 3;
    cfg.sync_transitions = static_cast<int>(seed % 3);
    cfg.dummy_probability = 0.3;
    const auto model = test::random_stg(seed, cfg);
    ASSERT_TRUE(model.has_dummies()) << "seed=" << seed;

    std::string first;
    for (const unsigned jobs : {1u, 8u}) {
        core::VerifyOptions opts;
        opts.jobs = jobs;
        opts.check_deadlock = true;
        const auto report = core::verify_stg(model, opts);
        ASSERT_TRUE(report.reduced_stg.has_value()) << "seed=" << seed;
        const std::string text =
            strip_reduction_line(core::format_report(model, report));
        if (const std::uint64_t pin = pinned_report_hash(seed)) {
            EXPECT_EQ(cache::fnv1a64(text), pin) << "seed=" << seed << "\n"
                                                 << text;
        }
        if (first.empty())
            first = text;
        else
            EXPECT_EQ(first, text) << "jobs-dependent output, seed=" << seed;

        if (!report.usc.holds) {
            const auto& w = *report.usc.witness;
            const auto m1 = model.system().fire_sequence(w.trace1);
            const auto m2 = model.system().fire_sequence(w.trace2);
            ASSERT_TRUE(m1 && m2) << "witness does not replay on the "
                                     "original net, seed=" << seed;
            EXPECT_FALSE(*m1 == *m2) << "seed=" << seed;
            EXPECT_EQ(model.change_vector(w.trace1),
                      model.change_vector(w.trace2))
                << "seed=" << seed;
        }
        if (report.deadlock_checked && !report.deadlock_free) {
            EXPECT_TRUE(
                model.system().fire_sequence(report.deadlock_trace).has_value())
                << "seed=" << seed;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReduceDifferentialTest,
                         ::testing::Range(9000u, 9000u + static_cast<unsigned>(
                                                             fleet_iters())));

// --- CLI: dummy models, retired flags and .pnml dispatch ----------------------

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
        work_ = test::test_temp_path("stgcc_reduce_cli_");
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

/// The lines of a report that carry verdicts (not sizes or accounting).
std::string verdict_lines(const std::string& report) {
    std::string out;
    std::size_t pos = 0;
    while (pos < report.size()) {
        std::size_t end = report.find('\n', pos);
        if (end == std::string::npos) end = report.size();
        const std::string line = report.substr(pos, end - pos);
        pos = end + 1;
        for (const char* head : {"consistency:", "USC:", "CSC:", "normalcy:",
                                 "  x:"})
            if (line.rfind(head, 0) == 0) {
                out += line;
                out += '\n';
            }
    }
    return out;
}

TEST_F(ReduceCliTest, RetiredReduceFlagsExitTwo) {
    const std::string path = write("dum.g", kDummyModel);
    for (const std::string tool : {STGCC_STGCHECK_BIN, STGCC_STGBATCH_BIN})
        for (const char* flag : {"--reduce", "--reduce=contract", "--no-reduce",
                                 "--contract"}) {
            const auto r = run_cli(tool + " " + path + " " + flag);
            EXPECT_EQ(r.exit_code, 2) << tool << " " << flag << "\n" << r.output;
            EXPECT_NE(r.output.find("unknown option"), std::string::npos)
                << flag;
        }
    // Without any flag the dummy is contracted.
    const auto plain =
        run_cli(std::string(STGCC_STGCHECK_BIN) + " " + path);
    EXPECT_EQ(plain.exit_code, 0) << plain.output;
    EXPECT_NE(plain.output.find("reduction: -1t -1p\n"), std::string::npos)
        << plain.output;
}

TEST_F(ReduceCliTest, ConstantSelfLoopModelKeepsItsVerdicts) {
    // eps also loops on the marked place `loop`, which nothing else
    // touches: contraction drops the loop and removes eps.  The verdict
    // lines are the ones `--reduce` (all passes) printed for this model.
    const std::string path = write("loop.g", R"(.model clidum-loop
.inputs a
.outputs x
.dummy eps
.graph
a+ eps
eps x+
x+ a-
a- x-
x- a+
loop eps
eps loop
.marking { <x-,a+> loop }
.end
)");
    const auto r = run_cli(std::string(STGCC_STGCHECK_BIN) + " " + path);
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_EQ(verdict_lines(r.output),
              "consistency: ok, v0 = 00\n"
              "USC: holds\n"
              "CSC: holds\n"
              "normalcy: holds\n"
              "  x: p-normal\n")
        << r.output;
}

TEST_F(ReduceCliTest, JsonCarriesReductionAccounting) {
    const std::string path = write("dum.g", kDummyModel);
    const std::string json = (work_ / "out.json").string();
    const auto r = run_cli(std::string(STGCC_STGCHECK_BIN) + " " + path +
                           " --json " + json);
    ASSERT_EQ(r.exit_code, 0) << r.output;
    const auto bytes = cache::read_file_bytes(json);
    ASSERT_TRUE(bytes.has_value());
    const auto parsed = obs::Json::parse(*bytes);
    ASSERT_TRUE(parsed.has_value());
    const obs::Json* body = parsed->find("body");
    ASSERT_NE(body, nullptr);
    const obs::Json* reduction = body->find("reduction");
    ASSERT_NE(reduction, nullptr) << *bytes;
    EXPECT_EQ(reduction->dump(),
              R"({"transitions_removed":1,"places_removed":1})");
    EXPECT_EQ(body->find("dummies_contracted"), nullptr);
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
                           work_.string() + " --quiet --json " + json);
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
    EXPECT_EQ(reduction->find("remaining_dummies"), nullptr);
}

}  // namespace
}  // namespace stgcc
