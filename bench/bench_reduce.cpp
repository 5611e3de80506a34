// Reduction benchmark (docs/REDUCTIONS.md): quantifies what the pass
// manager buys at each layer.
//
//  * prefix shrink -- a dummy-laced handshake family is unfolded raw and
//    after the contract / series pipelines: events removed from the
//    complete prefix (the paper's |E|) and the end-to-end verify time.
//  * redundant-place shrink -- a family carrying duplicate and constant
//    places: conditions removed from the prefix with reduce=all vs off.
//  * semantic cache -- two textually different spellings of each model
//    (rotated construction order) hash differently pre-reduction but map
//    onto one reduced net; the second spelling must warm-hit the shared
//    stgcore tier.
//
// Verdicts are asserted identical across every variant while measuring --
// a benchmark run doubles as a differential check.  Writes
// BENCH_reduce.json.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cache/result_cache.hpp"
#include "core/verifier.hpp"
#include "stg/astg.hpp"
#include "stg/builder.hpp"
#include "stg/reduce/reduce.hpp"
#include "unfolding/unfolder.hpp"
#include "util/stopwatch.hpp"

using namespace stgcc;

namespace {

namespace fs = std::filesystem;

/// n independent four-phase handshakes, each with a dummy spliced between
/// the request and the acknowledge (series-agglomerable: |*e| = |e*| = 1).
/// `reversed` rotates the arc insertion order -- same net, same signal
/// order, different source text (and thus a different content hash).
stg::Stg dummy_pipeline(int n, bool reversed = false) {
    stg::StgBuilder b("dummy_pipe" + std::to_string(n));
    for (int i = 0; i < n; ++i) {
        const std::string s = std::to_string(i);
        b.input("r" + s).output("a" + s).dummy("e" + s);
    }
    auto add_stage = [&](int i) {
        const std::string s = std::to_string(i);
        b.chain({"r" + s + "+", "e" + s, "a" + s + "+", "r" + s + "-",
                 "a" + s + "-", "r" + s + "+"});
        b.token_between("a" + s + "-", "r" + s + "+");
    };
    for (int i = 0; i < n; ++i) add_stage(reversed ? n - 1 - i : i);
    return b.build();
}

/// n handshakes where each stage carries a duplicate of its marked return
/// place plus a constant self-loop place -- 2n removable places, zero
/// removable transitions.
stg::Stg redundant_handshakes(int n) {
    stg::StgBuilder b("redundant" + std::to_string(n));
    for (int i = 0; i < n; ++i) {
        const std::string s = std::to_string(i);
        b.input("r" + s).output("a" + s);
    }
    for (int i = 0; i < n; ++i) {
        const std::string s = std::to_string(i);
        b.chain({"r" + s + "+", "a" + s + "+", "r" + s + "-", "a" + s + "-",
                 "r" + s + "+"});
        b.token_between("a" + s + "-", "r" + s + "+");
        b.place("dup" + s, 1);
        b.arc("a" + s + "-", "dup" + s).arc("dup" + s, "r" + s + "+");
        b.place("cst" + s, 1);
        b.arc("cst" + s, "r" + s + "+").arc("r" + s + "+", "cst" + s);
    }
    return b.build();
}

std::string verdict_string(const core::VerificationReport& r) {
    return std::string(r.usc.holds ? "U" : "u") + (r.csc.holds ? "C" : "c");
}

}  // namespace

int main() {
    benchutil::BenchReport report("reduce");

    // --- prefix shrink on the dummy-laced family -------------------------
    std::printf("Reduction pass manager, dummy-laced handshake family\n");
    benchutil::rule(78);
    std::printf("  %-14s %10s %14s %12s %10s %10s\n", "model", "|E| raw",
                "|E| contract", "|E| series", "removed", "verify");
    for (const int n : {2, 4, 6}) {
        const auto model = dummy_pipeline(n);
        const auto raw_prefix = unf::unfold(model.system());

        core::VerifyOptions contract;
        contract.reduce = stg::reduce::Options::parse("contract");
        Stopwatch timer;
        const auto r_contract = core::verify_stg(model, contract);
        const double seconds = timer.seconds();

        core::VerifyOptions series;
        series.reduce = stg::reduce::Options::parse("series");
        const auto r_series = core::verify_stg(model, series);

        const std::size_t removed =
            raw_prefix.num_events() - r_contract.prefix.events;
        const bool agree =
            verdict_string(r_contract) == verdict_string(r_series);
        std::printf("  %-14s %10zu %14zu %12zu %10zu %9s%s\n",
                    ("dummy_pipe" + std::to_string(n)).c_str(),
                    raw_prefix.num_events(), r_contract.prefix.events,
                    r_series.prefix.events, removed,
                    benchutil::fmt_time(seconds).c_str(),
                    agree ? "" : "  VERDICT MISMATCH");
        report.add_row(obs::Json::object()
                           .set("benchmark", "prefix_shrink_dummy")
                           .set("model", "dummy_pipe" + std::to_string(n))
                           .set("events_raw", raw_prefix.num_events())
                           .set("events_contract", r_contract.prefix.events)
                           .set("events_series", r_series.prefix.events)
                           .set("events_removed", removed)
                           .set("transitions_removed",
                                r_contract.reduction.transitions_removed())
                           .set("verify_seconds", seconds)
                           .set("verdicts_identical", agree));
    }

    // --- condition shrink on the redundant-place family ------------------
    std::printf("\nRedundant-place family, reduce=all vs off\n");
    benchutil::rule(78);
    std::printf("  %-14s %12s %12s %12s %10s %10s\n", "model", "|B| off",
                "|B| all", "places -", "t(off)", "t(all)");
    for (const int n : {2, 4, 6}) {
        const auto model = redundant_handshakes(n);
        Stopwatch t_off;
        const auto r_off = core::verify_stg(model, {});
        const double off_s = t_off.seconds();

        core::VerifyOptions all;
        all.reduce = stg::reduce::Options::all();
        Stopwatch t_all;
        const auto r_all = core::verify_stg(model, all);
        const double all_s = t_all.seconds();

        const bool agree = verdict_string(r_off) == verdict_string(r_all);
        std::printf("  %-14s %12zu %12zu %12zu %10s %9s%s\n",
                    ("redundant" + std::to_string(n)).c_str(),
                    r_off.prefix.conditions, r_all.prefix.conditions,
                    r_all.reduction.places_removed(),
                    benchutil::fmt_time(off_s).c_str(),
                    benchutil::fmt_time(all_s).c_str(),
                    agree ? "" : "  VERDICT MISMATCH");
        report.add_row(obs::Json::object()
                           .set("benchmark", "condition_shrink_places")
                           .set("model", "redundant" + std::to_string(n))
                           .set("conditions_off", r_off.prefix.conditions)
                           .set("conditions_all", r_all.prefix.conditions)
                           .set("places_removed",
                                r_all.reduction.places_removed())
                           .set("verify_seconds_off", off_s)
                           .set("verify_seconds_all", all_s)
                           .set("verdicts_identical", agree));
    }

    // --- semantic cache tier: warm hits on reduced keys ------------------
    std::printf("\nSemantic cache: rotated spellings, reduced-net keys\n");
    benchutil::rule(78);
    const fs::path cache_dir =
        fs::temp_directory_path() /
        ("stgcc_bench_reduce_" + std::to_string(::getpid()));
    fs::remove_all(cache_dir);
    {
        const cache::ResultCache rcache(cache_dir.string());
        std::size_t hits = 0, pairs = 0;
        for (const int n : {2, 4, 6}) {
            const auto a = dummy_pipeline(n, false);
            const auto b = dummy_pipeline(n, true);
            const std::uint64_t ha =
                cache::fnv1a64(stg::write_astg_string(a));
            const std::uint64_t hb =
                cache::fnv1a64(stg::write_astg_string(b));
            core::VerifyOptions opts;
            opts.reduce = stg::reduce::Options::parse("contract");
            sched::Executor ex(opts.jobs);
            bool hit = false;
            const auto ra = core::verify_stg_cached(a, opts, rcache, ex, &hit);
            Stopwatch warm;
            const auto rb = core::verify_stg_cached(b, opts, rcache, ex, &hit);
            const double warm_s = warm.seconds();
            ++pairs;
            if (hit) ++hits;
            const bool agree = verdict_string(ra) == verdict_string(rb);
            std::printf("  dummy_pipe%-4d content hashes %s  warm %-6s %8s%s\n",
                        n, ha == hb ? "EQUAL (bad)" : "differ",
                        hit ? "HIT" : "miss",
                        benchutil::fmt_time(warm_s).c_str(),
                        agree ? "" : "  VERDICT MISMATCH");
            report.add_row(obs::Json::object()
                               .set("benchmark", "semantic_warm_hit")
                               .set("model", "dummy_pipe" + std::to_string(n))
                               .set("content_hashes_differ", ha != hb)
                               .set("warm_hit", hit)
                               .set("warm_seconds", warm_s)
                               .set("verdicts_identical", agree));
        }
        std::printf("  warm-hit rate: %zu/%zu\n", hits, pairs);
        report.add_row(obs::Json::object()
                           .set("benchmark", "semantic_warm_hit_rate")
                           .set("hits", hits)
                           .set("pairs", pairs));
    }
    fs::remove_all(cache_dir);

    std::printf("\n");
    report.write();
    return 0;
}
