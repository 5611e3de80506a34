// Dummy-contraction benchmark (docs/ALGORITHMS.md, "Dummy contraction"):
// what contracting before unfolding buys.  A dummy-laced handshake family
// is unfolded raw and verified (which contracts it): events removed from
// the complete prefix (the paper's |E|) and the end-to-end verify time.
//
// Verdicts are asserted identical to the same family without dummies while
// measuring -- a benchmark run doubles as a differential check.  Writes
// BENCH_reduce.json.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/verifier.hpp"
#include "stg/builder.hpp"
#include "unfolding/unfolder.hpp"
#include "util/stopwatch.hpp"

using namespace stgcc;

namespace {

/// n independent four-phase handshakes, each with a dummy spliced between
/// the request and the acknowledge (a series dummy: |*e| = |e*| = 1), or
/// without the dummies when `dummies` is false.
stg::Stg dummy_pipeline(int n, bool dummies = true) {
    stg::StgBuilder b("dummy_pipe" + std::to_string(n));
    for (int i = 0; i < n; ++i) {
        const std::string s = std::to_string(i);
        b.input("r" + s).output("a" + s);
        if (dummies) b.dummy("e" + s);
    }
    for (int i = 0; i < n; ++i) {
        const std::string s = std::to_string(i);
        if (dummies)
            b.chain({"r" + s + "+", "e" + s, "a" + s + "+", "r" + s + "-",
                     "a" + s + "-", "r" + s + "+"});
        else
            b.chain({"r" + s + "+", "a" + s + "+", "r" + s + "-",
                     "a" + s + "-", "r" + s + "+"});
        b.token_between("a" + s + "-", "r" + s + "+");
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
    std::printf("Dummy contraction, dummy-laced handshake family\n");
    benchutil::rule(64);
    std::printf("  %-14s %10s %14s %10s %10s\n", "model", "|E| raw",
                "|E| contract", "removed", "verify");
    for (const int n : {2, 4, 6}) {
        const auto model = dummy_pipeline(n);
        const auto raw_prefix = unf::unfold(model.system());

        Stopwatch timer;
        const auto contracted = core::verify_stg(model);
        const double seconds = timer.seconds();
        const auto plain = core::verify_stg(dummy_pipeline(n, false));

        const std::size_t removed =
            raw_prefix.num_events() - contracted.prefix.events;
        const std::size_t transitions_removed =
            model.net().num_transitions() -
            contracted.reduced_stg->net().num_transitions();
        const bool agree = verdict_string(contracted) == verdict_string(plain);
        std::printf("  %-14s %10zu %14zu %10zu %9s%s\n",
                    ("dummy_pipe" + std::to_string(n)).c_str(),
                    raw_prefix.num_events(), contracted.prefix.events, removed,
                    benchutil::fmt_time(seconds).c_str(),
                    agree ? "" : "  VERDICT MISMATCH");
        report.add_row(obs::Json::object()
                           .set("benchmark", "prefix_shrink_dummy")
                           .set("model", "dummy_pipe" + std::to_string(n))
                           .set("events_raw", raw_prefix.num_events())
                           .set("events_contract", contracted.prefix.events)
                           .set("events_removed", removed)
                           .set("transitions_removed", transitions_removed)
                           .set("verify_seconds", seconds)
                           .set("verdicts_identical", agree));
    }

    std::printf("\n");
    report.write();
    return 0;
}
