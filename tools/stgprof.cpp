// stgprof: offline execution profiler over the artefacts
// the toolchain already emits -- Chrome trace-event JSON (`--trace`),
// `stgcheck` / `stgbatch --json` report envelopes and `BENCH_*.json`
// files.  Input kinds are auto-detected; any mix can be passed together
// (typically a corpus run's trace plus its aggregate report).
//
// Default mode prints the execution profile: parallel-efficiency and
// speedup bounds from the scheduler's work-span tallies, the critical path,
// queue-delay percentiles and per-span self time.  `--compare A B` instead
// triages a regression between two stgbatch reports: --compare is a switch
// over exactly two positional files; --threshold goes only with it and
// --reemit only without it.  The flags are parsed by svc::parse_args
// (svc/cli.hpp); --threshold's number is checked here.  The
// analysis lives in src/obs/profile.cpp; docs/OBSERVABILITY.md has the
// workflow.
//
// Exit codes: 0 = report printed, 2 = usage or input error.
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "obs/profile.hpp"
#include "svc/cli.hpp"

namespace {

using namespace stgcc;

std::optional<obs::Json> load_json(const char* path) {
    obs::InputSet probe;
    std::string error;
    if (!obs::load_input(path, probe, error)) {
        std::cerr << "error: " << error << "\n";
        return std::nullopt;
    }
    if (!probe.batch) {
        std::cerr << "error: --compare needs stgbatch --json reports: "
                  << path << "\n";
        return std::nullopt;
    }
    return std::move(*probe.batch);
}

}  // namespace

int main(int argc, char** argv) {
    std::vector<const char*> inputs;
    bool compare = false;
    const char *threshold_text = nullptr, *reemit_path = nullptr;
    const svc::CliTool tool{
        "usage: stgprof <artefact.json>... [options]\n"
        "       stgprof --compare A.json B.json [--threshold R]\n"
        "\n"
        "artefacts are auto-detected: Chrome traces (--trace output),\n"
        "stgcheck/stgbatch --json reports, BENCH_*.json files\n",
        "no input files",
        {{"--compare",
          "regression triage between the two stgbatch reports\n"
          "A and B instead of the profile",
          &compare},
         {"--threshold",
          "per-model regression ratio for --compare\n"
          "(default: 1.25)",
          &threshold_text, "R"},
         {"--reemit",
          "re-emit the parsed trace to FILE (byte-stable\n"
          "round trip; pipeline interposition)",
          &reemit_path, "FILE"}},
        "exit codes: 0 = report printed, 2 = usage/input error\n",
        &inputs};
    if (const auto rc = svc::parse_args(argc, argv, tool)) return *rc;
    // Each mode takes only its own flags: --reemit needs a trace, which
    // --compare's two reports never are, and --threshold only steers
    // --compare.
    if (compare && reemit_path) {
        std::cerr << "--reemit cannot be combined with --compare\n";
        return 2;
    }
    if (!compare && threshold_text) {
        std::cerr << "--threshold needs --compare\n";
        return 2;
    }
    double threshold = 1.25;
    if (threshold_text) {
        char* end = nullptr;
        threshold = std::strtod(threshold_text, &end);
        // NaN would slip past `<= 0.0` and make --compare flag nothing.
        if (*end != '\0' || !std::isfinite(threshold) || threshold <= 0.0) {
            std::cerr << "bad --threshold value: " << threshold_text << "\n";
            return 2;
        }
    }

    if (compare) {
        if (inputs.size() != 2) {
            std::cerr << "--compare needs exactly two files\n";
            return 2;
        }
        const auto a = load_json(inputs[0]);
        const auto b = load_json(inputs[1]);
        if (!a || !b) return 2;
        std::cout << obs::compare_reports(*a, *b, threshold);
        return 0;
    }

    obs::InputSet in;
    for (const char* path : inputs) {
        std::string error;
        if (!obs::load_input(path, in, error)) {
            std::cerr << "error: " << error << "\n";
            return 2;
        }
    }
    if (reemit_path) {
        if (!in.trace) {
            std::cerr << "error: --reemit needs a trace input\n";
            return 2;
        }
        std::ofstream out(reemit_path);
        if (!out) {
            std::cerr << "error: cannot write " << reemit_path << "\n";
            return 2;
        }
        out << obs::to_chrome_json(*in.trace);
    }
    std::cout << obs::profile_report(in);
    return 0;
}
