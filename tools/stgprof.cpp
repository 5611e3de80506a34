// stgprof: offline execution profiler over the artefacts
// the toolchain already emits -- Chrome trace-event JSON (`--trace`),
// `stgcheck` / `stgbatch --json` report envelopes and `BENCH_*.json`
// files.  Input kinds are auto-detected; any mix can be passed together
// (typically a corpus run's trace plus its aggregate report).
//
// Default mode prints the execution profile: parallel-efficiency and
// speedup bounds from the scheduler's work-span tallies, the critical path,
// queue-delay percentiles and per-span self time.  `--compare A B` instead
// triages a regression between two stgbatch reports.  The analysis lives
// in src/obs/profile.cpp; docs/OBSERVABILITY.md has the workflow.
//
// Exit codes: 0 = report printed, 2 = usage or input error.
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "obs/profile.hpp"

namespace {

using namespace stgcc;

void print_usage(std::ostream& out) {
    out << "usage: stgprof <artefact.json>... [options]\n"
           "       stgprof --compare A.json B.json [--threshold R]\n"
           "\n"
           "artefacts are auto-detected: Chrome traces (--trace output),\n"
           "stgcheck/stgbatch --json reports, BENCH_*.json files\n"
           "\n"
           "options:\n"
           "  --compare A B    regression triage between two stgbatch\n"
           "                   reports instead of the profile\n"
           "  --threshold R    per-model regression ratio for --compare\n"
           "                   (default: 1.25)\n"
           "  --reemit FILE    re-emit the parsed trace to FILE (byte-\n"
           "                   stable round trip; pipeline interposition)\n"
           "\n"
           "exit codes: 0 = report printed, 2 = usage/input error\n";
}

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
    if (argc < 2) {
        print_usage(std::cerr);
        return 2;
    }
    std::vector<const char*> inputs;
    const char* compare_a = nullptr;
    const char* compare_b = nullptr;
    const char* reemit_path = nullptr;
    double threshold = 1.25;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
            print_usage(std::cout);
            return 0;
        } else if (!std::strcmp(argv[i], "--compare") && i + 2 < argc) {
            compare_a = argv[++i];
            compare_b = argv[++i];
        } else if (!std::strcmp(argv[i], "--threshold") && i + 1 < argc) {
            char* end = nullptr;
            threshold = std::strtod(argv[++i], &end);
            // NaN would slip past `<= 0.0` and make --compare flag nothing.
            if (!end || *end != '\0' || !std::isfinite(threshold) ||
                threshold <= 0.0) {
                std::cerr << "bad --threshold value\n";
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--reemit") && i + 1 < argc) {
            reemit_path = argv[++i];
        } else if (argv[i][0] != '-') {
            inputs.push_back(argv[i]);
        } else {
            std::cerr << "unknown option: " << argv[i] << "\n";
            print_usage(std::cerr);
            return 2;
        }
    }

    if (compare_a) {
        const auto a = load_json(compare_a);
        const auto b = load_json(compare_b);
        if (!a || !b) return 2;
        std::cout << obs::compare_reports(*a, *b, threshold);
        return 0;
    }

    if (inputs.empty()) {
        std::cerr << "no input files\n";
        print_usage(std::cerr);
        return 2;
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
