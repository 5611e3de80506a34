// Search-kernel microbenchmark (ROADMAP item 3): the speed of the
// Unf-compatible search itself, separated from the size of its tree.
//
// Per conflict-free counterflow model (models/cf_*_csc.g, the six CF rows
// of Table 1) and per check (USC, normalcy) at jobs 1 with default options:
// search nodes, leaves and ns/node.  Node and leaf counts are deterministic
// and must equal tests/golden/search_counts.json (the nightly job fails when
// they differ); ns/node is the kernel speed and is reported, not gated -- a
// shared host is too noisy for a timing gate.  Each solve runs --reps times
// (default 3); the fastest run is reported, and next to it the median and
// the interquartile range of all runs, so the spread of one invocation is
// visible.  A claim about kernel speed is taken from alternating perfbench
// `exhaustive` pairs (EXPERIMENTS.md), not from these figures.
//
// Usage: bench_kernels [--reps N] [MODELS_DIR].  Writes BENCH_kernels.json.
// N is a whole positive decimal; --help prints the usage and exits 0, and
// any other option, a bad N or a second directory exits 2.
#include <algorithm>
#include <charconv>
#include <cstdio>
#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "core/checkers.hpp"
#include "stg/astg.hpp"

using namespace stgcc;

namespace {

namespace fs = std::filesystem;

constexpr const char* kUsage = "usage: bench_kernels [--reps N] [MODELS_DIR]\n";

double ns_per(double seconds, std::size_t n) {
    return n == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(n);
}

/// One solve timed over its reps: the stats of the last run (every run
/// grows the same tree) and the fastest, median and quartile times.
struct Reps {
    stg::CheckStats stats;
    double fastest = 0, median = 0, q1 = 0, q3 = 0;
};

/// The p-quantile of sorted times, interpolating between neighbours.
double quantile(const std::vector<double>& sorted, double p) {
    const double at = p * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(at);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    return sorted[lo] + (at - static_cast<double>(lo)) * (sorted[hi] - sorted[lo]);
}

template <typename Run>
Reps time_reps(int reps, Run run) {
    Reps out;
    std::vector<double> times;
    for (int r = 0; r < reps; ++r) {
        Stopwatch w;
        out.stats = run();
        times.push_back(w.seconds());
    }
    std::sort(times.begin(), times.end());
    out.fastest = times.front();
    out.median = quantile(times, 0.5);
    out.q1 = quantile(times, 0.25);
    out.q3 = quantile(times, 0.75);
    return out;
}

/// A whole positive decimal spanning all of `s`, else 0.
int parse_reps(std::string_view s) {
    int n = 0;
    const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), n);
    return ec == std::errc{} && end == s.data() + s.size() && n > 0 ? n : 0;
}

}  // namespace

int main(int argc, char** argv) {
    int reps = benchutil::kReps;
    std::string dir = STGCC_MODELS_DIR;
    bool dir_given = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view a = argv[i];
        if (a == "--help" || a == "-h") {
            std::fputs(kUsage, stdout);
            return 0;
        }
        if (a == "--reps") {
            reps = i + 1 < argc ? parse_reps(argv[++i]) : 0;
            if (reps > 0) continue;
        } else if (!a.starts_with("-") && !dir_given) {
            dir = a;
            dir_given = true;
            continue;
        }
        std::fputs(kUsage, stderr);
        return 2;
    }
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
        const std::string stem = entry.path().stem().string();
        if (entry.path().extension() == ".g" && stem.rfind("cf_", 0) == 0)
            files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    if (files.empty()) {
        std::fprintf(stderr, "bench_kernels: no cf_*.g models under %s\n",
                     dir.c_str());
        return 2;
    }

    benchutil::BenchReport report("kernels");
    std::printf("Search kernels at jobs 1 (fastest, median and IQR of %d)\n",
                reps);
    benchutil::rule(96);
    std::printf("  %-16s %-9s %10s %10s %10s %10s %10s %8s\n", "model",
                "check", "nodes", "leaves", "time", "ns/node", "median", "IQR");
    for (const fs::path& file : files) {
        const std::string model = file.stem().string();
        const stg::Stg stg = stg::load_astg_file(file.string());
        const auto artifacts = std::make_shared<const cache::PrefixArtifacts>(stg);
        const core::UnfoldingChecker checker(artifacts);

        const Reps usc = time_reps(reps, [&] { return checker.check_usc().stats; });
        const Reps nrm =
            time_reps(reps, [&] { return checker.check_normalcy().stats; });
        for (const auto& [check, s] :
             {std::pair<const char*, const Reps&>{"usc", usc}, {"normalcy", nrm}}) {
            const std::size_t nodes = s.stats.search_nodes;
            const double ns = ns_per(s.fastest, nodes);
            const double median = ns_per(s.median, nodes);
            const double iqr = ns_per(s.q3, nodes) - ns_per(s.q1, nodes);
            std::printf("  %-16s %-9s %10zu %10zu %10s %10.0f %10.0f %8.0f\n",
                        model.c_str(), check, nodes, s.stats.leaves,
                        benchutil::fmt_time(s.fastest).c_str(), ns, median, iqr);
            report.add_row(obs::Json::object()
                               .set("benchmark", "solve")
                               .set("model", model)
                               .set("check", check)
                               .set("search_nodes", nodes)
                               .set("leaves", s.stats.leaves)
                               .set("seconds", s.fastest)
                               .set("ns_per_node", ns)
                               .set("ns_per_node_median", median)
                               .set("ns_per_node_iqr", iqr));
        }
    }
    benchutil::rule(96);
    std::printf("\n");
    report.write();
    return 0;
}
