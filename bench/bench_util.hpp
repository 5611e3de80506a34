// stgcc benches -- shared helpers: fixed-width table printing, guarded
// state-graph construction (large instances report "blow-up" instead of
// hanging the harness), best-of-N timing and reproduction assertions.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "obs/report.hpp"
#include "petri/reachability.hpp"
#include "stg/state_graph.hpp"
#include "util/stopwatch.hpp"

namespace stgcc::benchutil {

/// Default number of timed repetitions; the fastest one is reported.
inline constexpr int kReps = 3;

template <typename T>
struct Timed {
    T value{};
    double seconds = 0.0;
};

/// Runs `run` `reps` times and keeps the result and time of the fastest.
template <typename Run>
auto fastest(int reps, Run run) -> Timed<decltype(run())> {
    Timed<decltype(run())> best;
    for (int r = 0; r < reps; ++r) {
        Stopwatch w;
        auto value = run();
        const double s = w.seconds();
        if (r == 0 || s < best.seconds) best = {std::move(value), s};
    }
    return best;
}

/// A reproduction assertion: when it fails, name it and exit 1.
inline void check(bool cond, const char* what) {
    if (!cond) {
        std::fprintf(stderr, "REPRODUCTION FAILURE: %s\n", what);
        std::exit(1);
    }
}

inline void rule(int width = 100) {
    for (int i = 0; i < width; ++i) std::putchar('-');
    std::putchar('\n');
}

/// Build the state graph unless it exceeds `max_states`; nullopt = blow-up.
inline std::optional<stg::StateGraph> try_state_graph(
    const stg::Stg& model, std::size_t max_states = 5'000'000) {
    petri::ReachOptions opts;
    opts.max_states = max_states;
    try {
        return stg::StateGraph(model, opts);
    } catch (const ModelError&) {
        return std::nullopt;
    }
}

/// Accumulates one JSON row per benchmarked model and writes the whole set
/// as `BENCH_<name>.json` (into $STGCC_BENCH_JSON_DIR or the working
/// directory) so the perf trajectory is machine-trackable across PRs.
class BenchReport {
public:
    explicit BenchReport(std::string name) : name_(std::move(name)) {}

    /// Add a row; typically an object with at least {"model", "seconds"}.
    void add_row(obs::Json row) { rows_.push(std::move(row)); }

    [[nodiscard]] bool empty() const { return rows_.size() == 0; }

    /// Write the report; prints the path (or a warning) and returns it.
    std::string write() {
        const std::string path =
            obs::write_bench_report(name_, std::move(rows_));
        if (path.empty())
            std::fprintf(stderr, "warning: could not write BENCH_%s.json\n",
                         name_.c_str());
        else
            std::printf("machine-readable results: %s\n\n", path.c_str());
        rows_ = obs::Json::array();
        return path;
    }

private:
    std::string name_;
    obs::Json rows_ = obs::Json::array();
};

inline std::string fmt_time(double seconds) {
    char buf[32];
    if (seconds < 1e-3)
        std::snprintf(buf, sizeof buf, "%.0fus", seconds * 1e6);
    else if (seconds < 1.0)
        std::snprintf(buf, sizeof buf, "%.2fms", seconds * 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.2fs", seconds);
    return buf;
}

}  // namespace stgcc::benchutil
