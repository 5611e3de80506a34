// stgcc -- execution-profile analysis behind `tools/stgprof`.
//
// Ingests the three artefact kinds the toolchain emits -- Chrome
// trace-event JSON (`--trace`), `stgcheck --json` / `stgbatch --json`
// report envelopes and `BENCH_*.json` files -- and computes the bottleneck
// attribution the profiler prints: parallel-efficiency bounds from the
// work-span tallies, queue-delay percentiles from the scheduler's flow
// links and per-span self time (docs/OBSERVABILITY.md has the workflow).
//
// The trace model is lossless for everything the Tracer writes: parsing a
// trace and re-emitting it with `to_chrome_json` reproduces the input byte
// for byte, so stgprof can be interposed in artefact pipelines without
// perturbing them (and the round-trip is tested).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace stgcc::obs {

// ---------------------------------------------------------------- traces

/// One Chrome trace event, covering the phases the Tracer emits: "M"
/// thread-name metadata, "X" complete spans and "s"/"f" flow links.
struct TraceEvent {
    enum class Phase { kMeta, kComplete, kFlowBegin, kFlowEnd };
    Phase phase = Phase::kComplete;
    std::string name;           ///< span name; thread name for kMeta
    double ts_us = 0.0;         ///< start, microseconds (unused for kMeta)
    double dur_us = 0.0;        ///< kComplete only
    std::uint32_t tid = 0;
    std::uint64_t flow_id = 0;  ///< flow phases only
    Json args;                  ///< kComplete span attributes (may be Null)
    bool has_args = false;
};

/// A parsed trace, preserving document order so re-emission is
/// byte-stable against the Tracer's own output.
struct Trace {
    std::vector<TraceEvent> events;
};

/// Parse a Chrome trace-event document (the format write_chrome_trace
/// produces).  Returns nullopt on malformed JSON or a missing
/// "traceEvents" array; unknown phases are skipped, not errors.
[[nodiscard]] std::optional<Trace> parse_chrome_trace(const std::string& text);

/// Re-emit in exactly the Tracer's format (field order, "%.3f" timestamps,
/// one event per line).  parse -> emit -> parse is the identity, and
/// emitting an unmodified parse of Tracer output reproduces it byte for
/// byte.
[[nodiscard]] std::string to_chrome_json(const Trace& trace);

// ------------------------------------------------------------- analysis

/// Per-span-name aggregate over a trace.  Self time is the span's duration
/// minus the durations of spans nested inside it on the same thread row.
struct SpanProfile {
    std::string name;
    std::uint64_t count = 0;
    double total_us = 0.0;
    double self_us = 0.0;
};

/// Order statistics of the submit -> start latencies recovered from the
/// scheduler's flow links ("s" at the submit site, "f" where the task
/// started running).
struct QueueDelayStats {
    std::size_t samples = 0;
    double mean_us = 0.0;
    double p50_us = 0.0;
    double p90_us = 0.0;
    double p99_us = 0.0;
    double max_us = 0.0;
};

/// Everything profile_trace computes from one trace.
struct TraceProfile {
    double wall_us = 0.0;    ///< max span end - min span start
    double busy_us = 0.0;    ///< summed per-thread span-interval union
    unsigned threads = 0;    ///< distinct tids carrying complete spans
    unsigned workers = 0;    ///< tids named "worker-*" (0 = serial trace)
    std::vector<SpanProfile> spans;  ///< sorted by self time, descending
    QueueDelayStats queue_delay;
};

[[nodiscard]] TraceProfile profile_trace(const Trace& trace);

/// Percentile over raw samples (linear interpolation between order
/// statistics; q clamped to [0, 1]; 0 for an empty vector).  Exposed for
/// the queue-delay table and its tests.
[[nodiscard]] double sample_quantile(std::vector<double> samples, double q);

// ------------------------------------------------------------- inputs

/// What classify_report recognised inside a JSON input file.
enum class InputKind {
    kTrace,        ///< Chrome trace (object with "traceEvents")
    kBatchReport,  ///< stgbatch envelope (tool == "stgbatch")
    kCheckReport,  ///< stgcheck envelope (tool == "stgcheck")
    kBenchReport,  ///< bench envelope (tool == "bench")
    kUnknown,
};

[[nodiscard]] InputKind classify_report(const Json& doc);

/// The analyzer's working set: any mix of the recognised artefacts.
struct InputSet {
    std::optional<Trace> trace;
    std::string trace_file;
    std::optional<Json> batch;  ///< stgbatch envelope (at most one)
    std::string batch_file;
    std::vector<Json> checks;   ///< stgcheck envelopes
    std::vector<Json> benches;  ///< bench envelopes
};

/// Load one file into the set (auto-detected).  Returns false and fills
/// `error` on IO / parse / classification failure.
bool load_input(const std::string& path, InputSet& in, std::string& error);

/// The ranked bottleneck report over whatever inputs are present; the
/// deterministic text `stgprof` prints.  Always contains a non-empty
/// "bottlenecks" section when any scheduler data is available.
[[nodiscard]] std::string bottleneck_report(const InputSet& in);

/// Regression triage between two stgbatch report envelopes (`--compare`):
/// per-model wall-clock ratios against `threshold`, aggregate efficiency
/// drift, and the dominant regression contributor by bottleneck-share
/// growth.
[[nodiscard]] std::string compare_reports(const Json& a, const Json& b,
                                          double threshold = 1.25);

}  // namespace stgcc::obs
