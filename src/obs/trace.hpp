// stgcc -- span tracer: RAII scoped spans with nesting, steady-clock
// timestamps and key=value attributes.
//
// Design constraints (see docs/OBSERVABILITY.md):
//   * Zero dependencies; the whole subsystem is this library.
//   * Disabled by default.  A disabled Span costs one relaxed atomic load
//     (the global enable flag) plus one steady_clock read so it can still
//     serve as the stopwatch behind CheckStats::seconds.  `obs::enabled()`
//     means "a trace is being recorded" and nothing else: it guards span
//     recording, flow events, progress ticks and the solver's bound
//     stopwatch, never a metric (src/obs/metrics.hpp).
//   * Recording is process-global and thread-safe; span nesting is tracked
//     per thread.
//
// Exports: the Chrome trace-event JSON format (load the file in
// chrome://tracing or https://ui.perfetto.dev) and an indented
// human-readable tree summary.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "obs/json.hpp"
#include "util/stopwatch.hpp"

namespace stgcc::obs {

namespace detail {
extern std::atomic<bool> g_enabled;
}

/// True while a trace is being recorded (`--trace` on stgcheck and
/// stgbatch).  Only trace-only work checks it; metrics never do.
inline bool enabled() noexcept {
    return detail::g_enabled.load(std::memory_order_relaxed);
}

void set_enabled(bool on);

inline constexpr std::uint32_t kNoSpan = 0xffffffffu;

/// One recorded span (or instant) in the tracer's buffer.
struct SpanRecord {
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t parent = kNoSpan;  ///< index of the enclosing span
    std::uint32_t depth = 0;         ///< nesting depth within its thread
    std::uint32_t tid = 0;           ///< small dense thread number
    bool open = true;                ///< still awaiting end_span
    std::vector<std::pair<std::string, Json>> attrs;
};

/// One flow step: an "s" (begin, at submission) or "f" (end, at execution)
/// Chrome-trace flow event tying a task's submit site to the worker that
/// ran it, across thread rows.
struct FlowRecord {
    std::uint64_t id = 0;    ///< link id shared by the s/f pair
    std::uint64_t ts_ns = 0;
    std::uint32_t tid = 0;
    bool begin = true;       ///< true = "s" (submit), false = "f" (execute)
};

/// Process-global span collector.  All methods are thread-safe.
class Tracer {
public:
    static Tracer& instance();

    /// Drop all recorded spans (the per-thread nesting stacks of live Spans
    /// are untouched; do not clear while spans are open).
    void clear();

    std::uint32_t begin_span(std::string_view name);
    void end_span(std::uint32_t id);
    void add_attr(std::uint32_t id, std::string_view key, Json value);

    /// Register a stable display name for the calling thread; exported as a
    /// Chrome-trace "thread_name" metadata event so Perfetto rows read
    /// "worker-3" instead of a bare tid.  Idempotent; last write wins.
    void set_thread_name(std::string name);

    /// Allocate a fresh flow-link id (never 0).
    [[nodiscard]] std::uint64_t next_flow_id();
    /// Record one side of a flow link on the calling thread.
    void flow(std::uint64_t id, bool begin);

    [[nodiscard]] std::size_t num_spans() const;
    [[nodiscard]] std::vector<SpanRecord> snapshot() const;
    [[nodiscard]] std::vector<FlowRecord> flows() const;

    /// Chrome trace-event JSON ("X" complete events, microsecond
    /// timestamps), one event per line for stable golden-file diffs.
    [[nodiscard]] std::string chrome_trace_json() const;

private:
    Tracer() = default;

    /// Dense tid of the calling thread, assigning the next number on first
    /// use.  Caller holds mu_.
    std::uint32_t tid_locked();

    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
    std::vector<FlowRecord> flows_;
    std::unordered_map<std::thread::id, std::uint32_t> tids_;
    std::unordered_map<std::uint32_t, std::string> thread_names_;
    std::uint64_t next_flow_ = 0;
    Stopwatch epoch_;
};

/// RAII scoped span.  When tracing is disabled the constructor reduces to
/// the flag check plus starting the member stopwatch, and attrs are no-ops.
/// `seconds()` always works, so a Span doubles as the timer behind the
/// legacy CheckStats / SolveStats fields.
class Span {
public:
    explicit Span(const char* name) {
        if (enabled()) id_ = Tracer::instance().begin_span(name);
    }
    ~Span() { finish(); }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /// End the span early (idempotent).
    void finish() {
        if (id_ != kNoSpan) {
            Tracer::instance().end_span(id_);
            id_ = kNoSpan;
        }
    }

    /// Wall-clock seconds since construction; valid regardless of tracing.
    [[nodiscard]] double seconds() const { return watch_.seconds(); }

    [[nodiscard]] bool recording() const noexcept { return id_ != kNoSpan; }

    void attr(const char* key, std::string_view value) {
        if (id_ != kNoSpan)
            Tracer::instance().add_attr(id_, key, Json(std::string(value)));
    }
    void attr(const char* key, const char* value) {
        attr(key, std::string_view(value));
    }
    void attr(const char* key, bool value) {
        if (id_ != kNoSpan) Tracer::instance().add_attr(id_, key, Json(value));
    }
    template <class T,
              std::enable_if_t<std::is_arithmetic_v<T> && !std::is_same_v<T, bool>,
                               int> = 0>
    void attr(const char* key, T value) {
        if (id_ != kNoSpan) Tracer::instance().add_attr(id_, key, Json(value));
    }

private:
    Stopwatch watch_;
    std::uint32_t id_ = kNoSpan;
};

}  // namespace stgcc::obs
