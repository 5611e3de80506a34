#include "obs/profile.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

namespace stgcc::obs {

namespace {

void appendf(std::string& out, const char* fmt, ...) {
    char buf[256];
    va_list ap;
    va_start(ap, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, ap);
    va_end(ap);
    out += buf;
}

bool starts_with(const std::string& s, const char* prefix) {
    return s.rfind(prefix, 0) == 0;
}

double num_or(const Json* j, double fallback = 0.0) {
    return j ? j->as_double() : fallback;
}

std::uint64_t uint_or(const Json* j, std::uint64_t fallback = 0) {
    return j ? j->as_uint() : fallback;
}

}  // namespace

// ---------------------------------------------------------------- traces

std::optional<Trace> parse_chrome_trace(const std::string& text) {
    const std::optional<Json> doc = Json::parse(text);
    if (!doc || doc->kind() != Json::Kind::Object) return std::nullopt;
    const Json* events = doc->find("traceEvents");
    if (!events || events->kind() != Json::Kind::Array) return std::nullopt;
    Trace trace;
    trace.events.reserve(events->size());
    for (std::size_t i = 0; i < events->size(); ++i) {
        const Json& e = events->at(i);
        const Json* ph = e.find("ph");
        if (!ph) continue;
        const std::string& phase = ph->as_string();
        TraceEvent ev;
        ev.tid = static_cast<std::uint32_t>(uint_or(e.find("tid")));
        if (phase == "M") {
            ev.phase = TraceEvent::Phase::kMeta;
            if (const Json* args = e.find("args"))
                if (const Json* name = args->find("name"))
                    ev.name = name->as_string();
        } else if (phase == "X") {
            ev.phase = TraceEvent::Phase::kComplete;
            if (const Json* name = e.find("name")) ev.name = name->as_string();
            ev.ts_us = num_or(e.find("ts"));
            ev.dur_us = num_or(e.find("dur"));
            if (const Json* args = e.find("args")) {
                ev.args = *args;
                ev.has_args = true;
            }
        } else if (phase == "s" || phase == "f") {
            ev.phase = phase == "s" ? TraceEvent::Phase::kFlowBegin
                                    : TraceEvent::Phase::kFlowEnd;
            ev.ts_us = num_or(e.find("ts"));
            ev.flow_id = uint_or(e.find("id"));
        } else {
            continue;  // unknown phases are not ours; skip, don't fail
        }
        trace.events.push_back(std::move(ev));
    }
    return trace;
}

std::string to_chrome_json(const Trace& trace) {
    // Field-for-field the Tracer's own emission (trace.cpp) so that
    // parse -> emit of an unmodified trace is byte-identical.
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    char buf[64];
    for (const TraceEvent& e : trace.events) {
        if (!first) out += ",\n";
        first = false;
        switch (e.phase) {
            case TraceEvent::Phase::kMeta:
                std::snprintf(buf, sizeof buf,
                              "{\"name\":\"thread_name\",\"ph\":\"M\","
                              "\"pid\":1,\"tid\":%u,\"args\":{\"name\":\"",
                              e.tid);
                out += buf;
                out += Json::escape(e.name) + "\"}}";
                break;
            case TraceEvent::Phase::kComplete:
                out += "{\"name\":\"" + Json::escape(e.name) +
                       "\",\"cat\":\"stgcc\",\"ph\":\"X\"";
                std::snprintf(buf, sizeof buf, ",\"ts\":%.3f", e.ts_us);
                out += buf;
                std::snprintf(buf, sizeof buf, ",\"dur\":%.3f", e.dur_us);
                out += buf;
                std::snprintf(buf, sizeof buf, ",\"pid\":1,\"tid\":%u", e.tid);
                out += buf;
                if (e.has_args) out += ",\"args\":" + e.args.dump();
                out += "}";
                break;
            case TraceEvent::Phase::kFlowBegin:
            case TraceEvent::Phase::kFlowEnd: {
                const bool begin = e.phase == TraceEvent::Phase::kFlowBegin;
                out += "{\"name\":\"sched.submit\",\"cat\":\"stgcc\","
                       "\"ph\":\"";
                out += begin ? "s" : "f";
                out += '"';
                if (!begin) out += ",\"bp\":\"e\"";
                std::snprintf(buf, sizeof buf, ",\"id\":%llu,\"ts\":%.3f",
                              static_cast<unsigned long long>(e.flow_id),
                              e.ts_us);
                out += buf;
                std::snprintf(buf, sizeof buf, ",\"pid\":1,\"tid\":%u}",
                              e.tid);
                out += buf;
                break;
            }
        }
    }
    out += "\n]}\n";
    return out;
}

// ------------------------------------------------------------- analysis

double sample_quantile(std::vector<double> samples, double q) {
    if (samples.empty()) return 0.0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    std::sort(samples.begin(), samples.end());
    const double pos = q * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(lo);
    if (lo + 1 >= samples.size()) return samples.back();
    return samples[lo] + frac * (samples[lo + 1] - samples[lo]);
}

TraceProfile profile_trace(const Trace& trace) {
    TraceProfile out;
    std::map<std::uint32_t, std::vector<const TraceEvent*>> by_tid;
    double min_ts = 0.0, max_end = 0.0;
    bool any_span = false;
    for (const TraceEvent& e : trace.events) {
        if (e.phase == TraceEvent::Phase::kMeta) {
            if (starts_with(e.name, "worker-")) ++out.workers;
            continue;
        }
        if (e.phase != TraceEvent::Phase::kComplete) continue;
        by_tid[e.tid].push_back(&e);
        if (!any_span || e.ts_us < min_ts) min_ts = e.ts_us;
        if (!any_span || e.ts_us + e.dur_us > max_end)
            max_end = e.ts_us + e.dur_us;
        any_span = true;
    }
    out.threads = static_cast<unsigned>(by_tid.size());
    if (any_span) out.wall_us = max_end - min_ts;

    // Self time by per-thread interval nesting: spans on one tid form a
    // properly nested forest (the Tracer records them from a per-thread
    // span stack), so a timestamp sweep with a stack recovers the tree.
    std::map<std::string, SpanProfile> agg;
    struct Open {
        double end_us;
        double self_us;
        const TraceEvent* ev;
    };
    for (auto& [tid, evs] : by_tid) {
        std::stable_sort(evs.begin(), evs.end(),
                         [](const TraceEvent* a, const TraceEvent* b) {
                             if (a->ts_us != b->ts_us)
                                 return a->ts_us < b->ts_us;
                             return a->dur_us > b->dur_us;
                         });
        std::vector<Open> stack;
        const auto close_top = [&] {
            const Open top = stack.back();
            stack.pop_back();
            SpanProfile& p = agg[top.ev->name];
            p.name = top.ev->name;
            ++p.count;
            p.total_us += top.ev->dur_us;
            p.self_us += std::max(0.0, top.self_us);
        };
        for (const TraceEvent* ev : evs) {
            while (!stack.empty() && stack.back().end_us <= ev->ts_us + 1e-9)
                close_top();
            if (stack.empty())
                out.busy_us += ev->dur_us;  // top level: new busy interval
            else
                stack.back().self_us -= ev->dur_us;
            stack.push_back(Open{ev->ts_us + ev->dur_us, ev->dur_us, ev});
        }
        while (!stack.empty()) close_top();
    }
    out.spans.reserve(agg.size());
    for (auto& [name, p] : agg) out.spans.push_back(std::move(p));
    std::sort(out.spans.begin(), out.spans.end(),
              [](const SpanProfile& a, const SpanProfile& b) {
                  if (a.self_us != b.self_us) return a.self_us > b.self_us;
                  return a.name < b.name;
              });

    // Queue delays out of the flow links: "s" stamps the submit site, the
    // matching "f" stamps where (and when) the task started running.
    std::unordered_map<std::uint64_t, double> begun;
    std::vector<double> samples;
    for (const TraceEvent& e : trace.events) {
        if (e.phase == TraceEvent::Phase::kFlowBegin)
            begun[e.flow_id] = e.ts_us;
        else if (e.phase == TraceEvent::Phase::kFlowEnd) {
            const auto it = begun.find(e.flow_id);
            if (it != begun.end())
                samples.push_back(std::max(0.0, e.ts_us - it->second));
        }
    }
    QueueDelayStats& qd = out.queue_delay;
    qd.samples = samples.size();
    if (!samples.empty()) {
        double sum = 0.0;
        for (const double s : samples) {
            sum += s;
            qd.max_us = std::max(qd.max_us, s);
        }
        qd.mean_us = sum / static_cast<double>(samples.size());
        qd.p50_us = sample_quantile(samples, 0.50);
        qd.p90_us = sample_quantile(samples, 0.90);
        qd.p99_us = sample_quantile(samples, 0.99);
    }
    return out;
}

// ------------------------------------------------------------- inputs

InputKind classify_report(const Json& doc) {
    if (doc.kind() != Json::Kind::Object) return InputKind::kUnknown;
    if (doc.find("traceEvents")) return InputKind::kTrace;
    const Json* tool = doc.find("tool");
    if (!tool) return InputKind::kUnknown;
    const std::string& t = tool->as_string();
    if (t == "stgbatch") return InputKind::kBatchReport;
    if (t == "stgcheck") return InputKind::kCheckReport;
    if (t == "stgcc-bench") return InputKind::kBenchReport;
    return InputKind::kUnknown;
}

bool load_input(const std::string& path, InputSet& in, std::string& error) {
    std::ifstream f(path);
    if (!f) {
        error = "cannot open " + path;
        return false;
    }
    std::ostringstream buf;
    buf << f.rdbuf();
    const std::string text = buf.str();
    const std::optional<Json> doc = Json::parse(text);
    if (!doc) {
        error = "not valid JSON: " + path;
        return false;
    }
    switch (classify_report(*doc)) {
        case InputKind::kTrace: {
            std::optional<Trace> trace = parse_chrome_trace(text);
            if (!trace) {
                error = "malformed trace: " + path;
                return false;
            }
            in.trace = std::move(*trace);
            in.trace_file = path;
            return true;
        }
        case InputKind::kBatchReport:
            in.batch = *doc;
            in.batch_file = path;
            return true;
        case InputKind::kCheckReport:
            in.checks.push_back(*doc);
            return true;
        case InputKind::kBenchReport:
            in.benches.push_back(*doc);
            return true;
        case InputKind::kUnknown:
            break;
    }
    error = "unrecognized input (expected a Chrome trace, an stgcheck/"
            "stgbatch --json report, or a BENCH_*.json): " +
            path;
    return false;
}

// ----------------------------------------------------------- reporting

namespace {

/// The scheduler tallies a report body carries (stgbatch "stats"/"sched",
/// or an stgcheck report's metrics), normalized to seconds.
struct SchedSnapshot {
    bool valid = false;
    double workers = 0.0;
    double wall_s = 0.0;
    double busy_s = 0.0;
    double external_busy_s = 0.0;  ///< busy_s portion run by helping callers
    double queue_delay_s = 0.0;
    double critical_path_s = 0.0;
    double park_s = 0.0;
    std::uint64_t executed = 0;
    std::uint64_t stolen = 0;
    std::uint64_t steal_failures = 0;
    std::uint64_t parks = 0;
    std::uint64_t injector_contention = 0;

    /// Worker count plus the fractional capacity non-worker threads added
    /// by helping through waits (a caller that executed tasks for half the
    /// run counts as half a worker).
    [[nodiscard]] double effective_workers() const {
        if (wall_s <= 0.0) return workers;
        return workers + external_busy_s / wall_s;
    }
};

SchedSnapshot sched_from_batch(const Json& envelope) {
    SchedSnapshot s;
    const Json* body = envelope.find("body");
    if (!body) return s;
    const Json* stats = body->find("stats");
    const Json* sched = stats ? stats->find("sched") : nullptr;
    if (!sched) return s;
    s.workers = num_or(sched->find("workers"), 1.0);
    s.wall_s = num_or(sched->find("wall_ns")) / 1e9;
    s.busy_s = num_or(sched->find("busy_ns")) / 1e9;
    s.external_busy_s = num_or(sched->find("external_busy_ns")) / 1e9;
    s.queue_delay_s = num_or(sched->find("queue_delay_ns")) / 1e9;
    s.critical_path_s = num_or(sched->find("critical_path_ns")) / 1e9;
    s.park_s = num_or(sched->find("park_ns")) / 1e9;
    s.executed = uint_or(sched->find("executed"));
    s.stolen = uint_or(sched->find("stolen"));
    s.steal_failures = uint_or(sched->find("steal_failures"));
    s.parks = uint_or(sched->find("parks"));
    s.injector_contention = uint_or(sched->find("injector_contention"));
    // Serial runs (no pool) record only workers + wall clock; without busy
    // time there is no work-span decomposition -- fall back to the trace.
    s.valid = s.workers > 0.0 && s.wall_s > 0.0 && s.busy_s > 0.0;
    return s;
}

/// Makespan-overhead decomposition.  The ideal wall clock is busy/workers
/// (all work spread perfectly); everything above it is overhead, split --
/// in priority order, each clamped to what remains -- into:
///   serialization:   the critical path exceeding the balanced bound (no
///                    schedule can close this gap),
///   steal contention: per-worker parked time (idle after failed scans),
///   queue delay:     the residual -- workers neither executing nor parked
///                    while tasks queue (scan/dispatch latency).
/// All three are fractions of the wall clock, so each reads as "removing
/// this loss entirely would shorten the run by X%".
struct BottleneckShares {
    double queue_delay = 0.0;
    double steal = 0.0;
    double serialization = 0.0;
    double overhead = 0.0;  ///< total (wall - busy/workers) / wall
};

BottleneckShares shares_of(const SchedSnapshot& s) {
    BottleneckShares b;
    if (!s.valid) return b;
    const double ideal_s = s.busy_s / s.effective_workers();
    double left = std::max(0.0, s.wall_s - ideal_s);
    b.overhead = left / s.wall_s;
    b.serialization =
        std::min(left, std::max(0.0, s.critical_path_s - ideal_s));
    left -= b.serialization;
    b.steal = std::min(left, s.park_s / s.workers);
    left -= b.steal;
    b.queue_delay = left;
    b.serialization /= s.wall_s;
    b.steal /= s.wall_s;
    b.queue_delay /= s.wall_s;
    return b;
}

const char* dominant_of(const BottleneckShares& b) {
    if (b.serialization >= b.queue_delay && b.serialization >= b.steal)
        return "serialization";
    if (b.queue_delay >= b.steal) return "queue delay";
    return "steal contention";
}

void append_rule(std::string& out, const char* title) {
    out += "\n";
    out += title;
    out += "\n";
    out.append(std::strlen(title), '-');
    out += "\n";
}

void append_efficiency(std::string& out, const SchedSnapshot& s) {
    append_rule(out, "parallel efficiency");
    if (s.external_busy_s > 0.0)
        appendf(out, "  workers            %.0f (+%.2f helping caller)\n",
                s.workers, s.external_busy_s / s.wall_s);
    else
        appendf(out, "  workers            %.0f\n", s.workers);
    appendf(out, "  wall clock         %.3f s\n", s.wall_s);
    appendf(out, "  busy (total work)  %.3f s\n", s.busy_s);
    appendf(out, "  efficiency         %.1f%%  (busy / workers x wall)\n",
            100.0 * s.busy_s / (s.effective_workers() * s.wall_s));
    if (s.critical_path_s > 0.0) {
        appendf(out, "  critical path      %.3f s\n", s.critical_path_s);
        appendf(out, "  speedup bound      %.2fx  (busy / critical path)\n",
                s.busy_s / s.critical_path_s);
    }
}

void append_queue_delay(std::string& out, const QueueDelayStats& qd) {
    append_rule(out, "queue delay (submit -> start)");
    if (qd.samples == 0) {
        out += "  no samples\n";
        return;
    }
    appendf(out,
            "  samples %zu   mean %.3f ms   p50 %.3f ms   p90 %.3f ms   "
            "p99 %.3f ms   max %.3f ms\n",
            qd.samples, qd.mean_us / 1e3, qd.p50_us / 1e3, qd.p90_us / 1e3,
            qd.p99_us / 1e3, qd.max_us / 1e3);
}

void append_bottlenecks(std::string& out, const SchedSnapshot& s) {
    const BottleneckShares b = shares_of(s);
    append_rule(out, "bottlenecks");
    struct Row {
        const char* what;
        double share;
        std::string detail;
    };
    std::string ser_detail, qd_detail, steal_detail;
    appendf(ser_detail, "critical path %.3f s vs balanced bound %.3f s",
            s.critical_path_s, s.busy_s / s.effective_workers());
    appendf(qd_detail, "%.3f s total queued over %llu tasks",
            s.queue_delay_s, static_cast<unsigned long long>(s.executed));
    appendf(steal_detail,
            "%llu parks (%.3f s), %llu failed steal scans, "
            "%llu contended injector pushes",
            static_cast<unsigned long long>(s.parks), s.park_s,
            static_cast<unsigned long long>(s.steal_failures),
            static_cast<unsigned long long>(s.injector_contention));
    std::vector<Row> rows = {
        {"serialization", b.serialization, ser_detail},
        {"queue delay", b.queue_delay, qd_detail},
        {"steal contention", b.steal, steal_detail},
    };
    std::stable_sort(rows.begin(), rows.end(),
                     [](const Row& x, const Row& y) {
                         return x.share > y.share;
                     });
    for (std::size_t i = 0; i < rows.size(); ++i)
        appendf(out, "  %zu. %-17s %5.1f%%  %s\n", i + 1, rows[i].what,
                100.0 * rows[i].share, rows[i].detail.c_str());
    appendf(out, "  (makespan overhead over ideal busy/workers: %.1f%%)\n",
            100.0 * b.overhead);
    if (b.overhead < 0.01)
        out += "\ndominant bottleneck: none (near-ideal parallel "
               "efficiency)\n";
    else
        appendf(out, "\ndominant bottleneck: %s\n", dominant_of(b));
}

}  // namespace

std::string bottleneck_report(const InputSet& in) {
    std::string out = "stgprof: execution profile and bottleneck attribution\n"
                      "=====================================================\n";
    std::optional<TraceProfile> tp;
    if (in.trace) tp = profile_trace(*in.trace);

    out += "\ninputs:\n";
    if (in.trace)
        appendf(out, "  trace     %s: %zu events, %u threads, %u workers\n",
                in.trace_file.c_str(), in.trace->events.size(), tp->threads,
                tp->workers);
    std::size_t batch_models = 0;
    if (in.batch) {
        const Json* body = in.batch->find("body");
        const Json* models = body ? body->find("models") : nullptr;
        if (models) batch_models = models->size();
        appendf(out, "  stgbatch  %s: %zu models, jobs=%llu\n",
                in.batch_file.c_str(), batch_models,
                static_cast<unsigned long long>(
                    uint_or(body ? body->find("jobs") : nullptr)));
    }
    for (const Json& c : in.checks) {
        const Json* body = c.find("body");
        const Json* model = body ? body->find("model") : nullptr;
        appendf(out, "  stgcheck  model %s\n",
                model && model->find("name")
                    ? model->find("name")->as_string().c_str()
                    : "?");
    }
    for (const Json& b : in.benches)
        appendf(out, "  bench     BENCH_%s\n",
                b.find("bench") ? b.find("bench")->as_string().c_str() : "?");
    if (!in.trace && !in.batch && in.checks.empty() && in.benches.empty())
        out += "  (none)\n";

    // Efficiency + bottleneck attribution: the stgbatch scheduler section
    // is authoritative; a lone trace falls back to span-derived tallies.
    SchedSnapshot sched;
    if (in.batch) sched = sched_from_batch(*in.batch);
    if (!sched.valid && tp && tp->threads > 0 && tp->wall_us > 0.0) {
        sched.workers =
            static_cast<double>(tp->workers > 0 ? tp->workers : tp->threads);
        sched.wall_s = tp->wall_us / 1e6;
        sched.busy_s = tp->busy_us / 1e6;
        sched.queue_delay_s =
            tp->queue_delay.mean_us / 1e6 *
            static_cast<double>(tp->queue_delay.samples);
        sched.executed = tp->queue_delay.samples;
        sched.valid = true;
    }
    if (sched.valid) append_efficiency(out, sched);

    // Queue-delay percentiles: flow links when a trace is present, else the
    // sched.queue_delay_ns histogram snapshot of a report's metrics.
    if (tp && tp->queue_delay.samples > 0) {
        append_queue_delay(out, tp->queue_delay);
    } else {
        const Json* metrics = nullptr;
        if (in.batch && in.batch->find("body"))
            metrics = in.batch->find("body")->find("metrics");
        if (!metrics && !in.checks.empty() && in.checks[0].find("body"))
            metrics = in.checks[0].find("body")->find("metrics");
        const Json* hists = metrics ? metrics->find("histograms") : nullptr;
        const Json* h = hists ? hists->find("sched.queue_delay_ns") : nullptr;
        if (h) {
            QueueDelayStats qd;
            qd.samples = uint_or(h->find("count"));
            if (qd.samples > 0) {
                qd.mean_us = num_or(h->find("sum")) /
                             static_cast<double>(qd.samples) / 1e3;
                qd.p50_us = num_or(h->find("p50")) / 1e3;
                qd.p90_us = num_or(h->find("p90")) / 1e3;
                qd.p99_us = num_or(h->find("p99")) / 1e3;
                qd.max_us = qd.p99_us;  // histogram keeps no exact max
            }
            append_queue_delay(out, qd);
        }
    }

    if (tp && !tp->spans.empty()) {
        append_rule(out, "top spans by self time");
        appendf(out, "  %12s %12s %7s  %s\n", "self", "total", "count",
                "name");
        const std::size_t limit = std::min<std::size_t>(tp->spans.size(), 10);
        for (std::size_t i = 0; i < limit; ++i) {
            const SpanProfile& p = tp->spans[i];
            appendf(out, "  %9.3f ms %9.3f ms %7llu  %s\n", p.self_us / 1e3,
                    p.total_us / 1e3,
                    static_cast<unsigned long long>(p.count),
                    p.name.c_str());
        }
        if (tp->spans.size() > limit)
            appendf(out, "  (%zu more)\n", tp->spans.size() - limit);
    }

    for (const Json& b : in.benches) {
        const Json* body = b.find("body");
        if (!body || body->kind() != Json::Kind::Array) continue;
        append_rule(out, "bench scaling");
        appendf(out, "  %-12s %5s %10s %9s %11s\n", "section", "jobs",
                "seconds", "speedup", "efficiency");
        for (std::size_t i = 0; i < body->size(); ++i) {
            const Json& row = body->at(i);
            const Json* jobs = row.find("jobs");
            const Json* seconds = row.find("seconds");
            if (!jobs || !seconds) continue;
            const double speedup = num_or(row.find("speedup"), 1.0);
            const double j = jobs->as_double();
            appendf(out, "  %-12s %5.0f %8.3f s %8.2fx %10.1f%%\n",
                    row.find("section")
                        ? row.find("section")->as_string().c_str()
                        : "-",
                    j, seconds->as_double(), speedup,
                    j > 0 ? 100.0 * speedup / j : 0.0);
        }
    }

    if (sched.valid) append_bottlenecks(out, sched);
    return out;
}

std::string compare_reports(const Json& a, const Json& b, double threshold) {
    std::string out = "stgprof: regression triage (A -> B)\n"
                      "===================================\n";
    const Json* abody = a.find("body");
    const Json* bbody = b.find("body");
    const auto describe = [&](const char* tag, const Json* body) {
        const Json* summary = body ? body->find("summary") : nullptr;
        appendf(out, "  %s: jobs=%llu, %llu models, %.3f s\n", tag,
                static_cast<unsigned long long>(
                    uint_or(body ? body->find("jobs") : nullptr)),
                static_cast<unsigned long long>(
                    uint_or(summary ? summary->find("total") : nullptr)),
                num_or(summary ? summary->find("seconds") : nullptr));
    };
    describe("A", abody);
    describe("B", bbody);
    const double a_wall =
        num_or(abody && abody->find("summary")
                   ? abody->find("summary")->find("seconds")
                   : nullptr);
    const double b_wall =
        num_or(bbody && bbody->find("summary")
                   ? bbody->find("summary")->find("seconds")
                   : nullptr);
    if (a_wall > 0.0)
        appendf(out, "  wall-clock ratio: %.2fx\n", b_wall / a_wall);

    // Per-model wall-clock ratios, matched by manifest file basename.
    struct ModelTime {
        double seconds = 0.0;
        bool present = false;
    };
    std::map<std::string, ModelTime> a_times;
    const auto basename = [](const std::string& p) {
        const auto slash = p.find_last_of("/\\");
        return slash == std::string::npos ? p : p.substr(slash + 1);
    };
    const Json* a_models = abody ? abody->find("models") : nullptr;
    if (a_models && a_models->kind() == Json::Kind::Array) {
        for (std::size_t i = 0; i < a_models->size(); ++i) {
            const Json& row = a_models->at(i);
            const Json* file = row.find("file");
            const Json* seconds = row.find("seconds");
            if (file && seconds)
                a_times[basename(file->as_string())] =
                    ModelTime{seconds->as_double(), true};
        }
    }
    appendf(out, "\nper-model regressions (>= %.2fx)\n", threshold);
    struct Regression {
        double ratio;
        double a_s, b_s;
        std::string model;
    };
    std::vector<Regression> regressions;
    const Json* b_models = bbody ? bbody->find("models") : nullptr;
    if (b_models && b_models->kind() == Json::Kind::Array) {
        for (std::size_t i = 0; i < b_models->size(); ++i) {
            const Json& row = b_models->at(i);
            const Json* file = row.find("file");
            const Json* seconds = row.find("seconds");
            if (!file || !seconds) continue;
            const std::string name = basename(file->as_string());
            const auto it = a_times.find(name);
            if (it == a_times.end() || it->second.seconds <= 0.0) continue;
            const double ratio = seconds->as_double() / it->second.seconds;
            if (ratio >= threshold)
                regressions.push_back(Regression{
                    ratio, it->second.seconds, seconds->as_double(), name});
        }
    }
    std::stable_sort(regressions.begin(), regressions.end(),
                     [](const Regression& x, const Regression& y) {
                         return x.ratio > y.ratio;
                     });
    if (regressions.empty()) {
        out += "  (none)\n";
    } else {
        appendf(out, "  %7s %10s %10s  %s\n", "ratio", "A", "B", "model");
        for (const Regression& r : regressions)
            appendf(out, "  %6.2fx %8.3f s %8.3f s  %s\n", r.ratio, r.a_s,
                    r.b_s, r.model.c_str());
    }

    const SchedSnapshot sa = sched_from_batch(a);
    const SchedSnapshot sb = sched_from_batch(b);
    if (sa.valid && sb.valid) {
        appendf(out, "\nefficiency: A %.1f%% -> B %.1f%%\n",
                100.0 * sa.busy_s / (sa.effective_workers() * sa.wall_s),
                100.0 * sb.busy_s / (sb.effective_workers() * sb.wall_s));
        const BottleneckShares ba = shares_of(sa);
        const BottleneckShares bb = shares_of(sb);
        out += "\nbottleneck shares (A -> B):\n";
        struct Delta {
            const char* what;
            double a, b;
        };
        std::vector<Delta> deltas = {
            {"queue delay", ba.queue_delay, bb.queue_delay},
            {"steal contention", ba.steal, bb.steal},
            {"serialization", ba.serialization, bb.serialization},
        };
        const Delta* worst = &deltas[0];
        for (const Delta& d : deltas) {
            appendf(out, "  %-17s %5.1f%% -> %5.1f%%  (%+.1f)\n", d.what,
                    100.0 * d.a, 100.0 * d.b, 100.0 * (d.b - d.a));
            if (d.b - d.a > worst->b - worst->a) worst = &d;
        }
        if (worst->b - worst->a >= 0.01)
            appendf(out, "\ndominant regression contributor: %s\n",
                    worst->what);
        else
            out += "\ndominant regression contributor: none (no bottleneck "
                   "share grew materially)\n";
    } else if (a_wall > 0.0 && b_wall / a_wall >= threshold) {
        out += "\ndominant regression contributor: wall clock (no scheduler "
               "stats in one of the reports)\n";
    }
    return out;
}

}  // namespace stgcc::obs
