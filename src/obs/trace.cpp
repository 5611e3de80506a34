#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <map>

namespace stgcc::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}

void set_enabled(bool on) {
    detail::g_enabled.store(on, std::memory_order_relaxed);
}

namespace {
// Per-thread stack of open span indices; gives each begin_span its parent.
thread_local std::vector<std::uint32_t> t_open_spans;
}  // namespace

Tracer& Tracer::instance() {
    static Tracer tracer;
    return tracer;
}

void Tracer::clear() {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.clear();
    flows_.clear();
    tids_.clear();
    thread_names_.clear();
    next_flow_ = 0;
    epoch_.reset();
}

std::uint32_t Tracer::tid_locked() {
    return tids_
        .emplace(std::this_thread::get_id(),
                 static_cast<std::uint32_t>(tids_.size() + 1))
        .first->second;
}

void Tracer::set_thread_name(std::string name) {
    std::lock_guard<std::mutex> lock(mu_);
    thread_names_[tid_locked()] = std::move(name);
}

std::uint64_t Tracer::next_flow_id() {
    std::lock_guard<std::mutex> lock(mu_);
    return ++next_flow_;
}

void Tracer::flow(std::uint64_t id, bool begin) {
    std::lock_guard<std::mutex> lock(mu_);
    flows_.push_back(FlowRecord{id, epoch_.nanos(), tid_locked(), begin});
}

std::uint32_t Tracer::begin_span(std::string_view name) {
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord rec;
    rec.name = std::string(name);
    rec.start_ns = epoch_.nanos();
    rec.parent = t_open_spans.empty() ? kNoSpan : t_open_spans.back();
    rec.depth = static_cast<std::uint32_t>(t_open_spans.size());
    rec.tid = tid_locked();
    const auto id = static_cast<std::uint32_t>(spans_.size());
    spans_.push_back(std::move(rec));
    t_open_spans.push_back(id);
    return id;
}

void Tracer::end_span(std::uint32_t id) {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= spans_.size()) return;
    spans_[id].end_ns = epoch_.nanos();
    spans_[id].open = false;
    // Normal RAII usage ends spans innermost-first; tolerate stray handles.
    if (!t_open_spans.empty() && t_open_spans.back() == id)
        t_open_spans.pop_back();
    else
        t_open_spans.erase(
            std::remove(t_open_spans.begin(), t_open_spans.end(), id),
            t_open_spans.end());
}

void Tracer::add_attr(std::uint32_t id, std::string_view key, Json value) {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= spans_.size()) return;
    spans_[id].attrs.emplace_back(std::string(key), std::move(value));
}

std::size_t Tracer::num_spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

std::vector<SpanRecord> Tracer::snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

std::vector<FlowRecord> Tracer::flows() const {
    std::lock_guard<std::mutex> lock(mu_);
    return flows_;
}

std::string Tracer::chrome_trace_json() const {
    const std::vector<SpanRecord> spans = snapshot();
    const std::vector<FlowRecord> flow_events = flows();
    // Every tid that appears anywhere gets a thread_name metadata event up
    // front (registered name, else "thread-N"), sorted by tid so Perfetto
    // rows are stably labelled and the export is deterministic given the
    // recorded data.
    std::map<std::uint32_t, std::string> names;
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const SpanRecord& s : spans_) names.emplace(s.tid, "");
        for (const FlowRecord& f : flows_) names.emplace(f.tid, "");
        for (const auto& [tid, name] : thread_names_) names[tid] = name;
    }
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    bool first = true;
    char buf[64];
    for (auto& [tid, name] : names) {
        if (name.empty()) name = "thread-" + std::to_string(tid);
        if (!first) out += ",\n";
        first = false;
        std::snprintf(buf, sizeof buf,
                      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                      "\"tid\":%u,\"args\":{\"name\":\"",
                      tid);
        out += buf;
        out += Json::escape(name) + "\"}}";
    }
    for (const SpanRecord& s : spans) {
        if (!first) out += ",\n";
        first = false;
        out += "{\"name\":\"" + Json::escape(s.name) +
               "\",\"cat\":\"stgcc\",\"ph\":\"X\"";
        std::snprintf(buf, sizeof buf, ",\"ts\":%.3f",
                      static_cast<double>(s.start_ns) / 1e3);
        out += buf;
        const std::uint64_t end = s.open ? s.start_ns : s.end_ns;
        std::snprintf(buf, sizeof buf, ",\"dur\":%.3f",
                      static_cast<double>(end - s.start_ns) / 1e3);
        out += buf;
        std::snprintf(buf, sizeof buf, ",\"pid\":1,\"tid\":%u", s.tid);
        out += buf;
        if (!s.attrs.empty()) {
            Json args = Json::object();
            for (const auto& [k, v] : s.attrs) args.set(k, v);
            out += ",\"args\":" + args.dump();
        }
        out += "}";
    }
    for (const FlowRecord& f : flow_events) {
        if (!first) out += ",\n";
        first = false;
        // "s" at the submit site, "f" with bp=e (bind to enclosing slice)
        // where the task ran; same id links the arrow across thread rows.
        out += "{\"name\":\"sched.submit\",\"cat\":\"stgcc\",\"ph\":\"";
        out += f.begin ? "s" : "f";
        out += '"';
        if (!f.begin) out += ",\"bp\":\"e\"";
        std::snprintf(buf, sizeof buf, ",\"id\":%llu,\"ts\":%.3f",
                      static_cast<unsigned long long>(f.id),
                      static_cast<double>(f.ts_ns) / 1e3);
        out += buf;
        std::snprintf(buf, sizeof buf, ",\"pid\":1,\"tid\":%u}", f.tid);
        out += buf;
    }
    out += "\n]}\n";
    return out;
}

}  // namespace stgcc::obs
