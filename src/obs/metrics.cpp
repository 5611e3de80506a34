#include "obs/metrics.hpp"

#include <cstdio>
#include <map>
#include <memory>
#include <mutex>

namespace stgcc::obs {

std::uint64_t Histogram::count() const noexcept {
    std::uint64_t total = 0;
    for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
    return total;
}

double Histogram::quantile(double q) const noexcept {
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const std::uint64_t total = count();
    if (total == 0) return 0.0;
    // Rank of the target sample (1-based), then walk buckets to find it.
    const double target = q * static_cast<double>(total);
    double seen = 0.0;
    for (int i = 0; i < kBuckets; ++i) {
        const auto in_bucket =
            static_cast<double>(buckets_[i].load(std::memory_order_relaxed));
        if (in_bucket == 0.0) continue;
        if (seen + in_bucket >= target) {
            if (i == 0) return 0.0;  // bucket 0 holds exactly {0}
            // [lo, hi] = [2^(i-1), 2^i - 1]; hi computed in double so the
            // top bucket (i == 64) needs no 1 << 64.
            const double lo = static_cast<double>(std::uint64_t{1} << (i - 1));
            const double hi = lo * 2.0 - 1.0;
            const double frac = (target - seen) / in_bucket;
            return lo + frac * (hi - lo);
        }
        seen += in_bucket;
    }
    return static_cast<double>(~std::uint64_t{0});
}

void Histogram::reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
}

// std::map keeps names sorted for stable exports; unique_ptr keeps metric
// addresses stable under rehash-free node insertion either way.
struct Registry::Impl {
    std::mutex mu;
    std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters;
    std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges;
    std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms;
};

namespace {
// The documented stgcc instrument inventory (docs/OBSERVABILITY.md).
// Pre-registered so every snapshot carries the full set of well-known
// names, zero-valued when the owning phase did not run — consumers of
// `stgcheck --json` can rely on the keys being present.  Modules may
// still register ad-hoc metrics on first use.
constexpr const char* kBuiltinCounters[] = {
    "unfold.runs",      "unfold.events",      "unfold.conditions",
    "unfold.cutoffs",   "bb.solves",          "bb.nodes",
    "bb.leaves",        "bb.propagations",    "compat.solves",
    "compat.nodes",     "compat.leaves",      "compat.signal_prunes",
    "compat.closure_prunes", "compat.side_prunes", "sg.builds", "sg.states",
    "sg.edges",         "sched.tasks_submitted", "sched.tasks_executed",
    "sched.tasks_stolen", "sched.worker_busy_ns", "sched.park_ns",
    "cache.artifacts.built",  "cache.certificates.csc_from_usc",
    "cache.result.hits",      "cache.result.misses",
    "cache.result.stores",    "cache.result.evicted",
};
constexpr const char* kBuiltinGauges[] = {
    "unfold.pe_queue_peak", "unfold.co_pairs", "sg.hash_load_permille",
    "sched.workers",        "mem.arena_bytes", "mem.arena_peak_bytes",
    "sched.critical_path_ns",
    // Service liveness gauges, refreshed by stgd before every stats
    // snapshot and /metrics scrape (docs/SERVICE.md).
    "svc.open_connections", "mem.rss_bytes"};
constexpr const char* kBuiltinHistograms[] = {
    "unfold.pe_queue_depth", "sched.queue_delay_ns"};
}  // namespace

Registry::Impl& Registry::impl() const {
    static Impl& impl = []() -> Impl& {
        static Impl i;
        for (const char* n : kBuiltinCounters)
            i.counters.emplace(n, std::make_unique<Counter>());
        for (const char* n : kBuiltinGauges)
            i.gauges.emplace(n, std::make_unique<Gauge>());
        for (const char* n : kBuiltinHistograms)
            i.histograms.emplace(n, std::make_unique<Histogram>());
        return i;
    }();
    return impl;
}

Registry& Registry::instance() {
    static Registry registry;
    return registry;
}

Counter& Registry::counter(std::string_view name) {
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    auto it = im.counters.find(name);
    if (it == im.counters.end())
        it = im.counters
                 .emplace(std::string(name), std::make_unique<Counter>())
                 .first;
    return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    auto it = im.gauges.find(name);
    if (it == im.gauges.end())
        it = im.gauges.emplace(std::string(name), std::make_unique<Gauge>())
                 .first;
    return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    auto it = im.histograms.find(name);
    if (it == im.histograms.end())
        it = im.histograms
                 .emplace(std::string(name), std::make_unique<Histogram>())
                 .first;
    return *it->second;
}

void Registry::reset_values() {
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    for (auto& [name, c] : im.counters) c->reset();
    for (auto& [name, g] : im.gauges) g->reset();
    for (auto& [name, h] : im.histograms) h->reset();
}

Json Registry::to_json() const {
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    Json counters = Json::object();
    for (const auto& [name, c] : im.counters) counters.set(name, c->value());
    Json gauges = Json::object();
    for (const auto& [name, g] : im.gauges) gauges.set(name, g->value());
    Json histograms = Json::object();
    for (const auto& [name, h] : im.histograms) {
        Json hist = Json::object();
        hist.set("count", h->count());
        hist.set("sum", h->sum());
        hist.set("p50", h->quantile(0.50));
        hist.set("p90", h->quantile(0.90));
        hist.set("p99", h->quantile(0.99));
        Json buckets = Json::array();
        for (int i = 0; i < Histogram::kBuckets; ++i) {
            if (h->bucket(i) == 0) continue;
            buckets.push(Json::object()
                             .set("le", Histogram::bucket_limit(i))
                             .set("count", h->bucket(i)));
        }
        hist.set("buckets", std::move(buckets));
        histograms.set(name, std::move(hist));
    }
    return Json::object()
        .set("counters", std::move(counters))
        .set("gauges", std::move(gauges))
        .set("histograms", std::move(histograms));
}

std::string Registry::text_summary() const {
    Impl& im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    std::string out;
    for (const auto& [name, c] : im.counters)
        out += name + " " + std::to_string(c->value()) + "\n";
    for (const auto& [name, g] : im.gauges)
        out += name + " " + std::to_string(g->value()) + "\n";
    char q[96];
    for (const auto& [name, h] : im.histograms) {
        std::snprintf(q, sizeof q, " p50=%.1f p90=%.1f p99=%.1f",
                      h->quantile(0.50), h->quantile(0.90), h->quantile(0.99));
        out += name + " count=" + std::to_string(h->count()) +
               " sum=" + std::to_string(h->sum()) + q + "\n";
    }
    return out;
}

}  // namespace stgcc::obs
