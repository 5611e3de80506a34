// stgcc -- metrics registry: named monotonic counters, gauges, and
// histograms with fixed log2-scale buckets.
//
// Modules obtain a metric by name (`obs::counter("unfold.events")`) at
// construction time or via a function-local static and keep the reference;
// registration is idempotent and references stay valid for the process
// lifetime.  All update operations are lock-free relaxed atomics, safe to
// call from any thread, and none is guarded by `obs::enabled()`: metrics
// are always on, and are kept out of per-node loops instead (a solver
// tallies locally and publishes once per solve).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace stgcc::obs {

/// Monotonically increasing event count: one relaxed atomic.  Metrics are
/// updated at coarse grain (once per solve, per task, per request), never
/// per search node, so writers seldom meet on the line.  `value()` is a
/// racy-by-design snapshot, exact once writers are quiescent (which is
/// when reports are taken).
class Counter {
public:
    void add(std::uint64_t n = 1) noexcept {
        v_.fetch_add(n, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t value() const noexcept {
        return v_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> v_{0};
};

/// Last-write-wins instantaneous value, plus a running-maximum helper.
class Gauge {
public:
    void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
    /// Raise the gauge to `v` if larger (peak tracking).
    void record_max(std::int64_t v) noexcept {
        std::int64_t cur = v_.load(std::memory_order_relaxed);
        while (v > cur &&
               !v_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
        }
    }
    [[nodiscard]] std::int64_t value() const noexcept {
        return v_.load(std::memory_order_relaxed);
    }
    void reset() noexcept { v_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::int64_t> v_{0};
};

/// Histogram over non-negative integer samples with fixed log2 buckets:
/// bucket 0 holds the value 0, bucket i >= 1 holds [2^(i-1), 2^i).
class Histogram {
public:
    static constexpr int kBuckets = 65;

    /// Bucket index of a sample (0 for 0, floor(log2(v)) + 1 otherwise).
    [[nodiscard]] static int bucket_of(std::uint64_t v) noexcept {
        int b = 0;
        while (v) {
            ++b;
            v >>= 1;
        }
        return b;
    }
    /// Inclusive upper bound of bucket `i`.
    [[nodiscard]] static std::uint64_t bucket_limit(int i) noexcept {
        return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    }

    void observe(std::uint64_t v) noexcept {
        buckets_[bucket_of(v)].fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t count() const noexcept;
    [[nodiscard]] std::uint64_t sum() const noexcept {
        return sum_.load(std::memory_order_relaxed);
    }
    [[nodiscard]] std::uint64_t bucket(int i) const noexcept {
        return buckets_[i].load(std::memory_order_relaxed);
    }
    /// Quantile estimate (q in [0, 1]) by linear interpolation inside the
    /// bucket holding the q-th sample.  Log2 buckets bound the relative
    /// error by 2x; good enough for p50/p90/p99 latency triage.  Returns 0
    /// for an empty histogram.
    [[nodiscard]] double quantile(double q) const noexcept;
    void reset() noexcept;

private:
    std::atomic<std::uint64_t> buckets_[kBuckets]{};
    std::atomic<std::uint64_t> sum_{0};
};

/// Process-global registry.  Lookup takes a mutex (cache the reference);
/// metric objects themselves are lock-free.
class Registry {
public:
    static Registry& instance();

    Counter& counter(std::string_view name);
    Gauge& gauge(std::string_view name);
    Histogram& histogram(std::string_view name);

    /// Zero every registered metric (tests, fresh reports).  Registered
    /// objects survive, so cached references stay valid.
    void reset_values();

    /// Snapshot as {"counters": {...}, "gauges": {...}, "histograms": {...}}
    /// with names sorted for stable output; zero-valued metrics included.
    [[nodiscard]] Json to_json() const;

    /// Flat "name value" lines, sorted by name (for `stgcheck --metrics`).
    [[nodiscard]] std::string text_summary() const;

private:
    Registry() = default;
    struct Impl;
    Impl& impl() const;
};

/// Convenience accessors.
inline Counter& counter(std::string_view name) {
    return Registry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
    return Registry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name) {
    return Registry::instance().histogram(name);
}

}  // namespace stgcc::obs
