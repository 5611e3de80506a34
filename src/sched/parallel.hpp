// stgcc -- deterministic parallel algorithms on top of the work-stealing
// pool.
//
// The contract every algorithm here honours: **the observable result is a
// pure function of the inputs, independent of the worker count and of the
// runtime schedule.**  Results are merged in submission (index) order;
// `find_first` returns the hit with the lowest index, not the one that
// happened to finish first; exceptions are rethrown for the lowest failing
// index.  `Executor(1)` bypasses the pool entirely (no threads are
// created) yet runs the exact same decomposition, which is what makes
// `--jobs 1` and `--jobs 8` byte-identical.
//
// Cancellation: `find_first` hands every task its own CancellationToken
// and cancels the tokens of all indices *above* the best hit so far.  A
// task whose index is below the current best is never cancelled, so the
// lowest-index hit is always computed by an uncancelled, complete run --
// this is the determinism argument, spelled out in docs/PARALLELISM.md.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "sched/cancellation.hpp"
#include "sched/thread_pool.hpp"

namespace stgcc::sched {

/// Execution context handed through the checking pipeline.  `jobs == 1`
/// (the default) is fully serial: no pool, no threads, zero overhead.
/// `jobs == 0` resolves to the hardware concurrency.
class Executor {
public:
    /// The largest worker count the command lines accept (`--jobs`); each
    /// worker is an OS thread.
    static constexpr unsigned kMaxJobs = 1024;

    explicit Executor(unsigned jobs = 1);
    ~Executor();

    Executor(const Executor&) = delete;
    Executor& operator=(const Executor&) = delete;

    /// std::thread::hardware_concurrency with a floor of 1.
    [[nodiscard]] static unsigned hardware_jobs() noexcept;

    [[nodiscard]] unsigned jobs() const noexcept { return jobs_; }
    [[nodiscard]] bool parallel() const noexcept { return pool_ != nullptr; }
    [[nodiscard]] WorkStealingPool* pool() const noexcept { return pool_.get(); }

private:
    unsigned jobs_;
    std::unique_ptr<WorkStealingPool> pool_;
};

/// Run fn(0) .. fn(n-1), all of them, and block until done.  Serial (and
/// in index order) without a pool.  If any call throws, the exception of
/// the lowest throwing index is rethrown after all tasks finished.
void parallel_for(Executor& ex, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Run a fixed set of heterogeneous functions concurrently; blocks until
/// all are done.  Exception of the lowest failing slot is rethrown.
void parallel_invoke(Executor& ex, std::vector<std::function<void()>> fns);

/// A hit returned by find_first.
template <class R>
struct FirstHit {
    std::size_t index = 0;
    R value{};
};

/// First-witness search with early stop: run fn(i, token) for i in [0, n)
/// and return the engaged result with the **lowest index** (not the first
/// to finish).  When index i produces a hit, the tokens of all indices
/// above the best hit so far are cancelled; tasks below it always run to
/// completion, so the winner is schedule-independent.  Serial executors
/// evaluate indices in order and stop at the first hit -- the identical
/// winner by construction.
template <class R>
std::optional<FirstHit<R>> find_first(
    Executor& ex, std::size_t n,
    const std::function<std::optional<R>(std::size_t, const CancellationToken&)>&
        fn) {
    if (n == 0) return std::nullopt;
    if (!ex.parallel()) {
        for (std::size_t i = 0; i < n; ++i) {
            auto r = fn(i, CancellationToken{});
            if (r) return FirstHit<R>{i, std::move(*r)};
        }
        return std::nullopt;
    }

    // Indices are dispensed in ascending order from a shared counter by a
    // bounded set of loop tasks (one per executing thread, pool workers
    // plus the helping caller) instead of queueing one task per index.
    // Per-index tasks submitted from a worker would drain LIFO -- highest
    // index first, the exact reverse of the serial early-stop order -- so
    // a low-index hit would be reached only after every higher index had
    // already burned a full search.  Ascending dispensing makes the
    // parallel path probe the same frontier as the serial loop, so the
    // work it performs stays within (completed prefix below the winner) +
    // (one in-flight probe per thread), schedule-independent in verdict
    // and near-serial in total work.
    std::vector<CancellationSource> sources(n);
    std::vector<std::optional<R>> results(n);
    std::vector<std::exception_ptr> errors(n);
    std::mutex mu;
    std::size_t best = n;
    std::atomic<std::size_t> next{0};
    const std::size_t lanes =
        std::min<std::size_t>(n, static_cast<std::size_t>(ex.jobs()) + 1);
    TaskGroup group(ex.pool());
    for (std::size_t lane = 0; lane < lanes; ++lane) {
        group.run([&] {
            for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
                 i < n; i = next.fetch_add(1, std::memory_order_relaxed)) {
                {
                    std::lock_guard<std::mutex> lock(mu);
                    if (i > best) continue;  // beaten by a lower index
                }
                std::optional<R> r;
                try {
                    r = fn(i, sources[i].token());
                } catch (...) {
                    errors[i] = std::current_exception();
                    continue;
                }
                if (!r) continue;
                std::lock_guard<std::mutex> lock(mu);
                results[i] = std::move(r);
                if (i < best) {
                    best = i;
                    for (std::size_t j = i + 1; j < n; ++j) sources[j].cancel();
                }
            }
        });
    }
    group.wait();
    for (auto& e : errors)
        if (e) std::rethrow_exception(e);
    if (best == n) return std::nullopt;
    return FirstHit<R>{best, std::move(*results[best])};
}

}  // namespace stgcc::sched
