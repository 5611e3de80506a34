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
#include <condition_variable>
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
/// winner by construction.  A call that throws below the winner (or with
/// no winner) rethrows, the lowest such index first, as the serial loop
/// would; a throw above the winner is dropped, since the serial loop never
/// reaches that index.
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
    // bounded set of loops (one per executing thread, pool workers plus
    // the caller) instead of queueing one task per index.
    // Per-index tasks submitted from a worker would drain LIFO -- highest
    // index first, the exact reverse of the serial early-stop order -- so
    // a low-index hit would be reached only after every higher index had
    // already burned a full search.  Ascending dispensing makes the
    // parallel path probe the same frontier as the serial loop, so the
    // work it performs stays within (completed prefix below the winner) +
    // (one in-flight probe per thread), schedule-independent in verdict
    // and near-serial in total work.
    //
    // State is kept per lane, not per index (an index count can run into
    // the hundreds, a lane count is jobs + 1): the index each lane is on
    // with a cancellation source for it, the best hit and the lowest throw.
    const std::size_t lanes =
        std::min<std::size_t>(n, static_cast<std::size_t>(ex.jobs()) + 1);
    std::vector<CancellationSource> sources(lanes);
    std::vector<std::size_t> on(lanes, n);  // n: between indices
    std::optional<R> result;
    std::exception_ptr error;
    std::size_t error_at = n;
    std::mutex mu;
    std::size_t best = n;
    std::atomic<std::size_t> next{0};
    const auto lane = [&](std::size_t k) {
        for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
             i = next.fetch_add(1, std::memory_order_relaxed)) {
            CancellationToken token;
            {
                std::lock_guard<std::mutex> lock(mu);
                if (i > best) continue;  // beaten by a lower index
                sources[k] = CancellationSource();
                on[k] = i;
                token = sources[k].token();
            }
            std::optional<R> r;
            std::exception_ptr thrown;
            try {
                r = fn(i, token);
            } catch (...) {
                thrown = std::current_exception();
            }
            std::lock_guard<std::mutex> lock(mu);
            on[k] = n;
            if (thrown && i < error_at) {
                error_at = i;
                error = thrown;
            }
            if (!r || i >= best) continue;
            best = i;
            result = std::move(r);
            for (std::size_t j = 0; j < lanes; ++j)
                if (on[j] != n && on[j] > i) sources[j].cancel();
        }
    };
    // One lane runs on the calling thread, the others are pool tasks.  Once
    // the caller's lane finds the indices exhausted it closes the lanes: a
    // lane task that starts after that returns at once without touching
    // this frame, so the caller waits only for the lanes already running,
    // each on its last index, and it waits parked.  A helping wait could
    // pick up any queued task -- under stgbatch another model's whole
    // verification -- and run it nested on this stack, holding this result
    // back and both verifications' memory at once.
    struct Lanes {
        std::mutex mu;
        std::condition_variable idle;
        bool closed = false;
        std::size_t running = 0;
    };
    const auto shared = std::make_shared<Lanes>();
    const auto* body = &lane;
    for (std::size_t k = 1; k < lanes; ++k) {
        ex.pool()->submit([shared, body, k] {
            {
                std::lock_guard<std::mutex> lock(shared->mu);
                if (shared->closed) return;
                ++shared->running;
            }
            (*body)(k);
            std::lock_guard<std::mutex> lock(shared->mu);
            if (--shared->running == 0) shared->idle.notify_all();
        });
    }
    lane(0);
    {
        std::unique_lock<std::mutex> lock(shared->mu);
        shared->closed = true;
        shared->idle.wait(lock, [&] { return shared->running == 0; });
    }
    if (error_at < best) std::rethrow_exception(error);
    if (best == n) return std::nullopt;
    return FirstHit<R>{best, std::move(*result)};
}

}  // namespace stgcc::sched
