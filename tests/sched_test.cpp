// Unit tests for the parallel execution runtime (src/sched/): pool
// lifecycle, steal correctness under load, nested fan-out via helping,
// cancellation propagation, and the deterministic-reduction contracts of
// parallel_for / find_first.  Suites are named Sched* so the tsan CI job
// can select them with `ctest -R 'Sched|Parallel'`.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sched/cancellation.hpp"
#include "sched/parallel.hpp"
#include "sched/thread_pool.hpp"

namespace stgcc::sched {
namespace {

TEST(SchedPool, StartStopWithoutWork) {
    WorkStealingPool pool(4);
    EXPECT_EQ(pool.num_workers(), 4u);
    // Destructor joins cleanly with nothing ever submitted.
}

TEST(SchedPool, ZeroWorkersClampedToOne) {
    WorkStealingPool pool(0);
    EXPECT_EQ(pool.num_workers(), 1u);
}

// TaskGroup::wait() and flags set inside a task body fire before the pool
// publishes that task's tallies; stats().executed is published last, so
// polling it is the quiescence point for exact telemetry reads.
void quiesce(const WorkStealingPool& pool, std::uint64_t executed) {
    while (pool.stats().executed < executed) std::this_thread::yield();
}

TEST(SchedPool, ExecutesAllSubmittedTasks) {
    WorkStealingPool pool(4);
    std::atomic<int> count{0};
    TaskGroup group(&pool);
    for (int i = 0; i < 500; ++i)
        group.run([&] { count.fetch_add(1, std::memory_order_relaxed); });
    group.wait();
    EXPECT_EQ(count.load(), 500);
    quiesce(pool, 500);
    const auto stats = pool.stats();
    EXPECT_EQ(stats.submitted, 500u);
    EXPECT_EQ(stats.executed, 500u);
}

TEST(SchedPool, StealCorrectnessUnderLoad) {
    // A parent task fans 100 subtasks into its *own* deque and then blocks
    // (plain spin, no helping) until all are done.  The owner never pops,
    // so every subtask can only be obtained by stealing.  The main thread
    // must not help (TaskGroup::wait would execute tasks right here, off
    // the pool), so it spins on atomics instead.
    WorkStealingPool pool(4);
    std::atomic<int> done{0};
    std::atomic<bool> parent_done{false};
    std::atomic<bool> parent_on_worker{false};
    constexpr int kSubtasks = 100;
    pool.submit([&] {
        WorkStealingPool* self = WorkStealingPool::current();
        parent_on_worker.store(self == &pool, std::memory_order_relaxed);
        for (int i = 0; i < kSubtasks; ++i)
            pool.submit([&] { done.fetch_add(1, std::memory_order_relaxed); });
        while (done.load(std::memory_order_acquire) < kSubtasks)
            std::this_thread::yield();
        parent_done.store(true, std::memory_order_release);
    });
    while (!parent_done.load(std::memory_order_acquire))
        std::this_thread::yield();
    EXPECT_TRUE(parent_on_worker.load());
    EXPECT_EQ(done.load(), kSubtasks);
    quiesce(pool, kSubtasks + 1u);
    const auto stats = pool.stats();
    EXPECT_EQ(stats.executed, kSubtasks + 1u);
    EXPECT_EQ(stats.stolen, static_cast<std::uint64_t>(kSubtasks));
}

TEST(SchedPool, CurrentIsSetOnWorkersOnly) {
    EXPECT_EQ(WorkStealingPool::current(), nullptr);
    WorkStealingPool pool(2);
    std::atomic<WorkStealingPool*> seen{nullptr};
    std::atomic<bool> ran{false};
    // Submit directly and spin (no helping): the task must land on a
    // worker thread, where current() is the pool.
    pool.submit([&] {
        seen.store(WorkStealingPool::current());
        ran.store(true, std::memory_order_release);
    });
    while (!ran.load(std::memory_order_acquire)) std::this_thread::yield();
    EXPECT_EQ(seen.load(), &pool);
    EXPECT_EQ(WorkStealingPool::current(), nullptr);
}

// Busy wait (not sleep): the telemetry tests below assert on busy_ns, and
// a sleeping task accrues wall time without consuming a worker the way the
// solver's compute-bound tasks do.
void spin_for(std::chrono::nanoseconds d) {
    const auto until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) std::atomic_signal_fence(std::memory_order_seq_cst);
}

TEST(SchedPool, QueueDelayTalliesMatchPerTaskObservations) {
    using namespace std::chrono_literals;
    // 8 x 5 ms of work on 2 workers, submitted from outside (injector) with
    // no helping: a backlog is guaranteed, so later tasks must report a
    // positive submit -> start latency, and the pool-level tally is exactly
    // the sum of what the tasks themselves observed.
    WorkStealingPool pool(2);
    constexpr int kTasks = 8;
    std::atomic<int> done{0};
    std::atomic<std::uint64_t> delay_sum{0};
    std::atomic<std::uint64_t> delay_max{0};
    for (int i = 0; i < kTasks; ++i)
        pool.submit([&] {
            const std::uint64_t d = current_task_queue_delay_ns();
            delay_sum.fetch_add(d, std::memory_order_relaxed);
            std::uint64_t cur = delay_max.load(std::memory_order_relaxed);
            while (d > cur && !delay_max.compare_exchange_weak(cur, d)) {
            }
            spin_for(5ms);
            done.fetch_add(1, std::memory_order_release);
        });
    while (done.load(std::memory_order_acquire) < kTasks)
        std::this_thread::yield();
    quiesce(pool, kTasks);
    const auto s = pool.stats();
    EXPECT_EQ(s.executed, static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(s.queue_delay_ns, delay_sum.load());
    EXPECT_GT(delay_max.load(), 0u);
    // Outside any pool task the current-task query answers 0.
    EXPECT_EQ(current_task_queue_delay_ns(), 0u);
}

TEST(SchedPool, SelfTimePartitionsHelpedNestedWork) {
    using namespace std::chrono_literals;
    // One worker; the parent spins 5 ms, fans out a 20 ms child and waits.
    // The wait helps, so the child runs nested inside the parent's wall
    // time.  Self-time accounting must count those 20 ms once (in the
    // child), not twice: total busy stays near 25 ms.  Before the nested_ns
    // split this read ~45 ms.
    // The main thread spins on a flag instead of TaskGroup::wait -- if it
    // helped, it could steal the child and the parent would idle in its
    // wait (idle-in-wait is self time; the nested split only covers time
    // the waiter spends *executing* other tasks).
    WorkStealingPool pool(1);
    const auto t0 = std::chrono::steady_clock::now();
    pool.submit([&] {
        spin_for(5ms);
        TaskGroup inner(&pool);
        inner.run([&] { spin_for(20ms); });
        inner.wait();
    });
    // Quiesce on executed: it is written after the busy tallies, so the
    // stats read below is exact (and not racing the parent's accounting).
    quiesce(pool, 2u);
    const std::uint64_t wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    const auto s = pool.stats();
    EXPECT_EQ(s.executed, 2u);
    EXPECT_GE(s.busy_ns, 24'000'000u);
    // The invariant that pins down single-counting, robust to a loaded
    // machine: everything ran nested on ONE worker thread, so the self-time
    // partition cannot exceed the wall clock we observed around the whole
    // run.  The pre-nested_ns accounting double-counted the child inside
    // the parent and summed to wall + ~20 ms.
    EXPECT_LE(s.busy_ns, wall_ns + 2'000'000u);
    // The submission chain parent -> child is visible as the critical path:
    // at least the child's 20 ms, never more than total work.
    EXPECT_GE(s.critical_path_ns, 20'000'000u);
    EXPECT_LE(s.critical_path_ns, s.busy_ns);
}

TEST(SchedPool, ExternalHelperBusyIsTalliedSeparately) {
    using namespace std::chrono_literals;
    // The single worker is pinned in a blocker task, so the payload tasks
    // can only run on the external (main) thread helping through
    // help_until.  Their time must land in external_busy_ns -- the
    // fractional extra capacity stgprof adds to the worker count.
    WorkStealingPool pool(1);
    std::atomic<bool> release{false};
    std::atomic<bool> blocker_running{false};
    std::atomic<int> payloads_done{0};
    constexpr int kPayloads = 4;
    pool.submit([&] {
        blocker_running.store(true, std::memory_order_release);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::yield();
    });
    while (!blocker_running.load(std::memory_order_acquire))
        std::this_thread::yield();
    for (int i = 0; i < kPayloads; ++i)
        pool.submit([&] {
            spin_for(1ms);
            payloads_done.fetch_add(1, std::memory_order_release);
        });
    pool.help_until([&] {
        return payloads_done.load(std::memory_order_acquire) == kPayloads;
    });
    release.store(true, std::memory_order_release);
    quiesce(pool, kPayloads + 1u);
    const auto s = pool.stats();
    EXPECT_GT(s.external_busy_ns, 0u);
    EXPECT_GE(s.busy_ns, s.external_busy_ns);
}

TEST(SchedPool, GroupStatsAttributeNestedTasksToTheClaimedGroup) {
    using namespace std::chrono_literals;
    // Mirrors stgbatch: the table is sized up front, each top-level task
    // claims its group after it starts, nested submissions inherit it.
    WorkStealingPool pool(2);
    pool.configure_groups(2);
    TaskGroup outer(&pool);
    for (std::uint32_t g = 0; g < 2; ++g)
        outer.run([&pool, g] {
            set_current_group(g);
            TaskGroup inner(&pool);
            for (int i = 0; i < 3; ++i)
                inner.run([] { spin_for(1ms); });
            inner.wait();
        });
    outer.wait();
    quiesce(pool, 8u);
    for (std::uint32_t g = 0; g < 2; ++g) {
        const auto gs = pool.group_stats(g);
        EXPECT_EQ(gs.tasks, 4u) << g;  // the claimer + 3 nested
        EXPECT_GT(gs.busy_ns, 0u) << g;
    }
    // Out-of-range groups read as empty, never UB.
    const auto none = pool.group_stats(99);
    EXPECT_EQ(none.tasks, 0u);
    EXPECT_EQ(none.busy_ns, 0u);
}

TEST(SchedExecutor, SerialHasNoPool) {
    Executor ex(1);
    EXPECT_EQ(ex.jobs(), 1u);
    EXPECT_FALSE(ex.parallel());
    EXPECT_EQ(ex.pool(), nullptr);
}

TEST(SchedExecutor, AutoResolvesToHardware) {
    Executor ex(0);
    EXPECT_EQ(ex.jobs(), Executor::hardware_jobs());
    EXPECT_GE(ex.jobs(), 1u);
}

TEST(SchedCancellation, TokenSemantics) {
    CancellationToken empty;
    EXPECT_FALSE(empty.cancellable());
    EXPECT_FALSE(empty.cancelled());

    CancellationSource source;
    CancellationToken token = source.token();
    CancellationToken copy = token;  // copies share the flag
    EXPECT_TRUE(token.cancellable());
    EXPECT_FALSE(token.cancelled());
    source.cancel();
    EXPECT_TRUE(token.cancelled());
    EXPECT_TRUE(copy.cancelled());
}

TEST(SchedCancellation, PropagatesAcrossThreads) {
    CancellationSource source;
    CancellationToken token = source.token();
    std::atomic<bool> observed{false};
    std::thread watcher([&] {
        while (!token.cancelled()) std::this_thread::yield();
        observed.store(true, std::memory_order_release);
    });
    source.cancel();
    watcher.join();
    EXPECT_TRUE(observed.load());
}

TEST(SchedCancellation, CombineCancelsWhenEitherInputDoes) {
    CancellationSource a, b;
    CancellationToken both =
        CancellationToken::combine(a.token(), b.token());
    EXPECT_TRUE(both.cancellable());
    EXPECT_FALSE(both.cancelled());
    b.cancel();
    EXPECT_TRUE(both.cancelled());
    EXPECT_FALSE(a.token().cancelled());  // combine never links the sources

    // Empty inputs contribute nothing: combine(x, {}) behaves like x.
    CancellationSource c;
    CancellationToken like_c =
        CancellationToken::combine(c.token(), CancellationToken{});
    EXPECT_TRUE(like_c.cancellable());
    EXPECT_FALSE(like_c.cancelled());
    c.cancel();
    EXPECT_TRUE(like_c.cancelled());
    EXPECT_FALSE(
        CancellationToken::combine(CancellationToken{}, CancellationToken{})
            .cancellable());
}

TEST(SchedCancellation, CancelAfterFiresTheDeadline) {
    CancellationSource source;
    CancellationToken token = source.token();
    source.cancel_after(std::chrono::milliseconds(20));
    EXPECT_FALSE(source.cancelled());  // not yet (20ms out)
    const auto start = std::chrono::steady_clock::now();
    while (!token.cancelled() &&
           std::chrono::steady_clock::now() - start < std::chrono::seconds(10))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(token.cancelled());
}

TEST(SchedCancellation, CancelAfterZeroOrNegativeCancelsImmediately) {
    CancellationSource zero;
    zero.cancel_after(std::chrono::milliseconds(0));
    EXPECT_TRUE(zero.cancelled());
    CancellationSource negative;
    negative.cancel_after(std::chrono::milliseconds(-5));
    EXPECT_TRUE(negative.cancelled());
}

TEST(SchedCancellation, DeadlineOrderingAndAbandonedSourcesAreSafe) {
    // An abandoned source disarms its deadline (the timer holds a weak
    // reference); a later deadline armed on a live source still fires even
    // though an earlier-armed entry died.
    CancellationSource live;
    CancellationToken token = live.token();
    {
        CancellationSource doomed;
        doomed.cancel_after(std::chrono::milliseconds(5));
        // destroyed before (or around) its deadline -- must not crash
    }
    live.cancel_after(std::chrono::milliseconds(15));
    const auto start = std::chrono::steady_clock::now();
    while (!token.cancelled() &&
           std::chrono::steady_clock::now() - start < std::chrono::seconds(10))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(token.cancelled());
}

TEST(SchedCancellation, EarliestOfMultipleDeadlinesWins) {
    CancellationSource source;
    source.cancel_after(std::chrono::hours(24));
    source.cancel_after(std::chrono::milliseconds(10));
    const auto start = std::chrono::steady_clock::now();
    while (!source.cancelled() &&
           std::chrono::steady_clock::now() - start < std::chrono::seconds(10))
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_TRUE(source.cancelled());
    EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::hours(1));
}

TEST(SchedCancellation, DeadlineUnderSaturationCancelsRunningAndQueuedProbes) {
    // A deadline firing while every lane of a find_first is mid-probe and
    // more indices are queued behind the dispenser: the running probes
    // must observe cancellation through their combined token, the queued
    // indices must see it at entry (no full search burned post-deadline),
    // and the call must return promptly with a miss -- no deadlock, no
    // stragglers.  This is the stgd per-request deadline shape (server
    // combines the request deadline with each solve's own token).
    constexpr std::size_t kN = 32;
    Executor ex(2);  // 2 workers + helping caller = 3 lanes
    CancellationSource deadline;
    deadline.cancel_after(std::chrono::milliseconds(60));
    const CancellationToken deadline_token = deadline.token();

    std::atomic<int> cancelled_at_entry{0};
    std::atomic<int> cancelled_mid_probe{0};
    const auto begin = std::chrono::steady_clock::now();
    const auto result = find_first<int>(
        ex, kN,
        [&](std::size_t, const CancellationToken& token) -> std::optional<int> {
            const CancellationToken combined =
                CancellationToken::combine(token, deadline_token);
            if (combined.cancelled()) {
                cancelled_at_entry.fetch_add(1, std::memory_order_relaxed);
                return std::nullopt;  // queued behind the deadline
            }
            // Emulate an exhaustive search that only ends when cancelled
            // (bounded so a missed cancel fails instead of hanging).
            const auto give_up =
                std::chrono::steady_clock::now() + std::chrono::seconds(10);
            while (!combined.cancelled() &&
                   std::chrono::steady_clock::now() < give_up)
                std::this_thread::sleep_for(std::chrono::milliseconds(1));
            EXPECT_TRUE(combined.cancelled());
            cancelled_mid_probe.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        });
    const auto elapsed = std::chrono::steady_clock::now() - begin;

    EXPECT_FALSE(result.has_value());
    // Every index ran exactly once, split between the two cancel paths:
    // the saturated lanes were cut mid-probe, the queue drained at entry.
    EXPECT_EQ(cancelled_at_entry.load() + cancelled_mid_probe.load(),
              static_cast<int>(kN));
    EXPECT_GE(cancelled_mid_probe.load(), 1);
    EXPECT_GE(cancelled_at_entry.load(), static_cast<int>(kN) - 8);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
              5);
}

TEST(SchedCancellation, DeadlineUnderSaturationDrainsParallelForQueue) {
    // Same shape for the all-indices primitive: parallel_for must still
    // run every index (its contract), but once the shared deadline fires
    // the queued tail observes it at entry, so the loop drains in
    // milliseconds instead of serializing 64 full probes.
    constexpr std::size_t kN = 64;
    Executor ex(2);
    CancellationSource deadline;
    deadline.cancel_after(std::chrono::milliseconds(50));
    const CancellationToken token = deadline.token();

    std::vector<std::atomic<int>> ran(kN);
    std::atomic<int> saw_deadline_at_entry{0};
    const auto begin = std::chrono::steady_clock::now();
    parallel_for(ex, kN, [&](std::size_t i) {
        ran[i].fetch_add(1, std::memory_order_relaxed);
        if (token.cancelled()) {
            saw_deadline_at_entry.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        const auto give_up =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!token.cancelled() && std::chrono::steady_clock::now() < give_up)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        EXPECT_TRUE(token.cancelled());
    });
    const auto elapsed = std::chrono::steady_clock::now() - begin;

    for (std::size_t i = 0; i < kN; ++i)
        EXPECT_EQ(ran[i].load(), 1) << "index " << i;
    EXPECT_GE(saw_deadline_at_entry.load(), static_cast<int>(kN) / 2);
    EXPECT_LT(std::chrono::duration_cast<std::chrono::seconds>(elapsed).count(),
              5);
}

TEST(SchedExecutor, ConcurrentExternalWaitersShareOnePool) {
    // The service layer runs several verification requests on one shared
    // Executor from distinct connection threads; each external thread
    // submits its own parallel_for and helps while waiting.
    Executor ex(4);
    constexpr int kThreads = 4;
    constexpr std::size_t kN = 256;
    std::vector<std::atomic<std::uint64_t>> sums(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            parallel_for(ex, kN, [&, t](std::size_t i) {
                sums[t].fetch_add(i + 1, std::memory_order_relaxed);
            });
        });
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t)
        EXPECT_EQ(sums[t].load(), kN * (kN + 1) / 2);
}

TEST(SchedParallelFor, CoversEveryIndexExactlyOnce) {
    for (unsigned jobs : {1u, 4u}) {
        Executor ex(jobs);
        constexpr std::size_t kN = 1000;
        std::vector<std::atomic<int>> hits(kN);
        parallel_for(ex, kN, [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1);
    }
}

TEST(SchedParallelFor, NestedFanOutDoesNotDeadlock) {
    Executor ex(4);
    std::atomic<int> count{0};
    parallel_for(ex, 8, [&](std::size_t) {
        parallel_for(ex, 8, [&](std::size_t) {
            count.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(count.load(), 64);
}

TEST(SchedParallelFor, RethrowsLowestFailingIndex) {
    for (unsigned jobs : {1u, 4u}) {
        Executor ex(jobs);
        try {
            parallel_for(ex, 16, [&](std::size_t i) {
                if (i == 3 || i == 11)
                    throw std::runtime_error("boom " + std::to_string(i));
            });
            FAIL() << "expected an exception";
        } catch (const std::runtime_error& e) {
            EXPECT_STREQ(e.what(), "boom 3");
        }
    }
}

TEST(SchedParallelMap, ResultsOrderedByIndex) {
    for (unsigned jobs : {1u, 4u}) {
        Executor ex(jobs);
        auto squares = parallel_map<std::size_t>(
            ex, 64, [](std::size_t i) { return i * i; });
        ASSERT_EQ(squares.size(), 64u);
        for (std::size_t i = 0; i < 64; ++i) EXPECT_EQ(squares[i], i * i);
    }
}

TEST(SchedFindFirst, ReturnsLowestIndexHitNotFirstFinisher) {
    for (unsigned jobs : {1u, 4u, 8u}) {
        Executor ex(jobs);
        // Index 5 hits instantly; index 2 hits after a delay.  The winner
        // must be 2 at every jobs value: the reduction is by index, not by
        // completion order.
        auto hit = find_first<int>(
            ex, 10, [&](std::size_t i, const CancellationToken&)
                -> std::optional<int> {
                if (i == 5) return 50;
                if (i == 2) {
                    std::this_thread::sleep_for(std::chrono::milliseconds(5));
                    return 20;
                }
                return std::nullopt;
            });
        ASSERT_TRUE(hit.has_value());
        EXPECT_EQ(hit->index, 2u);
        EXPECT_EQ(hit->value, 20);
    }
}

TEST(SchedFindFirst, MissReturnsNullopt) {
    for (unsigned jobs : {1u, 4u}) {
        Executor ex(jobs);
        auto hit = find_first<int>(
            ex, 32,
            [](std::size_t, const CancellationToken&) -> std::optional<int> {
                return std::nullopt;
            });
        EXPECT_FALSE(hit.has_value());
    }
}

TEST(SchedFindFirst, CancelsIndicesAboveTheHit) {
    // With a hit at index 0, every later task either observes its token
    // cancelled at some point or was skipped entirely; and no task below
    // the winner is ever cancelled.  Count how many high indices saw a
    // cancelled token -- the mechanism, not the schedule, is under test,
    // so only the invariant "winner is 0" is asserted strictly.
    Executor ex(4);
    std::atomic<int> cancelled_seen{0};
    auto hit = find_first<int>(
        ex, 64, [&](std::size_t i, const CancellationToken& token)
            -> std::optional<int> {
            if (i == 0) return 1;
            // Busy-wait a moment to give the cancel a chance to land.
            for (int spin = 0; spin < 1000 && !token.cancelled(); ++spin)
                std::this_thread::yield();
            if (token.cancelled())
                cancelled_seen.fetch_add(1, std::memory_order_relaxed);
            return std::nullopt;
        });
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->index, 0u);
    EXPECT_EQ(hit->value, 1);
}

TEST(SchedDeque, LifoOwnerFifoThief) {
    WorkDeque dq;
    int order = 0;
    for (int i = 0; i < 3; ++i)
        dq.push_bottom([i, &order] { order = order * 10 + i; });
    Task t;
    ASSERT_TRUE(dq.steal_top(t));  // thief sees the oldest task
    t();
    EXPECT_EQ(order, 0);
    ASSERT_TRUE(dq.pop_bottom(t));  // owner sees the newest
    t();
    EXPECT_EQ(order, 2);
    ASSERT_TRUE(dq.pop_bottom(t));
    t();
    EXPECT_EQ(order, 21);
    EXPECT_FALSE(dq.pop_bottom(t));
    EXPECT_FALSE(dq.steal_top(t));
}

}  // namespace
}  // namespace stgcc::sched
