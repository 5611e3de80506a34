// stgcc -- work-stealing thread pool and task groups.
//
// A WorkStealingPool owns a fixed set of workers, each with its own
// WorkDeque; external submissions land in a shared injector deque.  An idle
// worker takes from (in order) its own deque bottom, the injector, then the
// other workers' deque tops, scanning round-robin from its right-hand
// neighbour.  A full unsuccessful scan counts as a steal failure and parks
// the worker on a condition variable.
//
// The crucial property for nested parallelism is *helping*: any thread --
// a worker in the middle of a task, or an external caller -- can execute
// queued tasks while it waits for a TaskGroup to drain (`help_until`).
// A worker that fans out subtasks and waits for them therefore never
// deadlocks the pool; it works its own subtasks (or anything stealable)
// until the group completes.
//
// Observability: per-worker tallies (tasks executed/stolen, steal
// failures, busy nanoseconds) feed the `sched.*` metrics in src/obs/ when
// observability is enabled, and are always available via `stats()`.
// Spans opened inside tasks carry the executing worker's thread id, so
// Chrome-trace exports show the real parallel schedule (one row per
// worker).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "sched/deque.hpp"
#include "util/stopwatch.hpp"

namespace stgcc::sched {

/// "No attribution group" sentinel for TaskMeta::group.
inline constexpr std::uint32_t kNoGroup = 0xffffffffu;

/// Telemetry stamped onto every queued task at submission.  Travels with
/// the task through the deques so the executing worker can compute queue
/// delay (submit -> start), extend the critical-path chain, attribute the
/// task to a group, and close the Chrome-trace flow link.
struct TaskMeta {
    std::uint64_t submit_ns = 0;  ///< pool-epoch stamp taken in submit()
    std::uint64_t chain_ns = 0;   ///< critical-path length up to submission
    std::uint32_t group = kNoGroup;  ///< attribution group (see set_current_group)
    std::uint64_t flow_id = 0;    ///< Chrome-trace flow link (0 = none)
};

/// What the pool's deques actually carry: the callable plus its telemetry.
struct PoolTask {
    Task fn;
    TaskMeta meta;
};

class WorkStealingPool {
public:
    /// Start `workers` >= 1 worker threads.
    explicit WorkStealingPool(unsigned workers);

    /// Signals shutdown and joins.  The caller must have drained all task
    /// groups first (TaskGroup::wait); tasks still queued at destruction
    /// are executed before the workers exit.
    ~WorkStealingPool();

    WorkStealingPool(const WorkStealingPool&) = delete;
    WorkStealingPool& operator=(const WorkStealingPool&) = delete;

    [[nodiscard]] unsigned num_workers() const noexcept {
        return static_cast<unsigned>(workers_.size());
    }

    /// Enqueue a task.  From a worker thread of this pool the task goes to
    /// that worker's own deque (LIFO, depth-first fan-out); from any other
    /// thread it goes to the shared injector.  Tasks must not throw -- the
    /// parallel algorithms in sched/parallel.hpp wrap user callables and
    /// capture their exceptions.
    void submit(Task task);

    /// Execute queued tasks on the calling thread until `done()` returns
    /// true.  Callable from worker threads (nested waits) and external
    /// threads alike.  When no task is available and `done()` is still
    /// false, blocks briefly on the pool's condition variable and retries.
    void help_until(const std::function<bool()>& done);

    /// The pool the calling thread is a worker of, or nullptr.
    [[nodiscard]] static WorkStealingPool* current() noexcept;

    /// Wake every parked thread so blocked help_until predicates re-run
    /// (used by TaskGroup when its pending count reaches zero).
    void wake_all();

    /// Merged per-worker tallies (plus work executed by helping threads).
    struct Stats {
        std::uint64_t executed = 0;        ///< tasks run to completion
        std::uint64_t stolen = 0;          ///< tasks taken from another deque
        std::uint64_t steal_failures = 0;  ///< full scans that found nothing
        std::uint64_t submitted = 0;       ///< tasks ever submitted
        std::uint64_t busy_ns = 0;  ///< summed task self time (helping-
                                    ///< nested tasks count once, in themselves)
        /// Portion of busy_ns executed by non-worker threads helping
        /// through help_until (e.g. the caller inside TaskGroup::wait);
        /// profilers count it as extra fractional capacity beyond the
        /// worker count.
        std::uint64_t external_busy_ns = 0;
        std::uint64_t queue_delay_ns = 0;  ///< summed submit -> start latency
        std::uint64_t critical_path_ns = 0;  ///< longest submission chain
        std::uint64_t parks = 0;           ///< worker cv waits (idle episodes)
        std::uint64_t park_ns = 0;         ///< summed parked time
        std::uint64_t injector_contention = 0;  ///< injector pushes that queued
    };
    [[nodiscard]] Stats stats() const;

    /// Per-group attribution: a corpus driver sizes the table once before
    /// submitting work (`configure_groups(models)`), each top-level task
    /// claims its group via `set_current_group(i)`, and nested submissions
    /// inherit the submitter's group.  `group_stats` reads back the tallies
    /// (exact once stats().executed counts every task of the group:
    /// TaskGroup::wait returns before the last task's tallies land).
    struct GroupStats {
        std::uint64_t tasks = 0;
        std::uint64_t queue_delay_ns = 0;
        std::uint64_t busy_ns = 0;
    };
    void configure_groups(std::size_t n);
    [[nodiscard]] GroupStats group_stats(std::size_t group) const;

private:
    // Line-aligned so two workers' hot tallies never share a cache line
    // (each Worker is heap-allocated, but without the alignas the
    // allocator may pack one worker's tail atomics against the next
    // worker's deque mutex).
    struct alignas(64) Worker {
        WorkDequeT<PoolTask> deque;
        std::thread thread;
        std::atomic<std::uint64_t> executed{0};
        std::atomic<std::uint64_t> stolen{0};
        std::atomic<std::uint64_t> steal_failures{0};
        std::atomic<std::uint64_t> busy_ns{0};
        std::atomic<std::uint64_t> queue_delay_ns{0};
        std::atomic<std::uint64_t> parks{0};
        std::atomic<std::uint64_t> park_ns{0};
    };

    struct GroupSlot {
        std::atomic<std::uint64_t> tasks{0};
        std::atomic<std::uint64_t> queue_delay_ns{0};
        std::atomic<std::uint64_t> busy_ns{0};
    };

    void worker_main(unsigned index);
    /// Take one task: own deque (workers only), injector, then steal scan.
    /// `stolen` reports whether the task came off another worker's deque.
    bool try_get(PoolTask& out, unsigned self_index, bool& stolen);
    void execute(PoolTask& task, unsigned self_index, bool stolen);
    void notify_one_locked();

    std::vector<std::unique_ptr<Worker>> workers_;
    WorkDequeT<PoolTask> injector_;

    std::mutex cv_mu_;
    std::condition_variable cv_;
    std::atomic<bool> stop_{false};
    std::atomic<std::uint64_t> queued_{0};     ///< tasks enqueued, not yet taken
    std::atomic<std::uint64_t> submitted_{0};
    std::atomic<std::uint64_t> critical_path_ns_{0};
    std::atomic<std::uint64_t> injector_contention_{0};
    Stopwatch epoch_;  ///< timebase for TaskMeta stamps

    // Per-group attribution table; sized before work is submitted.
    std::vector<std::unique_ptr<GroupSlot>> groups_;

    // Tallies for non-worker threads executing tasks via help_until.
    std::atomic<std::uint64_t> external_executed_{0};
    std::atomic<std::uint64_t> external_stolen_{0};
    std::atomic<std::uint64_t> external_busy_ns_{0};
    std::atomic<std::uint64_t> external_queue_delay_ns_{0};
};

/// Claim attribution group `group` for the pool task the calling thread is
/// currently executing; tasks it submits from now on inherit the group.
/// No-op when the caller is not inside a pool task (serial mode).
void set_current_group(std::uint32_t group) noexcept;

/// Queue delay (submit -> start) of the pool task the calling thread is
/// currently executing; 0 outside a pool task (serial mode).
[[nodiscard]] std::uint64_t current_task_queue_delay_ns() noexcept;

/// A set of tasks whose completion can be awaited.  With a null pool the
/// group degenerates to immediate inline execution -- the `--jobs 1` mode
/// shares every code path with the parallel one except the pool itself.
class TaskGroup {
public:
    explicit TaskGroup(WorkStealingPool* pool) : pool_(pool) {}

    /// Not copyable; `wait()` must be called (or the group empty) before
    /// destruction.
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

    /// Run `fn` in the group.  Inline when the group has no pool.
    void run(Task fn);

    /// Block until every task run() so far has completed, executing queued
    /// pool tasks on this thread while waiting.
    void wait();

private:
    WorkStealingPool* pool_;
    std::shared_ptr<std::atomic<std::uint64_t>> pending_ =
        std::make_shared<std::atomic<std::uint64_t>>(0);
};

}  // namespace stgcc::sched
