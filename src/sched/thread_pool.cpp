#include "sched/thread_pool.hpp"

#include <chrono>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace stgcc::sched {

namespace {

// Identity of the calling thread within its pool; kNotWorker for threads
// that are not pool workers (the main thread, other pools' workers).
constexpr unsigned kNotWorker = 0xffffffffu;
thread_local WorkStealingPool* t_pool = nullptr;
thread_local unsigned t_worker_index = kNotWorker;

// Execution context of the pool task the calling thread is running right
// now.  A plain stack of contexts via save/restore in execute(): a thread
// that helps while waiting (help_until inside a task) pushes the helped
// task's context and pops back to its own afterwards.
struct ExecContext {
    std::uint64_t chain_base_ns = 0;  ///< critical path up to this task's start
    std::uint64_t nested_ns = 0;      ///< time spent in helped tasks inside this one
    Stopwatch since_start;            ///< wall time inside this task (gross)
};
thread_local ExecContext* t_exec = nullptr;

// Self time of the context: gross elapsed minus completed nested helps.
// Called only from the task's own code (submit) or right after it returns
// (execute), so no nested help is in flight and nested_ns is complete.
std::uint64_t self_elapsed_ns(const ExecContext& ctx) noexcept {
    const std::uint64_t gross = ctx.since_start.nanos();
    return gross > ctx.nested_ns ? gross - ctx.nested_ns : 0;
}

// Parked workers and helping threads re-check their predicate at least this
// often even without a notification (belt and braces against lost wakeups).
constexpr auto kParkTimeout = std::chrono::milliseconds(50);

obs::Counter& c_executed() {
    static obs::Counter& c = obs::counter("sched.tasks_executed");
    return c;
}
obs::Counter& c_stolen() {
    static obs::Counter& c = obs::counter("sched.tasks_stolen");
    return c;
}
obs::Counter& c_submitted() {
    static obs::Counter& c = obs::counter("sched.tasks_submitted");
    return c;
}
obs::Counter& c_busy_ns() {
    static obs::Counter& c = obs::counter("sched.worker_busy_ns");
    return c;
}
obs::Counter& c_park_ns() {
    static obs::Counter& c = obs::counter("sched.park_ns");
    return c;
}
obs::Histogram& h_queue_delay() {
    static obs::Histogram& h = obs::histogram("sched.queue_delay_ns");
    return h;
}

void atomic_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) noexcept {
    std::uint64_t cur = slot.load(std::memory_order_relaxed);
    while (v > cur &&
           !slot.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
}

}  // namespace

WorkStealingPool::WorkStealingPool(unsigned workers) {
    if (workers == 0) workers = 1;
    workers_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        workers_.push_back(std::make_unique<Worker>());
    // Threads start only after the worker vector is fully built (workers
    // scan each other's deques).
    for (unsigned i = 0; i < workers; ++i)
        workers_[i]->thread = std::thread([this, i] { worker_main(i); });
    obs::gauge("sched.workers").record_max(static_cast<std::int64_t>(workers));
}

WorkStealingPool::~WorkStealingPool() {
    stop_.store(true, std::memory_order_release);
    {
        std::lock_guard<std::mutex> lock(cv_mu_);
    }
    cv_.notify_all();
    for (auto& w : workers_)
        if (w->thread.joinable()) w->thread.join();
    obs::gauge("sched.critical_path_ns")
        .record_max(static_cast<std::int64_t>(
            critical_path_ns_.load(std::memory_order_relaxed)));
}

WorkStealingPool* WorkStealingPool::current() noexcept { return t_pool; }

void WorkStealingPool::submit(Task task) {
    submitted_.fetch_add(1, std::memory_order_relaxed);
    c_submitted().add();
    PoolTask pt;
    pt.fn = std::move(task);
    pt.meta.submit_ns = epoch_.nanos();
    if (t_exec) {
        // Critical-path chain: everything this task depends on is at most
        // (submitter's chain base + the submitter's own work so far).  Self
        // time, not gross: time the submitter spent helping unrelated tasks
        // is no dependency of this one.
        pt.meta.chain_ns = t_exec->chain_base_ns + self_elapsed_ns(*t_exec);
    }
    if (obs::enabled()) {
        pt.meta.flow_id = obs::Tracer::instance().next_flow_id();
        obs::Tracer::instance().flow(pt.meta.flow_id, /*begin=*/true);
    }
    if (t_pool == this && t_worker_index != kNotWorker)
        workers_[t_worker_index]->deque.push_bottom(std::move(pt));
    else
        injector_.push_bottom(std::move(pt));
    queued_.fetch_add(1, std::memory_order_release);
    notify_one_locked();
}

void WorkStealingPool::wake_all() {
    {
        std::lock_guard<std::mutex> lock(cv_mu_);
    }
    cv_.notify_all();
}

void WorkStealingPool::notify_one_locked() {
    // Taking and dropping the lock pairs with the predicate re-check in
    // cv_.wait_for; without it a worker could check queued_ == 0 and park
    // just as the increment lands, missing the notification.
    {
        std::lock_guard<std::mutex> lock(cv_mu_);
    }
    cv_.notify_one();
}

bool WorkStealingPool::try_get(PoolTask& out, unsigned self_index) {
    const bool is_worker = self_index != kNotWorker;
    if (is_worker && workers_[self_index]->deque.pop_bottom(out)) {
        queued_.fetch_sub(1, std::memory_order_relaxed);
        return true;
    }
    if (injector_.steal_top(out)) {
        queued_.fetch_sub(1, std::memory_order_relaxed);
        return true;
    }
    const unsigned n = num_workers();
    const unsigned start = is_worker ? self_index + 1 : 0;
    for (unsigned off = 0; off < n; ++off) {
        const unsigned victim = (start + off) % n;
        if (is_worker && victim == self_index) continue;
        if (workers_[victim]->deque.steal_top(out)) {
            queued_.fetch_sub(1, std::memory_order_relaxed);
            stolen_.fetch_add(1, std::memory_order_relaxed);
            c_stolen().add();
            return true;
        }
    }
    return false;
}

void WorkStealingPool::execute(PoolTask& task, unsigned self_index) {
    const std::uint64_t start_ns = epoch_.nanos();
    const std::uint64_t queue_delay =
        start_ns > task.meta.submit_ns ? start_ns - task.meta.submit_ns : 0;
    if (obs::enabled() && task.meta.flow_id != 0)
        obs::Tracer::instance().flow(task.meta.flow_id, /*begin=*/false);

    ExecContext ctx;
    ctx.chain_base_ns = task.meta.chain_ns;
    ExecContext* const prev = t_exec;
    t_exec = &ctx;
    task.fn();
    t_exec = prev;
    task.fn = nullptr;  // release captures before accounting
    // Self time: a task that helps while waiting (help_until inside it)
    // runs other tasks nested in its own wall time; those account for
    // themselves, so this task keeps only the remainder.  Summed self
    // times are then an exact partition of real execution time -- the
    // total-work side of the work-span law.
    const std::uint64_t gross = ctx.since_start.nanos();
    const std::uint64_t ns = gross > ctx.nested_ns ? gross - ctx.nested_ns : 0;
    if (prev) prev->nested_ns += gross;

    // The task's completion extends the submission-chain approximation of
    // the critical path (a lower bound on the true span: join edges -- a
    // waiter resuming after wait() -- are not chained).
    atomic_max(critical_path_ns_, ctx.chain_base_ns + ns);

    busy_ns_.fetch_add(ns, std::memory_order_relaxed);
    if (self_index == kNotWorker)
        external_busy_ns_.fetch_add(ns, std::memory_order_relaxed);
    queue_delay_ns_.fetch_add(queue_delay, std::memory_order_relaxed);
    c_busy_ns().add(ns);
    h_queue_delay().observe(queue_delay);
    c_executed().add();
    // `executed` is published last, with release: a reader that sees a
    // task counted there (stats() acquires it first) also sees that task's
    // busy, queue-delay, steal and critical-path tallies.  TaskGroup::wait()
    // returns before this point, so polling stats().executed is the
    // quiescence point for exact reads.
    executed_.fetch_add(1, std::memory_order_release);
}

void WorkStealingPool::worker_main(unsigned index) {
    t_pool = this;
    t_worker_index = index;
    obs::Tracer::instance().set_thread_name("worker-" + std::to_string(index));
    PoolTask task;
    for (;;) {
        if (try_get(task, index)) {
            execute(task, index);
            continue;
        }
        if (stop_.load(std::memory_order_acquire)) break;
        Stopwatch parked;
        {
            std::unique_lock<std::mutex> lock(cv_mu_);
            cv_.wait_for(lock, kParkTimeout, [&] {
                return stop_.load(std::memory_order_acquire) ||
                       queued_.load(std::memory_order_acquire) > 0;
            });
        }
        const std::uint64_t ns = parked.nanos();
        park_ns_.fetch_add(ns, std::memory_order_relaxed);
        c_park_ns().add(ns);
    }
    t_pool = nullptr;
    t_worker_index = kNotWorker;
}

void WorkStealingPool::help_until(const std::function<bool()>& done) {
    const unsigned self = t_pool == this ? t_worker_index : kNotWorker;
    PoolTask task;
    while (!done()) {
        if (try_get(task, self)) {
            execute(task, self);
            continue;
        }
        // Nothing stealable: the remaining group tasks are running on other
        // threads.  Park briefly; task completions notify the pool cv.
        std::unique_lock<std::mutex> lock(cv_mu_);
        cv_.wait_for(lock, kParkTimeout, [&] {
            return done() || queued_.load(std::memory_order_acquire) > 0;
        });
    }
}

WorkStealingPool::Stats WorkStealingPool::stats() const {
    Stats s;
    s.executed = executed_.load(std::memory_order_acquire);
    s.stolen = stolen_.load(std::memory_order_relaxed);
    s.submitted = submitted_.load(std::memory_order_relaxed);
    s.busy_ns = busy_ns_.load(std::memory_order_relaxed);
    s.external_busy_ns = external_busy_ns_.load(std::memory_order_relaxed);
    s.queue_delay_ns = queue_delay_ns_.load(std::memory_order_relaxed);
    s.critical_path_ns = critical_path_ns_.load(std::memory_order_relaxed);
    s.park_ns = park_ns_.load(std::memory_order_relaxed);
    return s;
}

void TaskGroup::run(Task fn) {
    if (!pool_) {
        fn();
        return;
    }
    pending_->fetch_add(1, std::memory_order_release);
    // The wrapper keeps the counter alive: a group whose wait() already
    // returned can be destroyed while the last wrapper is still unwinding.
    pool_->submit([fn = std::move(fn), pending = pending_, pool = pool_] {
        fn();
        if (pending->fetch_sub(1, std::memory_order_acq_rel) == 1)
            pool->wake_all();  // helpers parked on this group re-check
    });
}

void TaskGroup::wait() {
    if (!pool_) return;
    pool_->help_until(
        [this] { return pending_->load(std::memory_order_acquire) == 0; });
}

}  // namespace stgcc::sched
