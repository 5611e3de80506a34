// stgcc -- per-worker work-stealing deque.
//
// Chase-Lev layout: the owning worker pushes and pops at the *bottom*
// (LIFO, cache-warm, newest subtask first), thieves steal from the *top*
// (FIFO, oldest task first, which tends to hand a thief the largest
// remaining unit of work).  Unlike the classic lock-free Chase-Lev deque,
// both ends are guarded by one small mutex held for O(1) pointer moves:
// stgcc tasks are coarse (a whole ILP solve or a whole model verification,
// microseconds to seconds each), so deque traffic is orders of magnitude
// below the contention regime where lock-free bottoms pay off -- and the
// mutex keeps the structure trivially correct under ThreadSanitizer.  See
// docs/PARALLELISM.md for the rationale.
#pragma once

#include <deque>
#include <functional>
#include <mutex>
#include <utility>

namespace stgcc::sched {

using Task = std::function<void()>;

/// Deque over an arbitrary movable payload.  The pool instantiates it with
/// its task-plus-telemetry record.
template <class T>
class WorkDequeT {
public:
    /// Owner end: push a new task (most recently spawned work).
    void push_bottom(T task) {
        std::lock_guard<std::mutex> lock(mu_);
        q_.push_back(std::move(task));
    }

    /// Owner end: take the most recently pushed task.  False when empty.
    bool pop_bottom(T& out) {
        std::lock_guard<std::mutex> lock(mu_);
        if (q_.empty()) return false;
        out = std::move(q_.back());
        q_.pop_back();
        return true;
    }

    /// Thief end: take the oldest task.  False when empty.
    bool steal_top(T& out) {
        std::lock_guard<std::mutex> lock(mu_);
        if (q_.empty()) return false;
        out = std::move(q_.front());
        q_.pop_front();
        return true;
    }

    [[nodiscard]] bool empty() const {
        std::lock_guard<std::mutex> lock(mu_);
        return q_.empty();
    }

    [[nodiscard]] std::size_t size() const {
        std::lock_guard<std::mutex> lock(mu_);
        return q_.size();
    }

private:
    mutable std::mutex mu_;
    std::deque<T> q_;
};

}  // namespace stgcc::sched
