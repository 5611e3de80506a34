// stgcc -- cooperative cancellation for the parallel execution runtime.
//
// A CancellationSource owns a shared flag; CancellationTokens are cheap
// copyable handles that long-running tasks poll.  Cancellation is purely
// cooperative: setting the flag never interrupts anything, it only makes
// subsequent `cancelled()` polls return true.  A default-constructed token
// is "empty" and can never be cancelled, so APIs can take a token
// unconditionally and callers that do not need early stop pass `{}`.
//
// Deadlines: `cancel_after(duration)` / `cancel_at(time_point)` arm the
// source on a process-wide timer thread, so callers no longer hand-roll
// polling loops against a clock.  The timer holds weak references only; a
// source whose last owner goes away before its deadline simply never
// fires.  The service layer (src/svc/) uses this for per-request
// deadlines: arm once at admission, hand the token to every solve.
//
// Composition: `CancellationToken::combine(a, b)` yields a token that is
// cancelled as soon as either input is.  The parallel algorithms use it to
// merge their internal early-stop tokens with a caller-supplied deadline
// token without either side knowing about the other.
//
// The release/acquire pair on the flag makes everything written by the
// cancelling thread before `cancel()` visible to a task that observes the
// cancellation -- tasks may safely read the "winning" result that caused
// their cancellation.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace stgcc::sched {

class CancellationSource;

/// Polling handle.  Copyable, cheap (usually one shared_ptr); empty by
/// default.  A combined token carries one flag per live input.
class CancellationToken {
public:
    CancellationToken() = default;

    /// True when the token is connected to a source (empty tokens are not).
    [[nodiscard]] bool cancellable() const noexcept { return !flags_.empty(); }

    /// True once any connected source was cancelled; empty tokens never are.
    [[nodiscard]] bool cancelled() const noexcept {
        for (const auto& f : flags_)
            if (f->load(std::memory_order_acquire)) return true;
        return false;
    }

    /// A token cancelled when either input is.  Empty inputs contribute
    /// nothing, so combine(a, {}) behaves exactly like a.
    [[nodiscard]] static CancellationToken combine(const CancellationToken& a,
                                                   const CancellationToken& b) {
        CancellationToken out;
        out.flags_.reserve(a.flags_.size() + b.flags_.size());
        out.flags_.insert(out.flags_.end(), a.flags_.begin(), a.flags_.end());
        out.flags_.insert(out.flags_.end(), b.flags_.begin(), b.flags_.end());
        return out;
    }

private:
    friend class CancellationSource;
    using Flag = std::shared_ptr<const std::atomic<bool>>;
    explicit CancellationToken(Flag flag) { flags_.push_back(std::move(flag)); }

    std::vector<Flag> flags_;
};

namespace detail {

/// Process-wide deadline timer: one thread, a deadline-ordered list of weak
/// flag references.  Leaky singleton with a detached thread so it is safe
/// to touch during static destruction (tests, CLI exit paths).
class DeadlineTimer {
public:
    static DeadlineTimer& instance() {
        static DeadlineTimer* timer = new DeadlineTimer();  // leaked on purpose
        return *timer;
    }

    void arm(std::weak_ptr<std::atomic<bool>> flag,
             std::chrono::steady_clock::time_point when) {
        {
            std::lock_guard<std::mutex> lock(mu_);
            entries_.push_back({when, std::move(flag)});
            std::push_heap(entries_.begin(), entries_.end(), later);
            if (!running_) {
                running_ = true;
                std::thread([this] { run(); }).detach();
            }
        }
        cv_.notify_one();
    }

private:
    struct Entry {
        std::chrono::steady_clock::time_point when;
        std::weak_ptr<std::atomic<bool>> flag;
    };
    static bool later(const Entry& a, const Entry& b) { return a.when > b.when; }

    void run() {
        std::unique_lock<std::mutex> lock(mu_);
        while (true) {
            if (entries_.empty()) {
                // Park until the next arm(); the thread stays up for the
                // process lifetime once started (deadlines are rare and
                // cheap, thread churn is not).
                cv_.wait(lock, [this] { return !entries_.empty(); });
                continue;
            }
            const auto next = entries_.front().when;
            if (cv_.wait_until(lock, next) == std::cv_status::timeout ||
                std::chrono::steady_clock::now() >= next) {
                const auto now = std::chrono::steady_clock::now();
                while (!entries_.empty() && entries_.front().when <= now) {
                    std::pop_heap(entries_.begin(), entries_.end(), later);
                    if (auto flag = entries_.back().flag.lock())
                        flag->store(true, std::memory_order_release);
                    entries_.pop_back();
                }
            }
        }
    }

    std::mutex mu_;
    std::condition_variable cv_;
    std::vector<Entry> entries_;  // min-heap by deadline
    bool running_ = false;
};

}  // namespace detail

/// Owner side.  Copies share the same flag (copying a source does not fork
/// a new cancellation scope).
class CancellationSource {
public:
    CancellationSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

    void cancel() noexcept { flag_->store(true, std::memory_order_release); }

    /// Arm the shared deadline timer to cancel this source `d` from now.
    /// Non-positive durations cancel immediately (synchronously); a
    /// deadline past the last time_point steady_clock can represent never
    /// fires.  The timer keeps only a weak reference: destroying every
    /// owner disarms the deadline.  Arming multiple deadlines is allowed;
    /// the earliest wins.
    template <class Rep, class Period>
    void cancel_after(std::chrono::duration<Rep, Period> d) {
        using Clock = std::chrono::steady_clock;
        if (d <= std::chrono::duration<Rep, Period>::zero()) {
            cancel();
            return;
        }
        // Compare in d's own unit: the headroom converts down without
        // overflow, where d converted up to nanoseconds could wrap.
        const Clock::time_point now = Clock::now();
        const Clock::duration headroom = Clock::time_point::max() - now;
        if (d >= std::chrono::duration_cast<std::chrono::duration<Rep, Period>>(
                     headroom))
            return;
        cancel_at(now + std::chrono::duration_cast<Clock::duration>(d));
    }

    /// Arm the shared deadline timer to cancel this source at `when`.
    void cancel_at(std::chrono::steady_clock::time_point when) {
        detail::DeadlineTimer::instance().arm(flag_, when);
    }

    [[nodiscard]] bool cancelled() const noexcept {
        return flag_->load(std::memory_order_acquire);
    }

    [[nodiscard]] CancellationToken token() const {
        return CancellationToken(flag_);
    }

private:
    std::shared_ptr<std::atomic<bool>> flag_;
};

}  // namespace stgcc::sched
