// stgcc -- cooperative cancellation for the parallel execution runtime.
//
// A CancellationSource owns a shared flag and deadline; CancellationTokens
// are cheap copyable handles that long-running tasks poll.  Cancellation is
// purely cooperative: setting the flag never interrupts anything, it only
// makes subsequent `cancelled()` polls return true.  A default-constructed
// token is "empty" and can never be cancelled, so APIs can take a token
// unconditionally and callers that do not need early stop pass `{}`.
//
// Deadlines: `cancel_after(duration)` stores a steady_clock deadline in the
// shared state, and every poll after it has passed reads as cancelled.
// Nothing fires a deadline, so arming one costs a compare-and-swap and a
// finished request leaves nothing behind.  Polls read the clock only when
// a deadline is armed.  Every consumer polls (CompatSolver and ReachSolver
// every 1024 search nodes, the service's admission gate every 5 ms, the
// service between phases), so a deadline is observed within one poll
// period of passing.  The service layer (src/svc/) uses this for
// per-request deadlines: arm once at admission, hand the token to every
// solve.
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

#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <vector>

namespace stgcc::sched {

namespace detail {

/// What a source shares with its tokens: the flag `cancel()` sets and the
/// earliest armed deadline, in steady_clock ticks (kNever: none armed).
struct CancelState {
    using Clock = std::chrono::steady_clock;
    static constexpr Clock::rep kNever = std::numeric_limits<Clock::rep>::max();

    std::atomic<bool> flag{false};
    std::atomic<Clock::rep> deadline{kNever};

    [[nodiscard]] bool cancelled() const noexcept {
        if (flag.load(std::memory_order_acquire)) return true;
        const Clock::rep d = deadline.load();
        return d != kNever && Clock::now().time_since_epoch().count() >= d;
    }
};

}  // namespace detail

class CancellationSource;

/// Polling handle.  Copyable, cheap (usually one shared_ptr); empty by
/// default.  A combined token carries one state per live input.
class CancellationToken {
public:
    CancellationToken() = default;

    /// True when the token is connected to a source (empty tokens are not).
    [[nodiscard]] bool cancellable() const noexcept { return !states_.empty(); }

    /// True once any connected source was cancelled or its deadline has
    /// passed; empty tokens never are.
    [[nodiscard]] bool cancelled() const noexcept {
        for (const auto& s : states_)
            if (s->cancelled()) return true;
        return false;
    }

    /// A token cancelled when either input is.  Empty inputs contribute
    /// nothing, so combine(a, {}) behaves exactly like a.
    [[nodiscard]] static CancellationToken combine(const CancellationToken& a,
                                                   const CancellationToken& b) {
        CancellationToken out;
        out.states_.reserve(a.states_.size() + b.states_.size());
        out.states_.insert(out.states_.end(), a.states_.begin(), a.states_.end());
        out.states_.insert(out.states_.end(), b.states_.begin(), b.states_.end());
        return out;
    }

private:
    friend class CancellationSource;
    using State = std::shared_ptr<const detail::CancelState>;
    explicit CancellationToken(State state) { states_.push_back(std::move(state)); }

    std::vector<State> states_;
};

/// Owner side.  Copies share the same state (copying a source does not
/// fork a new cancellation scope).
class CancellationSource {
public:
    CancellationSource() : state_(std::make_shared<detail::CancelState>()) {}

    void cancel() noexcept { state_->flag.store(true, std::memory_order_release); }

    /// Cancel this source `d` from now.  Non-positive durations cancel
    /// immediately (synchronously); a deadline past the last time_point
    /// steady_clock can represent never fires.  Arming multiple deadlines
    /// is allowed; the earliest wins.
    template <class Rep, class Period>
    void cancel_after(std::chrono::duration<Rep, Period> d) {
        using Clock = detail::CancelState::Clock;
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
        const Clock::rep when =
            (now + std::chrono::duration_cast<Clock::duration>(d))
                .time_since_epoch()
                .count();
        Clock::rep cur = state_->deadline.load();
        while (when < cur && !state_->deadline.compare_exchange_weak(cur, when)) {
        }
    }

    [[nodiscard]] bool cancelled() const noexcept { return state_->cancelled(); }

    [[nodiscard]] CancellationToken token() const {
        return CancellationToken(state_);
    }

private:
    std::shared_ptr<detail::CancelState> state_;
};

}  // namespace stgcc::sched
