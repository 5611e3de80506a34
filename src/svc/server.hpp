// stgcc -- stgd: the resident verification service (docs/SERVICE.md).
//
// A Server owns the long-lived state that per-process CLI runs pay for on
// every invocation: one sched::Executor shared by all requests, an LRU of
// prefix-artifact bundles (parse + dummy contraction + unfolding, tier 1), an
// in-memory map of rendered verdicts, and the on-disk result cache
// (tier 3).  Connections arrive over Unix-domain or TCP listeners speaking
// the length-prefixed JSON protocol of svc/frame.hpp + svc/protocol.hpp.
//
// Threading model:
//   * run() is the accept loop (one thread, usually main);
//   * every connection gets a dedicated thread that reads one frame at a
//     time -- requests on one connection are handled in order, concurrency
//     comes from having many connections.  The accept loop joins the
//     threads of closed connections before it starts the next one, so a
//     daemon holds a thread (and its stack) per open connection, not per
//     connection ever accepted;
//   * verification itself runs on the one shared Executor.  Connection
//     threads are external waiters of the pool (they help while blocked),
//     so any number of them may verify concurrently without oversubscribing
//     the machine;
//   * an admission gate bounds the number of concurrently *verifying*
//     requests (`max_inflight`); requests beyond it queue on a condition
//     variable, still subject to their deadline.
//
// Deadlines: a per-request `deadline_ms` (or the server default) stores a
// deadline in a CancellationSource; the token is threaded through
// SearchOptions::cancel into every solver of the request -- the USC, CSC
// and normalcy pair searches and the section 5 deadlock search -- which
// poll it every 1024 search nodes, and the admission gate polls it while
// queued.  No thread fires a deadline: a poll after it has passed reads as
// cancelled.  A request whose deadline passes is answered with a
// `deadline_exceeded` error; partial results from a cancelled solve are
// never served.  Parsing, unfolding and the persistency check do not poll
// -- the deadline is checked between phases (documented limitation,
// docs/SERVICE.md).
//
// Shutdown: request_shutdown() is async-signal-safe (SIGTERM handler).  The
// accept loop stops taking connections, every connection thread finishes
// the request it is working on, responses are flushed, and run() returns 0
// after all threads joined -- a drained daemon never abandons an accepted
// request.  A frame still incomplete when the drain starts is dropped as
// torn, so a stalled client cannot hold the drain.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "cache/prefix_artifacts.hpp"
#include "cache/result_cache.hpp"
#include "core/verdict.hpp"
#include "obs/eventlog.hpp"
#include "obs/expo.hpp"
#include "sched/cancellation.hpp"
#include "sched/parallel.hpp"
#include "svc/frame.hpp"
#include "svc/http.hpp"
#include "svc/protocol.hpp"
#include "svc/socket.hpp"
#include "util/stopwatch.hpp"

namespace stgcc::svc {

struct ServerConfig {
    /// Endpoints to listen on (at least one; see socket.hpp syntax).
    std::vector<Endpoint> listen;
    /// Worker threads of the shared executor (0 = hardware concurrency).
    unsigned jobs = 0;
    /// On-disk result-cache root ("" = no tier-3 cache).
    std::string cache_dir;
    /// Maximum accepted frame payload.
    std::uint32_t max_frame = kDefaultMaxFrame;
    /// Default per-request deadline when the request carries none (0 = no
    /// deadline).
    std::uint64_t default_deadline_ms = 0;
    /// Concurrently verifying requests admitted past the gate (0 = the
    /// resolved executor job count).
    std::size_t max_inflight = 0;
    /// In-memory prefix-artifact bundles kept (LRU).  Bundles hold the
    /// unfolding prefix -- the dominant memory cost -- so this is small.
    std::size_t bundle_slots = 8;
    /// HTTP scrape endpoint serving /metrics, /healthz and /buildinfo
    /// (docs/OBSERVABILITY.md); nullopt = no metrics listener.
    std::optional<Endpoint> metrics_listen;
    /// JSONL event-log path ("" = no event log), minimum record level and
    /// rotation threshold (obs/eventlog.hpp).
    std::string event_log_path;
    obs::LogLevel event_log_level = obs::LogLevel::Info;
    std::uint64_t event_log_max_bytes = 64u << 20;
};

class Server {
public:
    explicit Server(ServerConfig cfg);
    ~Server();
    Server(const Server&) = delete;
    Server& operator=(const Server&) = delete;

    /// Bind + listen on every configured endpoint.  False + `error` on the
    /// first failure (already-bound listeners are closed again).
    [[nodiscard]] bool start(std::string& error);

    /// Resolved listener addresses (TCP port 0 replaced by the kernel's
    /// choice).  Valid after start().
    [[nodiscard]] const std::vector<std::string>& bound() const noexcept {
        return bound_;
    }

    /// Resolved metrics-listener address ("" when no metrics listener was
    /// configured).  Valid after start().
    [[nodiscard]] const std::string& metrics_bound() const noexcept {
        return metrics_http_.bound();
    }

    /// The server's structured event log (disabled when no path was
    /// configured); exposed so stgd can stamp start/stop records.
    [[nodiscard]] obs::EventLog& event_log() noexcept { return event_log_; }

    /// Accept loop; returns after a drain completes (exit code 0) or on a
    /// listener-level failure (2).  Call from the thread that owns the
    /// server's lifetime (stgd's main, or a test thread).
    int run();

    /// Begin a graceful drain: stop accepting, finish in-flight requests,
    /// make run() return.  Async-signal-safe (atomic flag + pipe write);
    /// callable from any thread or signal handler, idempotent.
    void request_shutdown() noexcept;

    [[nodiscard]] bool draining() const noexcept {
        return draining_.load(std::memory_order_acquire);
    }

    /// The `stats` response payload (also the final snapshot stgd writes
    /// after a drain).
    [[nodiscard]] obs::Json stats_json();

private:
    /// Outcome of one check: either a rendered verdict or a protocol error.
    struct Outcome {
        bool ok = false;
        std::string error_code;
        std::string error_message;
        core::RenderedVerdict r;
        /// "memory" / "disk" / nullptr (a fresh solve).
        const char* cache_tier = nullptr;
        /// The "cached" response member: the tier name, or false.
        [[nodiscard]] obs::Json cached() const {
            return cache_tier ? obs::Json(cache_tier) : obs::Json(false);
        }
        std::uint64_t model_hash = 0;      ///< fnv1a64 of the model text
    };

    /// Parse + dummy contraction + unfolding of one model text, shared
    /// across requests (tier-1 reuse across the wire).
    struct Bundle {
        std::uint64_t hash = 0;
        std::shared_ptr<const stg::Stg> model;  ///< as parsed
        /// core::prepare_stg(*model); declared after `model`, which its
        /// artifacts may refer to.
        core::PreparedStg prepared;
        std::uint64_t last_used = 0;
    };

    /// One connection's thread; `done` is its last write, so a thread
    /// whose flag is set is joined at once.
    struct Connection {
        std::thread thread;
        std::atomic<bool> done{false};
    };

    void serve_connection(Fd fd);
    /// Join and forget the connection threads: those whose connection has
    /// closed (`finished_only`), or all of them, waiting for each.
    void join_connections(bool finished_only);
    /// Handle one decoded request; false ends the connection.
    /// `accepted_before_drain` is whether the frame was read before the
    /// drain flag was set (read-after-drain check/batch requests are
    /// answered with `shutting_down`).
    bool handle_request(int fd, std::mutex& write_mu, const std::string& payload,
                        bool accepted_before_drain);
    void handle_check(int fd, std::mutex& write_mu, const obs::Json& req,
                      const std::string& trace);
    void handle_batch(int fd, std::mutex& write_mu, const obs::Json& req,
                      const std::string& trace);

    /// /metrics, /healthz, /buildinfo responder (runs on the metrics
    /// listener's accept thread).
    [[nodiscard]] HttpResponse handle_http(const std::string& path);

    [[nodiscard]] Outcome run_check(const std::string& model_text,
                                    const CheckOptions& copts,
                                    const sched::CancellationToken& deadline);
    [[nodiscard]] std::shared_ptr<Bundle> get_bundle(
        const std::string& model_text, std::uint64_t hash);
    /// The request's deadline token (`deadline_ms`, else the server
    /// default; empty when neither is set), armed on `source`.
    [[nodiscard]] sched::CancellationToken arm_deadline(
        const obs::Json& req, sched::CancellationSource& source) const;
    /// Wait for an inflight slot.  When the deadline passes first, answer
    /// the request `deadline_exceeded` (queued for `queued`) and return
    /// false.
    bool admit(int fd, std::mutex& write_mu, std::int64_t id,
               const std::string& trace,
               const sched::CancellationToken& deadline,
               const Stopwatch& queued);
    void release();

    /// Pull the trace id out of a request frame, or mint one when absent or
    /// implausible (obs/eventlog.hpp) -- every request ends up with one.
    [[nodiscard]] static std::string request_trace(const obs::Json& req);

    /// Event-log record of one check outcome (shared by check and batch).
    void log_check_outcome(const std::string& trace, const Outcome& out,
                           double seconds, std::int64_t batch_index = -1);

    bool respond(int fd, std::mutex& write_mu, const obs::Json& response);

    ServerConfig cfg_;
    sched::Executor ex_;
    cache::ResultCache rcache_;
    Stopwatch uptime_;
    obs::EventLog event_log_;
    HttpServer metrics_http_;

    /// Sliding-window telemetry, fed off the uptime clock: every handled
    /// request frame / every completed check, sample = latency in ns.
    obs::RollingWindow window_requests_;
    obs::RollingWindow window_checks_;

    std::vector<Fd> listeners_;
    std::vector<std::string> bound_;

    std::atomic<bool> draining_{false};
    int shutdown_pipe_[2] = {-1, -1};  ///< [read, write]; written on drain

    std::mutex threads_mu_;
    std::list<Connection> connections_;

    std::mutex gate_mu_;
    std::condition_variable gate_cv_;
    std::size_t gate_inflight_ = 0;
    std::size_t gate_cap_ = 1;
    std::atomic<std::uint64_t> gate_waiting_{0};  ///< queued behind the gate

    std::mutex bundles_mu_;
    std::vector<std::shared_ptr<Bundle>> bundles_;
    std::uint64_t bundle_clock_ = 0;

    std::mutex results_mu_;
    std::unordered_map<std::string, core::RenderedVerdict> results_;

    // Live tallies for the stats op (obs counters carry the same data, but
    // these are exact and cheap to read without a registry snapshot).
    std::atomic<std::uint64_t> connections_accepted_{0};
    std::atomic<std::uint64_t> connections_active_{0};
    std::atomic<std::uint64_t> requests_served_{0};
    std::atomic<std::uint64_t> checks_run_{0};
    std::atomic<std::uint64_t> memory_hits_{0};
    std::atomic<std::uint64_t> disk_hits_{0};
    std::atomic<std::uint64_t> misses_{0};
    std::atomic<std::uint64_t> deadline_exceeded_{0};
    std::atomic<std::uint64_t> errors_{0};
};

}  // namespace stgcc::svc
