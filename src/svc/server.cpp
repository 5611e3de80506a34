#include "svc/server.hpp"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>

#include <cstdio>

#include "obs/build_info.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "stg/astg.hpp"

namespace stgcc::svc {

namespace {

constexpr const char* kDeadlineQueued = "deadline expired while queued";
constexpr const char* kDeadlineVerify = "deadline expired during verification";
/// Rendered-verdict entries kept in memory before the map is flushed.
constexpr std::size_t kResultSlots = 4096;

}  // namespace

Server::Server(ServerConfig cfg)
    : cfg_(std::move(cfg)),
      ex_(cfg_.jobs),
      rcache_(cfg_.cache_dir),
      event_log_(cfg_.event_log_path, cfg_.event_log_level,
                 cfg_.event_log_max_bytes) {
    // A peer closing mid-response must surface as a write error, not kill
    // the daemon.
    std::signal(SIGPIPE, SIG_IGN);
    if (::pipe(shutdown_pipe_) != 0)
        shutdown_pipe_[0] = shutdown_pipe_[1] = -1;
    gate_cap_ = cfg_.max_inflight
                    ? cfg_.max_inflight
                    : std::max<std::size_t>(std::size_t{1}, ex_.jobs());
}

Server::~Server() {
    request_shutdown();
    join_connections(false);
    if (shutdown_pipe_[0] >= 0) ::close(shutdown_pipe_[0]);
    if (shutdown_pipe_[1] >= 0) ::close(shutdown_pipe_[1]);
}

bool Server::start(std::string& error) {
    if (cfg_.listen.empty()) {
        error = "no listen endpoints configured";
        return false;
    }
    if (shutdown_pipe_[0] < 0) {
        error = "cannot create shutdown pipe";
        return false;
    }
    for (const Endpoint& ep : cfg_.listen) {
        Fd fd = listen_endpoint(ep, error);
        if (!fd.valid()) {
            listeners_.clear();
            bound_.clear();
            return false;
        }
        bound_.push_back(local_endpoint(fd, ep));
        listeners_.push_back(std::move(fd));
    }
    if (cfg_.metrics_listen &&
        !metrics_http_.start(
            *cfg_.metrics_listen,
            [this](const std::string& path) { return handle_http(path); },
            error)) {
        listeners_.clear();
        bound_.clear();
        return false;
    }
    if (event_log_.enabled()) {
        obs::Json listen = obs::Json::array();
        for (const std::string& b : bound_) listen.push(b);
        event_log_.info(
            "server.start",
            obs::Json::object()
                .set("pid", static_cast<std::int64_t>(::getpid()))
                .set("listen", std::move(listen))
                .set("metrics_listen", metrics_http_.bound())
                .set("git", std::string(obs::build_git_describe()))
                .set("jobs", ex_.jobs()));
    }
    return true;
}

void Server::request_shutdown() noexcept {
    if (draining_.exchange(true, std::memory_order_acq_rel)) return;
    if (shutdown_pipe_[1] >= 0) {
        const char byte = 'x';
        // The pipe is never drained: one byte keeps the read end readable
        // forever, a level-triggered broadcast to every polling thread.
        [[maybe_unused]] const auto n = ::write(shutdown_pipe_[1], &byte, 1);
    }
}

int Server::run() {
    std::vector<pollfd> fds;
    fds.reserve(listeners_.size() + 1);
    for (const Fd& l : listeners_)
        fds.push_back(pollfd{l.get(), POLLIN, 0});
    fds.push_back(pollfd{shutdown_pipe_[0], POLLIN, 0});
    while (!draining()) {
        for (pollfd& p : fds) p.revents = 0;
        if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1) < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (fds.back().revents & POLLIN) break;
        for (std::size_t i = 0; i + 1 < fds.size(); ++i) {
            if (!(fds[i].revents & POLLIN)) continue;
            Fd conn = accept_connection(listeners_[i]);
            if (!conn.valid()) continue;
            connections_accepted_.fetch_add(1, std::memory_order_relaxed);
            obs::counter("svc.connections").add();
            join_connections(true);
            std::lock_guard<std::mutex> lock(threads_mu_);
            Connection& c = connections_.emplace_back();
            c.thread = std::thread([this, &c, fd = std::move(conn)]() mutable {
                serve_connection(std::move(fd));
                c.done.store(true, std::memory_order_release);
            });
        }
    }
    // Drain: no new connections, wake every connection thread, let each
    // finish the request it already read, then join them all.
    request_shutdown();
    listeners_.clear();
    for (const Endpoint& ep : cfg_.listen)
        if (ep.kind == Endpoint::Kind::Unix) ::unlink(ep.path.c_str());
    join_connections(false);
    // The scrape listener outlives the drain until here: a prober sees
    // /healthz flip to 503 while in-flight requests finish.
    metrics_http_.stop();
    event_log_.info("server.drain",
                    obs::Json::object()
                        .set("requests_served", requests_served_.load())
                        .set("checks_run", checks_run_.load())
                        .set("uptime_seconds", uptime_.seconds()));
    return 0;
}

void Server::join_connections(bool finished_only) {
    std::lock_guard<std::mutex> lock(threads_mu_);
    for (auto it = connections_.begin(); it != connections_.end();) {
        if (finished_only && !it->done.load(std::memory_order_acquire)) {
            ++it;
            continue;
        }
        it->thread.join();
        it = connections_.erase(it);
    }
}

void Server::serve_connection(Fd fd) {
    const auto active =
        connections_active_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (event_log_.should_log(obs::LogLevel::Debug))
        event_log_.write(obs::LogLevel::Debug, "conn.accepted",
                         obs::Json::object().set("active", active));
    std::mutex write_mu;  // serialises frames of one connection (batch rows)
    while (true) {
        pollfd pfd[2] = {{fd.get(), POLLIN, 0}, {shutdown_pipe_[0], POLLIN, 0}};
        if (::poll(pfd, 2, -1) < 0) {
            if (errno == EINTR) continue;
            break;
        }
        if (!(pfd[0].revents & (POLLIN | POLLHUP | POLLERR))) {
            if (pfd[1].revents & POLLIN) break;  // drain, nothing pending
            continue;
        }
        // A frame readable before the drain flag was set counts as accepted
        // and is answered in full even if the drain starts mid-request.  A
        // frame still incomplete when the drain starts is dropped as torn:
        // the wait for its missing bytes watches the shutdown pipe too.
        // Bytes pending after the last accepted request go through the same
        // read, so they are answered (one frame at most) or counted as torn.
        const bool accepted_before_drain = !draining();
        std::string payload;
        const FrameStatus status =
            read_frame(fd.get(), payload, cfg_.max_frame, shutdown_pipe_[0]);
        if (status == FrameStatus::Eof) break;
        if (status == FrameStatus::Oversized) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            respond(fd.get(), write_mu,
                    make_error(0, "bad_request",
                               "frame exceeds maximum payload size"));
            break;  // stream offset is unknowable past a bad header
        }
        if (status != FrameStatus::Ok) {
            obs::counter("svc.torn_connections").add();
            break;
        }
        if (!handle_request(fd.get(), write_mu, payload,
                            accepted_before_drain))
            break;
        if (!accepted_before_drain) break;
    }
    const auto remaining =
        connections_active_.fetch_sub(1, std::memory_order_relaxed) - 1;
    if (event_log_.should_log(obs::LogLevel::Debug))
        event_log_.write(obs::LogLevel::Debug, "conn.closed",
                         obs::Json::object().set("active", remaining));
}

std::string Server::request_trace(const obs::Json& req) {
    if (const obs::Json* t = req.find("trace")) {
        const std::string& id = t->as_string();
        if (obs::plausible_trace_id(id)) return id;
    }
    return obs::generate_trace_id();
}

bool Server::handle_request(int fd, std::mutex& write_mu,
                            const std::string& payload,
                            bool accepted_before_drain) {
    requests_served_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("svc.requests").add();
    Stopwatch req_timer;
    // Every exit path feeds the request window so the 1s/10s/60s rates in
    // the stats op count errors and fast ops alike.
    struct WindowGuard {
        Server* s;
        Stopwatch& t;
        ~WindowGuard() { s->window_requests_.record(t.nanos(), s->uptime_.nanos()); }
    } window_guard{this, req_timer};
    const auto req = obs::Json::parse(payload);
    if (!req || req->kind() != obs::Json::Kind::Object) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        respond(fd, write_mu,
                make_error(0, "bad_request", "request is not a JSON object"));
        return true;  // framing is intact; the connection can continue
    }
    const obs::Json* op = req->find("op");
    const std::string opname = op ? op->as_string() : std::string();
    const std::int64_t id = request_id(*req);
    // Client-minted or server-minted: every request carries a trace id from
    // here on -- response envelopes, event-log records and spans all stamp
    // the same one (docs/OBSERVABILITY.md).
    const std::string trace = request_trace(*req);
    const bool lifecycle = opname == "check" || opname == "batch";
    const auto level = lifecycle ? obs::LogLevel::Info : obs::LogLevel::Debug;
    if (event_log_.should_log(level))
        event_log_.write(level, "request.accepted",
                         obs::Json::object()
                             .set("trace", trace)
                             .set("op", opname)
                             .set("id", id));
    try {
        if (opname == "ping") {
            respond(fd, write_mu,
                    make_ok(id)
                        .set("pong", true)
                        .set("protocol", kProtocolVersion)
                        .set("trace", trace));
            return true;
        }
        if (opname == "stats") {
            respond(fd, write_mu,
                    make_ok(id).merge(stats_json()).set("trace", trace));
            return true;
        }
        if (opname == "shutdown") {
            respond(fd, write_mu,
                    make_ok(id).set("draining", true).set("trace", trace));
            request_shutdown();
            return false;
        }
        if (opname == "check" || opname == "batch") {
            if (!accepted_before_drain) {
                errors_.fetch_add(1, std::memory_order_relaxed);
                respond(fd, write_mu,
                        make_error(id, "shutting_down",
                                   "server is draining; request not accepted")
                            .set("trace", trace));
                return false;
            }
            if (opname == "check")
                handle_check(fd, write_mu, *req, trace);
            else
                handle_batch(fd, write_mu, *req, trace);
            return true;
        }
        errors_.fetch_add(1, std::memory_order_relaxed);
        respond(fd, write_mu,
                make_error(id, "bad_request", "unknown op '" + opname + "'")
                    .set("trace", trace));
        return true;
    } catch (const std::exception& e) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        respond(fd, write_mu,
                make_error(id, "internal", e.what()).set("trace", trace));
        return true;
    }
}

void Server::handle_check(int fd, std::mutex& write_mu, const obs::Json& req,
                          const std::string& trace) {
    const std::int64_t id = request_id(req);
    const obs::Json* model = req.find("model");
    if (!model || model->kind() != obs::Json::Kind::String) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        respond(fd, write_mu,
                make_error(id, "bad_request",
                           "check requires a string 'model' member")
                    .set("trace", trace));
        return;
    }
    obs::Span span("svc.check");
    span.attr("trace", trace);
    const CheckOptions copts = CheckOptions::from_json(req.find("options"));
    sched::CancellationSource source;
    const sched::CancellationToken token = arm_deadline(req, source);
    Stopwatch timer;
    if (!admit(fd, write_mu, id, trace, token, timer)) return;
    if (event_log_.should_log(obs::LogLevel::Info))
        event_log_.info("check.started",
                        obs::Json::object()
                            .set("trace", trace)
                            .set("queue_delay_ms", timer.millis()));
    Outcome out = run_check(model->as_string(), copts, token);
    release();
    window_checks_.record(timer.nanos(), uptime_.nanos());
    log_check_outcome(trace, out, timer.seconds());
    if (!out.ok) {
        if (out.error_code == "deadline_exceeded")
            deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
        errors_.fetch_add(1, std::memory_order_relaxed);
        respond(fd, write_mu,
                make_error(id, out.error_code, out.error_message)
                    .set("trace", trace));
        return;
    }
    respond(fd, write_mu,
            make_ok(id)
                .merge(out.r.to_json())
                .set("cached", out.cached())
                .set("seconds", timer.seconds())
                .set("trace", trace));
}

void Server::log_check_outcome(const std::string& trace, const Outcome& out,
                               double seconds, std::int64_t batch_index) {
    const char* event = "check.completed";
    auto level = obs::LogLevel::Info;
    if (!out.ok) {
        event = out.error_code == "deadline_exceeded"
                    ? "check.deadline_exceeded"
                    : "check.error";
        level = obs::LogLevel::Warn;
    }
    if (!event_log_.should_log(level)) return;
    char hash_hex[17];
    std::snprintf(hash_hex, sizeof hash_hex, "%016llx",
                  static_cast<unsigned long long>(out.model_hash));
    obs::Json fields = obs::Json::object().set("trace", trace);
    if (batch_index >= 0) fields.set("index", batch_index);
    fields.set("model_hash", hash_hex);
    if (out.ok) {
        fields.set("cached", out.cached())
            .set("exit", out.r.exit_code())
            .set("all_hold", out.r.all_hold);
    } else {
        fields.set("code", out.error_code).set("message", out.error_message);
    }
    fields.set("seconds", seconds);
    event_log_.write(level, event, std::move(fields));
}

void Server::handle_batch(int fd, std::mutex& write_mu, const obs::Json& req,
                          const std::string& trace) {
    const std::int64_t id = request_id(req);
    const obs::Json* models = req.find("models");
    if (!models || models->kind() != obs::Json::Kind::Array ||
        models->size() == 0) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        respond(fd, write_mu,
                make_error(id, "bad_request",
                           "batch requires a non-empty 'models' array")
                    .set("trace", trace));
        return;
    }
    struct Item {
        std::int64_t index = 0;
        std::string file;
        const std::string* text = nullptr;
    };
    std::vector<Item> items;
    items.reserve(models->size());
    for (std::size_t i = 0; i < models->size(); ++i) {
        const obs::Json& entry = models->at(i);
        const obs::Json* text = entry.kind() == obs::Json::Kind::Object
                                    ? entry.find("model")
                                    : nullptr;
        if (!text || text->kind() != obs::Json::Kind::String) {
            errors_.fetch_add(1, std::memory_order_relaxed);
            respond(fd, write_mu,
                    make_error(id, "bad_request",
                               "batch models[" + std::to_string(i) +
                                   "] lacks a string 'model' member")
                        .set("trace", trace));
            return;
        }
        Item item;
        const obs::Json* index = entry.find("index");
        item.index = index ? index->as_int()
                           : static_cast<std::int64_t>(i);
        if (const obs::Json* file = entry.find("file"))
            item.file = file->as_string();
        item.text = &text->as_string();
        items.push_back(std::move(item));
    }
    const CheckOptions copts = CheckOptions::from_json(req.find("options"));
    sched::CancellationSource source;
    const sched::CancellationToken token = arm_deadline(req, source);
    Stopwatch timer;
    if (!admit(fd, write_mu, id, trace, token, timer)) return;
    if (event_log_.should_log(obs::LogLevel::Info))
        event_log_.info("check.started",
                        obs::Json::object()
                            .set("trace", trace)
                            .set("models", models->size())
                            .set("queue_delay_ms", timer.millis()));
    // One admission slot covers the whole batch; the models fan out on the
    // shared pool exactly like stgbatch's model-parallel loop, and each row
    // streams back in completion order as soon as its model finishes.
    std::atomic<std::uint64_t> ok_count{0}, violated{0}, errs{0};
    sched::parallel_for(ex_, items.size(), [&](std::size_t i) {
        Stopwatch row_timer;
        Outcome out = run_check(*items[i].text, copts, token);
        window_checks_.record(row_timer.nanos(), uptime_.nanos());
        log_check_outcome(trace, out, row_timer.seconds(), items[i].index);
        obs::Json frame = make_ok(id);
        frame.set("event", "row")
            .set("index", items[i].index)
            .set("file", items[i].file)
            .set("trace", trace);
        if (out.ok) {
            if (out.r.all_hold)
                ok_count.fetch_add(1, std::memory_order_relaxed);
            else
                violated.fetch_add(1, std::memory_order_relaxed);
            frame.set("exit", out.r.exit_code())
                .set("all_hold", out.r.all_hold)
                .set("verdict", out.r.verdict)
                .set("row", out.r.row)
                .set("cached", out.cached())
                .set("seconds", row_timer.seconds());
        } else {
            errs.fetch_add(1, std::memory_order_relaxed);
            if (out.error_code == "deadline_exceeded")
                deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
            frame.set("error", obs::Json::object()
                                   .set("code", out.error_code)
                                   .set("message", out.error_message));
        }
        respond(fd, write_mu, frame);
    });
    release();
    obs::Json done = make_ok(id);
    done.set("event", "done")
        .set("trace", trace)
        .set("summary",
             obs::Json::object()
                 .set("total", items.size())
                 .set("ok", ok_count.load())
                 .set("violated", violated.load())
                 .set("errors", errs.load())
                 .set("seconds", timer.seconds()));
    respond(fd, write_mu, done);
}

Server::Outcome Server::run_check(const std::string& model_text,
                                  const CheckOptions& copts,
                                  const sched::CancellationToken& deadline) {
    Outcome out;
    const std::uint64_t hash = cache::fnv1a64(model_text);
    out.model_hash = hash;
    try {
        core::VerifyOptions vopts = copts.verify_options();
        const std::string sig = core::options_signature(vopts);
        const std::string key = std::to_string(hash) + '|' + sig;
        const auto remember = [&](const core::RenderedVerdict& r) {
            std::lock_guard<std::mutex> lock(results_mu_);
            if (results_.size() >= kResultSlots) results_.clear();
            results_.emplace(key, r);
        };
        if (copts.use_cache) {
            {
                std::lock_guard<std::mutex> lock(results_mu_);
                const auto it = results_.find(key);
                if (it != results_.end()) {
                    memory_hits_.fetch_add(1, std::memory_order_relaxed);
                    obs::counter("svc.check.memory_hits").add();
                    out.ok = true;
                    out.r = it->second;
                    out.cache_tier = "memory";
                    return out;
                }
            }
            if (auto hit = core::load_verdict(rcache_, hash, sig)) {
                remember(*hit);
                disk_hits_.fetch_add(1, std::memory_order_relaxed);
                obs::counter("svc.check.disk_hits").add();
                out.ok = true;
                out.r = *std::move(hit);
                out.cache_tier = "disk";
                return out;
            }
        }
        misses_.fetch_add(1, std::memory_order_relaxed);
        obs::counter("svc.check.misses").add();
        if (deadline.cancelled()) {
            out.error_code = "deadline_exceeded";
            out.error_message = kDeadlineQueued;
            return out;
        }
        const auto bundle = get_bundle(model_text, hash);
        vopts.search.cancel = deadline;
        const core::VerificationReport report =
            core::verify_reduced(*bundle->model, bundle->prepared, vopts, ex_);
        if (deadline.cancelled()) {
            // A cancelled solve stops early with indeterminate verdicts;
            // discard rather than serve a partial result.
            out.error_code = "deadline_exceeded";
            out.error_message = kDeadlineVerify;
            return out;
        }
        out.r = core::render_verdict(*bundle->model, report);
        out.ok = true;
        checks_run_.fetch_add(1, std::memory_order_relaxed);
        if (copts.use_cache) {
            remember(out.r);
            core::store_verdict(rcache_, hash, sig, out.r);
        }
    } catch (const std::exception& e) {
        if (deadline.cancelled()) {
            out.error_code = "deadline_exceeded";
            out.error_message = kDeadlineVerify;
            return out;
        }
        out.error_code = "model_error";
        out.error_message = e.what();
    }
    return out;
}

std::shared_ptr<Server::Bundle> Server::get_bundle(
    const std::string& model_text, std::uint64_t hash) {
    {
        std::lock_guard<std::mutex> lock(bundles_mu_);
        for (const auto& b : bundles_) {
            if (b->hash == hash) {
                b->last_used = ++bundle_clock_;
                obs::counter("svc.bundle.hits").add();
                return b;
            }
        }
    }
    obs::counter("svc.bundle.misses").add();
    // Build outside the lock: unfolding can take seconds, and two requests
    // racing on the same new model at worst build it twice.
    auto b = std::make_shared<Bundle>();
    b->hash = hash;
    b->model =
        std::make_shared<const stg::Stg>(stg::parse_astg_string(model_text));
    b->prepared = core::prepare_stg(*b->model, unf::UnfoldOptions{});
    std::lock_guard<std::mutex> lock(bundles_mu_);
    b->last_used = ++bundle_clock_;
    if (cfg_.bundle_slots > 0 && bundles_.size() >= cfg_.bundle_slots) {
        const auto lru = std::min_element(
            bundles_.begin(), bundles_.end(),
            [](const auto& x, const auto& y) {
                return x->last_used < y->last_used;
            });
        obs::counter("svc.bundle.evicted").add();
        bundles_.erase(lru);
    }
    bundles_.push_back(b);
    return b;
}

sched::CancellationToken Server::arm_deadline(
    const obs::Json& req, sched::CancellationSource& source) const {
    std::uint64_t deadline_ms = cfg_.default_deadline_ms;
    if (const obs::Json* d = req.find("deadline_ms")) deadline_ms = d->as_uint();
    if (deadline_ms == 0) return {};
    source.cancel_after(
        std::chrono::duration<std::uint64_t, std::milli>(deadline_ms));
    return source.token();
}

bool Server::admit(int fd, std::mutex& write_mu, std::int64_t id,
                   const std::string& trace,
                   const sched::CancellationToken& deadline,
                   const Stopwatch& queued) {
    gate_waiting_.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> lock(gate_mu_);
    while (gate_inflight_ >= gate_cap_) {
        if (deadline.cancelled()) {
            gate_waiting_.fetch_sub(1, std::memory_order_relaxed);
            lock.unlock();
            deadline_exceeded_.fetch_add(1, std::memory_order_relaxed);
            errors_.fetch_add(1, std::memory_order_relaxed);
            event_log_.info("check.deadline_exceeded",
                            obs::Json::object()
                                .set("trace", trace)
                                .set("where", "queued")
                                .set("queue_delay_ms", queued.millis()));
            respond(fd, write_mu,
                    make_error(id, "deadline_exceeded", kDeadlineQueued)
                        .set("trace", trace));
            return false;
        }
        gate_cv_.wait_for(lock, std::chrono::milliseconds(5));
    }
    ++gate_inflight_;
    lock.unlock();
    gate_waiting_.fetch_sub(1, std::memory_order_relaxed);
    obs::histogram("svc.admission_wait_ns").observe(queued.nanos());
    return true;
}

void Server::release() {
    {
        std::lock_guard<std::mutex> lock(gate_mu_);
        --gate_inflight_;
    }
    gate_cv_.notify_one();
}

bool Server::respond(int fd, std::mutex& write_mu, const obs::Json& response) {
    const std::string payload = response.dump();
    std::lock_guard<std::mutex> lock(write_mu);
    if (!write_frame(fd, payload)) {
        obs::counter("svc.write_failures").add();
        return false;
    }
    obs::counter("svc.responses").add();
    return true;
}

obs::Json Server::stats_json() {
    // Refresh the liveness gauges so the registry snapshot below (and any
    // concurrent /metrics scrape) reports current values.
    obs::gauge("svc.open_connections")
        .set(static_cast<std::int64_t>(connections_active_.load()));
    obs::gauge("mem.rss_bytes")
        .set(static_cast<std::int64_t>(obs::process_rss_bytes()));
    obs::Json listen = obs::Json::array();
    for (const std::string& b : bound_) listen.push(b);
    obs::Json server = obs::Json::object()
                           .set("pid", static_cast<std::int64_t>(::getpid()))
                           .set("protocol", kProtocolVersion)
                           .set("uptime_seconds", uptime_.seconds())
                           .set("jobs", ex_.jobs())
                           .set("max_inflight", gate_cap_)
                           .set("draining", draining())
                           .set("cache_dir", rcache_.dir())
                           .set("listen", std::move(listen))
                           .set("metrics_listen", metrics_http_.bound())
                           .set("event_log", event_log_.path())
                           .set("rss_bytes", obs::process_rss_bytes())
                           .set("build", obs::build_info());
    std::size_t inflight;
    {
        std::lock_guard<std::mutex> lock(gate_mu_);
        inflight = gate_inflight_;
    }
    obs::Json requests =
        obs::Json::object()
            .set("connections_accepted", connections_accepted_.load())
            .set("connections_active", connections_active_.load())
            .set("served", requests_served_.load())
            .set("inflight", inflight)
            .set("queued", gate_waiting_.load())
            .set("checks_run", checks_run_.load())
            .set("deadline_exceeded", deadline_exceeded_.load())
            .set("errors", errors_.load());
    std::size_t results_cached, bundles_cached;
    {
        std::lock_guard<std::mutex> lock(results_mu_);
        results_cached = results_.size();
    }
    {
        std::lock_guard<std::mutex> lock(bundles_mu_);
        bundles_cached = bundles_.size();
    }
    obs::Json cache = obs::Json::object()
                          .set("memory_results", results_cached)
                          .set("bundles", bundles_cached)
                          .set("memory_hits", memory_hits_.load())
                          .set("disk_hits", disk_hits_.load())
                          .set("misses", misses_.load());
    const std::uint64_t now_ns = uptime_.nanos();
    obs::Json rolling = obs::Json::object()
                            .set("requests", window_requests_.to_json(now_ns))
                            .set("checks", window_checks_.to_json(now_ns));
    return obs::Json::object()
        .set("server", std::move(server))
        .set("requests", std::move(requests))
        .set("cache", std::move(cache))
        .set("rolling", std::move(rolling))
        .set("metrics", obs::Registry::instance().to_json());
}

HttpResponse Server::handle_http(const std::string& path) {
    HttpResponse resp;
    if (path == "/metrics") {
        obs::gauge("svc.open_connections")
            .set(static_cast<std::int64_t>(connections_active_.load()));
        obs::gauge("mem.rss_bytes")
            .set(static_cast<std::int64_t>(obs::process_rss_bytes()));
        std::string body = obs::prometheus_text();
        // Rolling-window rates and quantiles are synthesized gauges: they
        // are not registry metrics (each scrape computes them for "now"),
        // so they are rendered here instead of by prometheus_text().
        const std::uint64_t now_ns = uptime_.nanos();
        char line[128];
        const auto window_gauges = [&](const char* name,
                                       const obs::RollingWindow& w) {
            body += "# TYPE ";
            body += name;
            body += "_rate gauge\n";
            for (const std::uint64_t win : obs::RollingWindow::kWindows) {
                std::snprintf(line, sizeof line,
                              "%s_rate{window=\"%llus\"} %g\n", name,
                              static_cast<unsigned long long>(win),
                              w.rate(win, now_ns));
                body += line;
            }
            body += "# TYPE ";
            body += name;
            body += "_latency_ns gauge\n";
            constexpr double kQ[3] = {0.50, 0.90, 0.99};
            constexpr const char* kLabel[3] = {"0.5", "0.9", "0.99"};
            for (int i = 0; i < 3; ++i) {
                std::snprintf(line, sizeof line,
                              "%s_latency_ns{quantile=\"%s\"} %g\n", name,
                              kLabel[i], w.quantile(60, kQ[i], now_ns));
                body += line;
            }
        };
        window_gauges("stgcc_svc_requests", window_requests_);
        window_gauges("stgcc_svc_checks", window_checks_);
        resp.content_type = "text/plain; version=0.0.4; charset=utf-8";
        resp.body = std::move(body);
        return resp;
    }
    if (path == "/healthz") {
        if (draining()) {
            resp.status = 503;
            resp.body = "draining\n";
        } else {
            resp.body = "ok\n";
        }
        return resp;
    }
    if (path == "/buildinfo") {
        resp.content_type = "application/json";
        resp.body = obs::build_info()
                        .set("pid", static_cast<std::int64_t>(::getpid()))
                        .set("uptime_seconds", uptime_.seconds())
                        .dump(2);
        resp.body += '\n';
        return resp;
    }
    resp.status = 404;
    resp.body = "not found (try /metrics, /healthz, /buildinfo)\n";
    return resp;
}

}  // namespace stgcc::svc
