// stgd: resident STG verification daemon (docs/SERVICE.md).
//
// Keeps the expensive state of a verification run -- the worker pool, the
// prefix-artifact bundles, the rendered-verdict map and the on-disk result
// cache -- alive across requests, and serves checks over Unix-domain or TCP
// sockets speaking the length-prefixed JSON protocol of src/svc/.  Clients
// are `stgcheck --connect` and `stgbatch --connect` (responses replay their
// offline output byte-for-byte, modulo timing), or anything that can frame
// JSON (see docs/SERVICE.md for the schema).
//
// Lifecycle: SIGTERM / SIGINT (or a `shutdown` request) begin a graceful
// drain -- the listeners close, every accepted request is answered, then
// the process exits 0 after writing a final stats snapshot (--stats FILE,
// or a summary line to stderr).
//
// The flags are one table parsed by svc::parse_args (svc/cli.hpp), which
// also prints it as --help; the endpoints and the log level are checked
// here, on the parsed text, before anything is bound.
#include <csignal>
#include <iostream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "sched/parallel.hpp"
#include "svc/cli.hpp"
#include "svc/server.hpp"

namespace {

stgcc::svc::Server* g_server = nullptr;

void handle_signal(int) {
    if (g_server) g_server->request_shutdown();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace stgcc;
    svc::ServerConfig cfg;
    std::vector<const char*> listen;
    const char *cache_dir = nullptr, *stats_path = nullptr,
               *metrics_listen = nullptr, *event_log = nullptr,
               *event_log_level = nullptr;
    std::uint64_t jobs = cfg.jobs, max_inflight = cfg.max_inflight,
                  bundle_slots = cfg.bundle_slots;
    bool quiet = false;
    const svc::CliTool tool{
        "usage: stgd --listen ENDPOINT [options]\n",
        nullptr,
        {{"--listen",
          "serve on EP; repeatable, at least one:\n"
          "unix:/path/to.sock (Unix-domain socket) or\n"
          "host:port (TCP; \":0\" = loopback, kernel port;\n"
          "the bound address is printed)",
          &listen, "EP"},
         {"--jobs",
          "worker threads of the shared pool\n"
          "(default: hardware concurrency)",
          svc::FlagNumber{&jobs, sched::Executor::kMaxJobs}, "N"},
         {"--cache-dir",
          "on-disk result cache (default: $STGCC_CACHE_DIR;\n"
          "unset = no disk cache)",
          &cache_dir, "DIR"},
         {"--max-inflight", "concurrently verifying requests (default: jobs)",
          svc::FlagNumber{&max_inflight}, "N"},
         {"--deadline-ms", "default per-request deadline (default: none)",
          svc::FlagNumber{&cfg.default_deadline_ms}, "D"},
         {"--bundle-slots", "in-memory prefix bundles kept (default: 8)",
          svc::FlagNumber{&bundle_slots}, "N"},
         {"--stats", "write the final stats snapshot JSON on exit",
          &stats_path, "FILE"},
         {"--metrics-listen",
          "HTTP scrape endpoint serving /metrics,\n"
          "/healthz and /buildinfo (same endpoint\n"
          "syntax as --listen; default: none)",
          &metrics_listen, "EP"},
         {"--event-log", "structured JSONL event log (docs/OBSERVABILITY.md)",
          &event_log, "FILE"},
         {"--event-log-level",
          "minimum record level: debug, info, warn,\n"
          "error (default: info)",
          &event_log_level, "L"},
         {"--event-log-max-bytes",
          "rotate the event log past N bytes (default: 64 MiB)",
          svc::FlagNumber{&cfg.event_log_max_bytes}, "N"},
         {"--quiet", "suppress the startup/shutdown lines", &quiet}},
        "exit codes: 0 = clean drain, 2 = usage or bind error\n"};
    if (const auto rc = svc::parse_args(argc, argv, tool)) return *rc;
    if (listen.empty()) {
        std::cerr << "error: at least one --listen endpoint is required\n";
        svc::print_usage(std::cerr, tool);
        return 2;
    }
    const auto endpoint = [](const char* text) {
        std::string error;
        auto ep = svc::parse_endpoint(text, error);
        if (!ep) std::cerr << "error: " << error << "\n";
        return ep;
    };
    for (const char* text : listen) {
        const auto ep = endpoint(text);
        if (!ep) return 2;
        cfg.listen.push_back(*ep);
    }
    if (metrics_listen && !(cfg.metrics_listen = endpoint(metrics_listen)))
        return 2;
    if (event_log_level &&
        !obs::parse_log_level(event_log_level, cfg.event_log_level)) {
        std::cerr << "bad --event-log-level value: " << event_log_level
                  << " (debug, info, warn or error)\n";
        return 2;
    }
    if (event_log) cfg.event_log_path = event_log;
    cfg.jobs = static_cast<unsigned>(jobs);
    cfg.max_inflight = static_cast<std::size_t>(max_inflight);
    cfg.bundle_slots = static_cast<std::size_t>(bundle_slots);
    cfg.cache_dir = svc::resolve_cache_dir(cache_dir);

    // No trace is ever recorded here: nothing would read the spans, and
    // the buffer would grow with every request.  The stats op and the final
    // snapshot expose the registry (sched.*, cache.*, svc.*), whose metrics
    // are always on.

    svc::Server server(std::move(cfg));
    std::string error;
    if (!server.start(error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }
    g_server = &server;
    std::signal(SIGTERM, handle_signal);
    std::signal(SIGINT, handle_signal);

    if (!quiet) {
        for (const std::string& b : server.bound())
            std::cout << "stgd: listening on " << b << "\n";
        if (!server.metrics_bound().empty())
            std::cout << "stgd: metrics on http://" << server.metrics_bound()
                      << "/metrics\n";
        if (server.event_log().enabled())
            std::cout << "stgd: event log " << server.event_log().path()
                      << "\n";
        std::cout.flush();
    }

    const int rc = server.run();

    obs::Json snapshot = server.stats_json();
    if (stats_path) {
        if (!obs::save_json(stats_path, snapshot))
            std::cerr << "error: cannot write " << stats_path << "\n";
    }
    if (!quiet) {
        const obs::Json* requests = snapshot.find("requests");
        const obs::Json* served =
            requests ? requests->find("served") : nullptr;
        std::cout << "stgd: drained ("
                  << (served ? served->as_uint() : 0) << " requests served)\n";
    }
    g_server = nullptr;
    return rc;
}
