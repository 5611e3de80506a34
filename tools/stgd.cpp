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
#include <csignal>
#include <cstring>
#include <iostream>

#include "obs/metrics.hpp"
#include "sched/parallel.hpp"
#include "svc/cli.hpp"
#include "svc/server.hpp"

namespace {

void print_usage(std::ostream& out) {
    out << "usage: stgd --listen ENDPOINT [options]\n"
           "\n"
           "endpoints (repeatable; at least one):\n"
           "  --listen unix:/path/to.sock   Unix-domain socket\n"
           "  --listen host:port            TCP (\":0\" = loopback, kernel "
           "port;\n"
           "                                the bound address is printed)\n"
           "\n"
           "options:\n"
           "  --jobs N            worker threads of the shared pool\n"
           "                      (default: hardware concurrency)\n"
           "  --cache-dir DIR     on-disk result cache (default: "
           "$STGCC_CACHE_DIR;\n"
           "                      unset = no disk cache)\n"
           "  --max-inflight N    concurrently verifying requests "
           "(default: jobs)\n"
           "  --deadline-ms D     default per-request deadline "
           "(default: none)\n"
           "  --bundle-slots N    in-memory prefix bundles kept "
           "(default: 8)\n"
           "  --stats FILE        write the final stats snapshot JSON on "
           "exit\n"
           "  --metrics-listen EP HTTP scrape endpoint serving /metrics,\n"
           "                      /healthz and /buildinfo (same endpoint\n"
           "                      syntax as --listen; default: none)\n"
           "  --event-log FILE    structured JSONL event log "
           "(docs/OBSERVABILITY.md)\n"
           "  --event-log-level L minimum record level: debug, info, warn,\n"
           "                      error (default: info)\n"
           "  --event-log-max-bytes N\n"
           "                      rotate the event log past N bytes "
           "(default: 64 MiB)\n"
           "  --quiet             suppress the startup/shutdown lines\n"
           "\n"
           "exit codes: 0 = clean drain, 2 = usage or bind error\n";
}

stgcc::svc::Server* g_server = nullptr;

void handle_signal(int) {
    if (g_server) g_server->request_shutdown();
}

}  // namespace

int main(int argc, char** argv) {
    using namespace stgcc;
    svc::ServerConfig cfg;
    const char* stats_path = nullptr;
    bool quiet = false;
    const char* cache_dir_flag = nullptr;
    for (int i = 1; i < argc; ++i) {
        const auto uint_arg = [&](const char* name, std::uint64_t& out,
                                  std::uint64_t max = UINT64_MAX) {
            if (i + 1 < argc)
                return svc::parse_flag_number(name, argv[++i], out, max);
            std::cerr << name << " needs a value\n";
            return false;
        };
        if (!std::strcmp(argv[i], "--listen") && i + 1 < argc) {
            std::string error;
            const auto ep = svc::parse_endpoint(argv[++i], error);
            if (!ep) {
                std::cerr << "error: " << error << "\n";
                return 2;
            }
            cfg.listen.push_back(*ep);
        } else if (!std::strcmp(argv[i], "--jobs")) {
            std::uint64_t v = 0;
            if (!uint_arg("--jobs", v, sched::Executor::kMaxJobs)) return 2;
            cfg.jobs = static_cast<unsigned>(v);
        } else if (!std::strcmp(argv[i], "--max-inflight")) {
            std::uint64_t v = 0;
            if (!uint_arg("--max-inflight", v)) return 2;
            cfg.max_inflight = static_cast<std::size_t>(v);
        } else if (!std::strcmp(argv[i], "--deadline-ms")) {
            if (!uint_arg("--deadline-ms", cfg.default_deadline_ms)) return 2;
        } else if (!std::strcmp(argv[i], "--bundle-slots")) {
            std::uint64_t v = 0;
            if (!uint_arg("--bundle-slots", v)) return 2;
            cfg.bundle_slots = static_cast<std::size_t>(v);
        } else if (!std::strcmp(argv[i], "--metrics-listen") && i + 1 < argc) {
            std::string error;
            const auto ep = svc::parse_endpoint(argv[++i], error);
            if (!ep) {
                std::cerr << "error: " << error << "\n";
                return 2;
            }
            cfg.metrics_listen = *ep;
        } else if (!std::strcmp(argv[i], "--event-log") && i + 1 < argc) {
            cfg.event_log_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--event-log-level") && i + 1 < argc) {
            if (!obs::parse_log_level(argv[++i], cfg.event_log_level)) {
                std::cerr << "bad --event-log-level value: " << argv[i]
                          << " (debug, info, warn or error)\n";
                return 2;
            }
        } else if (!std::strcmp(argv[i], "--event-log-max-bytes")) {
            if (!uint_arg("--event-log-max-bytes", cfg.event_log_max_bytes))
                return 2;
        } else if (!std::strcmp(argv[i], "--cache-dir") && i + 1 < argc) {
            cache_dir_flag = argv[++i];
        } else if (!std::strcmp(argv[i], "--stats") && i + 1 < argc) {
            stats_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--quiet")) {
            quiet = true;
        } else if (!std::strcmp(argv[i], "--help") ||
                   !std::strcmp(argv[i], "-h")) {
            print_usage(std::cout);
            return 0;
        } else {
            std::cerr << "unknown option: " << argv[i] << "\n";
            print_usage(std::cerr);
            return 2;
        }
    }
    if (cfg.listen.empty()) {
        std::cerr << "error: at least one --listen endpoint is required\n";
        print_usage(std::cerr);
        return 2;
    }
    cfg.cache_dir = svc::resolve_cache_dir(cache_dir_flag);

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
