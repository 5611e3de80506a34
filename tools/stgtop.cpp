// stgtop: live terminal dashboard for a running stgd (docs/SERVICE.md).
//
// Polls the daemon's `stats` op at a fixed interval and renders the live
// picture the one-shot snapshot cannot give: inflight/queued requests,
// rolling 1s/10s/60s request and check rates, latency quantiles over the
// last minute, cache-tier hit ratios, worker busy fraction (from the
// sched.worker_busy_ns delta between polls) and deadline/error counts.
//
// `--once` prints a single snapshot and exits -- the CI smoke and scripts
// use it; interactive runs repaint the terminal every `--interval` ms
// until interrupted.  The flags are parsed by svc::parse_args (svc/cli.hpp).
//
// Exit codes: 0 = clean exit, 2 = usage or connection error.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <thread>

#include "obs/eventlog.hpp"
#include "obs/json.hpp"
#include "svc/cli.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"

namespace {

using namespace stgcc;

double num(const obs::Json* parent, const char* key) {
    if (!parent) return 0.0;
    const obs::Json* v = parent->find(key);
    return v ? v->as_double() : 0.0;
}

std::string fmt_rate(double per_s) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f", per_s);
    return buf;
}

std::string fmt_ns(double ns) {
    char buf[32];
    if (ns >= 1e9)
        std::snprintf(buf, sizeof buf, "%.2f s", ns / 1e9);
    else if (ns >= 1e6)
        std::snprintf(buf, sizeof buf, "%.1f ms", ns / 1e6);
    else if (ns >= 1e3)
        std::snprintf(buf, sizeof buf, "%.1f us", ns / 1e3);
    else
        std::snprintf(buf, sizeof buf, "%.0f ns", ns);
    return buf;
}

std::string fmt_pct(double num_v, double den) {
    if (den <= 0.0) return "-";
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f%%", 100.0 * num_v / den);
    return buf;
}

/// Carried between polls for delta-based figures.
struct PrevSample {
    bool valid = false;
    double uptime_s = 0.0;
    double busy_ns = 0.0;
};

void render(const obs::Json& stats, const std::string& endpoint,
            PrevSample& prev) {
    const obs::Json* server = stats.find("server");
    const obs::Json* requests = stats.find("requests");
    const obs::Json* cache = stats.find("cache");
    const obs::Json* rolling = stats.find("rolling");
    const obs::Json* roll_req = rolling ? rolling->find("requests") : nullptr;
    const obs::Json* roll_chk = rolling ? rolling->find("checks") : nullptr;
    const obs::Json* metrics = stats.find("metrics");
    const obs::Json* counters = metrics ? metrics->find("counters") : nullptr;

    const double uptime = num(server, "uptime_seconds");
    const bool draining =
        server && server->find("draining") && server->find("draining")->as_bool();
    std::printf("stgd %s — up %.1f s, jobs %.0f, max_inflight %.0f%s\n",
                endpoint.c_str(), uptime, num(server, "jobs"),
                num(server, "max_inflight"), draining ? "  [DRAINING]" : "");
    std::printf(
        "requests  %6.0f inflight  %6.0f queued  %8.0f served  "
        "%6.0f errors  %6.0f deadline_exceeded\n",
        num(requests, "inflight"), num(requests, "queued"),
        num(requests, "served"), num(requests, "errors"),
        num(requests, "deadline_exceeded"));
    std::printf(
        "rates     req/s  1s %-7s 10s %-7s 60s %-7s   checks/s  1s %-7s "
        "10s %-7s 60s %-7s\n",
        fmt_rate(num(roll_req, "rate_1s")).c_str(),
        fmt_rate(num(roll_req, "rate_10s")).c_str(),
        fmt_rate(num(roll_req, "rate_60s")).c_str(),
        fmt_rate(num(roll_chk, "rate_1s")).c_str(),
        fmt_rate(num(roll_chk, "rate_10s")).c_str(),
        fmt_rate(num(roll_chk, "rate_60s")).c_str());
    std::printf("latency   checks (60s)  p50 %-10s p90 %-10s p99 %-10s\n",
                fmt_ns(num(roll_chk, "p50")).c_str(),
                fmt_ns(num(roll_chk, "p90")).c_str(),
                fmt_ns(num(roll_chk, "p99")).c_str());
    const double mem = num(cache, "memory_hits");
    const double disk = num(cache, "disk_hits");
    const double miss = num(cache, "misses");
    const double lookups = mem + disk + miss;
    std::printf(
        "cache     memory %.0f (%s)  disk %.0f (%s)  miss %.0f (%s)  "
        "— %.0f bundles, %.0f results held\n",
        mem, fmt_pct(mem, lookups).c_str(), disk, fmt_pct(disk, lookups).c_str(),
        miss, fmt_pct(miss, lookups).c_str(), num(cache, "bundles"),
        num(cache, "memory_results"));
    // Worker busy fraction: sched.worker_busy_ns accumulated across the
    // pool, differenced between polls against wall time x workers.
    const double busy_ns = num(counters, "sched.worker_busy_ns");
    const double workers = num(server, "jobs");
    std::string busy = "-";
    if (prev.valid && workers > 0 && uptime > prev.uptime_s) {
        const double wall_ns = (uptime - prev.uptime_s) * 1e9 * workers;
        busy = fmt_pct(busy_ns - prev.busy_ns, wall_ns);
    }
    std::printf("workers   %.0f workers, busy %s (since last poll)\n", workers,
                busy.c_str());
    std::printf("conns     %.0f open, %.0f accepted\n",
                num(requests, "connections_active"),
                num(requests, "connections_accepted"));
    prev.valid = true;
    prev.uptime_s = uptime;
    prev.busy_ns = busy_ns;
    std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
    const char* connect = nullptr;
    std::uint64_t interval_ms = 1000;
    bool once = false;
    const svc::CliTool tool{
        "usage: stgtop --connect ENDPOINT [options]\n",
        nullptr,
        {{"--connect", "stgd endpoint (unix:/path or host:port)", &connect,
          "EP"},
         // Capped at what std::chrono::milliseconds holds, so the sleep can
         // never wrap negative and busy-poll the daemon.
         {"--interval", "poll period in milliseconds (default: 1000)",
          svc::FlagNumber{&interval_ms,
                          static_cast<std::uint64_t>(
                              std::chrono::milliseconds::max().count())},
          "MS"},
         {"--once", "print one snapshot and exit (no screen clearing)",
          &once}},
        "exit codes: 0 = clean exit, 2 = usage or connection error\n"};
    if (const auto rc = svc::parse_args(argc, argv, tool)) return *rc;
    if (interval_ms == 0) {
        std::cerr << "bad --interval value: 0\n";
        return 2;
    }
    if (!connect) {
        std::cerr << "error: --connect is required\n";
        svc::print_usage(std::cerr, tool);
        return 2;
    }

    svc::Client client;
    std::string error;
    if (!client.connect(connect, error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }
    const std::string trace = obs::generate_trace_id();
    PrevSample prev;
    std::int64_t id = 0;
    while (true) {
        const obs::Json request = obs::Json::object()
                                      .set("op", "stats")
                                      .set("id", ++id)
                                      .set("trace", trace);
        auto response = client.call(request, error);
        if (!response) {
            // The daemon may have drained between polls; try one reconnect
            // before giving up (interactive sessions outlive restarts).
            client.close();
            if (once || !client.connect(connect, error)) {
                std::cerr << "error: " << error << "\n";
                return 2;
            }
            response = client.call(request, error);
            if (!response) {
                std::cerr << "error: " << error << "\n";
                return 2;
            }
        }
        if (!svc::response_ok(*response)) {
            std::cerr << "error: " << svc::response_error(*response) << "\n";
            return 2;
        }
        if (!once) std::printf("\x1b[2J\x1b[H");  // clear + home
        render(*response, connect, prev);
        if (once) return 0;
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
}
