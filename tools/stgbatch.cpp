// stgbatch: corpus driver -- verify a whole directory (or manifest) of
// ASTG (.g) models concurrently on the src/sched/ work-stealing pool.
//
// The manifest is either a directory (every *.g file, sorted by name) or a
// text file with one model path per line (relative paths resolve against
// the manifest's directory; '#' starts a comment).  Models are verified
// model-parallel: each model runs a full serial verify_stg pipeline, and
// the pool spreads models over workers.  One result line is streamed per
// model as it finishes; the aggregate JSON report (--json) lists models in
// manifest order, so verdicts are byte-stable at any --jobs value.  Its one
// own flag, --quiet, is parsed by svc::parse_cli (svc/cli.hpp) after the
// flags shared with stgcheck.
//
// Caching (docs/CACHING.md): with a cache directory configured
// (--cache-dir or $STGCC_CACHE_DIR), each model goes through
// core::verdict_cached -- the rendered-verdict entry keyed by the model
// file's content hash and the checker options, shared with stgcheck and
// stgd -- so a warm corpus run replays hits without re-verifying.  --no-cache disables the result caches only (verdicts and
// search work are unchanged).
//
// Exit codes: 0 = every model satisfies all checked properties,
//             1 = at least one conflict / violation found,
//             2 = usage or IO error (including any model failing to load).
#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "core/verdict.hpp"
#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "sched/parallel.hpp"
#include "sched/thread_pool.hpp"
#include "svc/cli.hpp"
#include "svc/client.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace stgcc;
namespace fs = std::filesystem;

/// Everything recorded about one model, merged in manifest order.  Holds
/// only rendered data (verdict line, report row) -- full reports and their
/// prefix artifacts are dropped as soon as each model finishes, and cache
/// hits never materialise them at all.
struct ModelResult {
    bool loaded = false;
    bool all_hold = false;
    std::string verdict;  ///< streamed verdict line, or "ERROR (...)"
    obs::Json row;        ///< aggregate-report row, "file" first
    double seconds = 0.0;

    /// A verified model.  Rendered rows are content-addressed and carry no
    /// path, so the manifest path is restored as the leading member.
    void verified(const std::string& file, const core::RenderedVerdict& v) {
        loaded = true;
        all_hold = v.all_hold;
        verdict = v.verdict;
        row = obs::Json::object().set("file", file).merge(v.row);
    }

    /// A model that failed to load or verify.  Never cached: the message
    /// may depend on environment state (permissions, limits).
    void failed(const std::string& file, const std::string& error) {
        verdict = "ERROR (" + error + ")";
        row = obs::Json::object()
                  .set("file", file)
                  .set("status", "error")
                  .set("error", error);
    }
};

/// Streams one line per finished model, in completion order.
using Progress = std::function<void(const std::string&, const ModelResult&)>;

/// Dummy-contraction totals across the corpus, summed from the (cached or
/// fresh) report rows so warm and cold runs aggregate identically.
obs::Json reduction_summary(const std::vector<ModelResult>& results) {
    std::size_t places = 0, transitions = 0, reduced = 0;
    for (const ModelResult& r : results) {
        const obs::Json* red = r.row.find("reduction");
        if (!red) continue;
        ++reduced;
        if (const obs::Json* v = red->find("places_removed"))
            places += static_cast<std::size_t>(v->as_int());
        if (const obs::Json* v = red->find("transitions_removed"))
            transitions += static_cast<std::size_t>(v->as_int());
    }
    return obs::Json::object()
        .set("models_reduced", reduced)
        .set("places_removed", places)
        .set("transitions_removed", transitions);
}

std::vector<std::string> collect_manifest(const std::string& arg,
                                          std::string& error) {
    std::vector<std::string> files;
    fs::path p(arg);
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
        for (const auto& entry : fs::directory_iterator(p, ec)) {
            if (entry.is_regular_file() && entry.path().extension() == ".g")
                files.push_back(entry.path().string());
        }
        std::sort(files.begin(), files.end());
        if (files.empty()) error = "no .g files in directory: " + arg;
        return files;
    }
    std::ifstream in(p);
    if (!in) {
        error = "cannot open manifest: " + arg;
        return files;
    }
    const fs::path base = p.has_parent_path() ? p.parent_path() : fs::path(".");
    std::string line;
    while (std::getline(in, line)) {
        const auto hash = line.find('#');
        if (hash != std::string::npos) line.erase(hash);
        const auto first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos) continue;
        const auto last = line.find_last_not_of(" \t\r");
        fs::path entry(line.substr(first, last - first + 1));
        if (entry.is_relative()) entry = base / entry;
        files.push_back(entry.string());
    }
    if (files.empty()) error = "empty manifest: " + arg;
    return files;
}

/// --connect mode: ship the whole corpus to a running stgd as one batch
/// request; rows stream back in completion order and land in `results` by
/// manifest index, so the aggregate report is canonically identical to a
/// local run (docs/SERVICE.md).  False after reporting a connection or
/// protocol error.
bool run_connected(const svc::CliOptions& cli, bool quiet,
                   const std::vector<std::string>& files,
                   std::vector<ModelResult>& results,
                   const Progress& progress) {
    svc::Client client;
    std::string error;
    if (!client.connect(cli.connect, error)) {
        std::cerr << "error: " << error << "\n";
        return false;
    }
    if (!quiet)
        std::cout << "stgbatch: " << files.size() << " models, connect "
                  << cli.connect << "\n";
    obs::Json models = obs::Json::array();
    for (std::size_t i = 0; i < files.size(); ++i) {
        const auto bytes = cache::read_file_bytes(files[i]);
        if (!bytes) {
            // Same row a local load failure produces; never sent.
            results[i].failed(files[i], "cannot open ASTG file: " + files[i]);
            progress(files[i], results[i]);
            continue;
        }
        models.push(obs::Json::object()
                        .set("index", i)
                        .set("file", files[i])
                        .set("model", *bytes));
    }
    if (models.size() == 0) return true;
    // One trace id covers the whole batch: every server-side row event
    // carries it alongside its model index (docs/OBSERVABILITY.md).
    obs::Json request = obs::Json::object()
                            .set("op", "batch")
                            .set("id", 1)
                            .set("trace", obs::generate_trace_id())
                            .set("models", std::move(models))
                            .set("options", cli.check.to_json());
    if (cli.deadline_ms > 0) request.set("deadline_ms", cli.deadline_ms);
    if (!client.send(request, error)) {
        std::cerr << "error: " << error << "\n";
        return false;
    }
    while (true) {
        const auto frame = client.recv(error);
        if (!frame) {
            std::cerr << "error: " << error << "\n";
            return false;
        }
        if (!svc::response_ok(*frame)) {
            std::cerr << "error: " << svc::response_error(*frame) << "\n";
            return false;
        }
        const obs::Json* event = frame->find("event");
        if (event && event->as_string() == "done") return true;
        const obs::Json* index = frame->find("index");
        if (!event || event->as_string() != "row" || !index) {
            std::cerr << "error: malformed frame from " << cli.connect << "\n";
            return false;
        }
        const auto i = static_cast<std::size_t>(index->as_int());
        if (i >= results.size()) continue;
        ModelResult& r = results[i];
        if (const obs::Json* err = frame->find("error")) {
            const obs::Json* msg = err->find("message");
            r.failed(files[i], msg ? msg->as_string() : "server error");
        } else if (const auto v = core::RenderedVerdict::from_json(*frame)) {
            r.verified(files[i], *v);
            if (const obs::Json* s = frame->find("seconds"))
                r.seconds = s->as_double();
        } else {
            std::cerr << "error: malformed row from " << cli.connect << "\n";
            return false;
        }
        progress(files[i], r);
    }
}

/// The summary line, the --json aggregate report and the --trace file, then
/// the exit code -- one writer for both modes.  `ex` is the local pool;
/// null in --connect mode, whose report has no scheduler stats.
int finish(const svc::CliOptions& cli, bool quiet,
           const std::vector<ModelResult>& results, double seconds,
           const sched::Executor* ex) {
    std::size_t ok = 0, violated = 0, errors = 0;
    for (const ModelResult& r : results) {
        if (!r.loaded)
            ++errors;
        else if (r.all_hold)
            ++ok;
        else
            ++violated;
    }
    std::cout << "stgbatch: " << ok << " ok, " << violated << " violated, "
              << errors << " errors in " << seconds << " s (";
    if (ex)
        std::cout << "jobs=" << ex->jobs() << ")\n";
    else
        std::cout << "connect " << cli.connect << ")\n";

    if (cli.json) {
        obs::Json rows = obs::Json::array();
        for (const ModelResult& r : results) {
            obs::Json row = r.row;
            if (r.loaded) row.set("seconds", r.seconds);
            rows.push(std::move(row));
        }
        obs::Json body = obs::Json::object();
        body.set("manifest", cli.input);
        body.set("jobs", ex ? ex->jobs() : 0u);  // 0: the remote pool
        body.set("models", std::move(rows));
        obs::Json summary = obs::Json::object()
                                .set("total", results.size())
                                .set("ok", ok)
                                .set("violated", violated)
                                .set("errors", errors)
                                .set("seconds", seconds);
        obs::Json red = reduction_summary(results);
        if (red.find("models_reduced")->as_int() > 0)
            summary.set("reduction", std::move(red));
        body.set("summary", std::move(summary));
        if (ex) {
            obs::Json sched_stats = obs::Json::object();
            sched_stats.set("workers", ex->jobs());
            sched_stats.set("wall_ns",
                            static_cast<std::uint64_t>(seconds * 1e9));
            if (ex->pool()) {
                const auto ps = ex->pool()->stats();
                sched_stats.set("executed", ps.executed)
                    .set("stolen", ps.stolen)
                    .set("busy_ns", ps.busy_ns)
                    .set("external_busy_ns", ps.external_busy_ns)
                    .set("queue_delay_ns", ps.queue_delay_ns)
                    .set("critical_path_ns", ps.critical_path_ns)
                    .set("park_ns", ps.park_ns);
            }
            body.set("stats",
                     obs::Json::object().set("sched", std::move(sched_stats)));
            body.set("metrics", obs::Registry::instance().to_json());
        }
        if (!obs::save_json(cli.json,
                            obs::make_report("stgbatch", std::move(body)))) {
            std::cerr << "error: cannot write " << cli.json << "\n";
            return 2;
        }
        if (!quiet) std::cout << "report written to " << cli.json << "\n";
    }
    if (cli.trace) {
        if (!obs::write_chrome_trace(cli.trace)) {
            std::cerr << "error: cannot write " << cli.trace << "\n";
            return 2;
        }
        if (!quiet) std::cout << "trace written to " << cli.trace << "\n";
    }
    if (errors > 0) return 2;
    return violated > 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
    svc::CliOptions cli;
    bool quiet = false;
    const svc::CliTool tool{
        "usage: stgbatch <dir | manifest.txt> [options]\n"
        "\n"
        "manifest: a directory (all *.g files, sorted) or a text file\n"
        "with one .g path per line ('#' comments; relative paths are\n"
        "resolved against the manifest's directory)\n",
        "no manifest",
        {{"--quiet", "suppress per-model result lines", &quiet}},
        "exit codes: 0 = all properties hold on every model,\n"
        "            1 = conflict found, 2 = usage/IO error\n"};
    if (const auto rc = svc::parse_cli(argc, argv, tool, cli)) return *rc;
    if (cli.trace) obs::set_enabled(true);

    std::string manifest_error;
    const std::vector<std::string> files =
        collect_manifest(cli.input, manifest_error);
    if (files.empty()) {
        std::cerr << "error: " << manifest_error << "\n";
        return 2;
    }
    std::vector<ModelResult> results(files.size());
    std::mutex out_mu;
    std::size_t done = 0;
    const Progress progress = [&](const std::string& file,
                                  const ModelResult& r) {
        std::lock_guard<std::mutex> lock(out_mu);
        ++done;
        if (quiet) return;
        // Flush per row: a redirected stgbatch (CI logs, a pipe into
        // `tee`) shows each verdict as it lands, not on buffer fill.
        std::cout << "[" << done << "/" << files.size() << "] "
                  << fs::path(file).filename().string() << "  " << r.verdict
                  << "  (" << r.seconds << " s)\n"
                  << std::flush;
    };

    if (cli.connect) {
        if (cli.trace) {
            std::cerr << "error: --trace needs local spans and is not "
                         "supported with --connect\n";
            return 2;
        }
        Stopwatch timer;
        if (!run_connected(cli, quiet, files, results, progress)) return 2;
        return finish(cli, quiet, results, timer.seconds(), nullptr);
    }

    const core::VerifyOptions opts = cli.check.verify_options();
    const cache::ResultCache rcache(cli.cache_dir);
    sched::Executor ex(cli.jobs);
    if (!quiet)
        std::cout << "stgbatch: " << files.size() << " models, jobs="
                  << ex.jobs() << "\n";

    Stopwatch timer;
    // Results land in `results` by manifest index (deterministic); only the
    // streamed progress lines appear in completion order.  Model tasks and
    // each model's inner instances (per-signal CSC, normalcy orientations)
    // share the one pool: small models fill workers the big models' fanout
    // leaves idle, and the corpus isn't serialized on its largest model.
    sched::parallel_for(ex, files.size(), [&](std::size_t i) {
        ModelResult& r = results[i];
        Stopwatch model_timer;
        try {
            const auto text = cache::read_file_bytes(files[i]);
            if (!text) throw ModelError("cannot open ASTG file: " + files[i]);
            r.verified(files[i], core::verdict_cached(*text, opts, rcache, ex));
        } catch (const std::exception& e) {
            r.failed(files[i], e.what());
        }
        r.seconds = model_timer.seconds();
        progress(files[i], r);
    });
    return finish(cli, quiet, results, timer.seconds(), &ex);
}
