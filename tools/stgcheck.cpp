// stgcheck: command-line verifier for ASTG (.g) files.
//
// Reads an STG in the petrify/punf interchange format, builds its complete
// prefix and reports consistency, USC, CSC and normalcy with witness
// execution paths.  --state-based additionally runs the explicit state-graph
// baseline for comparison; --dot dumps the prefix as Graphviz; a model with
// dummy transitions is contracted first (docs/ALGORITHMS.md, "Dummy
// contraction"); --deadlock runs the section 5 deadlock check; --synthesize derives
// next-state covers (requires CSC).  A `.pnml` input file is dispatched to
// the Petri-side analyses instead: reachability-graph construction,
// boundedness and deadlock.  Its own flags are a table that
// svc::parse_cli (svc/cli.hpp) parses after the flags shared with stgbatch.
//
// Observability: --trace writes a Chrome trace-event JSON (load it in
// chrome://tracing or https://ui.perfetto.dev), --metrics prints the metrics
// registry, --json writes a machine-readable verification report.
//
// Caching (docs/CACHING.md): when a cache directory is configured
// (--cache-dir or $STGCC_CACHE_DIR), finished verdicts are stored on disk
// keyed by the model file's content hash and the checker options -- the
// one rendered-verdict entry stgbatch and stgd read and write too; a warm
// run replays the stored report without re-verifying.  --no-cache disables
// the result caches only; the USC=>CSC certificate is a rule, not a cache,
// and always applies.
//
// Exit codes: 0 = all checked properties hold, 1 = a conflict / violation
// was found, 2 = usage or IO error, 3 = internal error (baselines disagree).
#include <filesystem>
#include <fstream>
#include <iostream>

#include "cache/result_cache.hpp"
#include "core/conflict_cores.hpp"
#include "core/verdict.hpp"
#include "obs/build_info.hpp"
#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "petri/pnml.hpp"
#include "petri/reachability.hpp"
#include "stg/astg.hpp"
#include "stg/logic.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "svc/cli.hpp"
#include "svc/client.hpp"
#include "util/stopwatch.hpp"

namespace {

using namespace stgcc;

/// stgcheck's stdout for one verdict, whether fresh, replayed from the
/// result cache or served by stgd.
void print_verdict(const core::RenderedVerdict& v, double seconds) {
    std::cout << v.report << "unfolding+IP time: " << seconds << " s\n";
    if (!v.deadlock_via.empty()) std::cout << v.deadlock_via << "\n";
}

/// Write the --json envelope: `body` plus build info (and the metrics
/// registry for STG runs).  False after reporting a write failure.
bool save_report(const char* path, obs::Json body, bool with_metrics) {
    body.set("build", obs::build_info());
    if (with_metrics) body.set("metrics", obs::Registry::instance().to_json());
    if (!obs::save_json(path, obs::make_report("stgcheck", std::move(body)))) {
        std::cerr << "error: cannot write " << path << "\n";
        return false;
    }
    std::cout << "report written to " << path << "\n";
    return true;
}

/// --connect mode: ship the model to a running stgd and print its rendered
/// verdict -- same stdout and exit code as a local run (docs/SERVICE.md).
int run_connected(const svc::CliOptions& cli) {
    const auto bytes = cache::read_file_bytes(cli.input);
    if (!bytes) {
        std::cerr << "error: cannot read " << cli.input << "\n";
        return 2;
    }
    svc::Client client;
    std::string error;
    if (!client.connect(cli.connect, error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }
    // Client-minted trace id: the server stamps it into its spans, event
    // log and the response envelope, so one id correlates this invocation
    // with the server-side work (docs/OBSERVABILITY.md).
    obs::Json request = obs::Json::object()
                            .set("op", "check")
                            .set("id", 1)
                            .set("trace", obs::generate_trace_id())
                            .set("model", *bytes)
                            .set("file", cli.input)
                            .set("options", cli.check.to_json());
    if (cli.deadline_ms > 0) request.set("deadline_ms", cli.deadline_ms);
    Stopwatch timer;
    const auto response = client.call(request, error);
    if (!response) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }
    if (!svc::response_ok(*response)) {
        std::cerr << "error: " << svc::response_error(*response) << "\n";
        return 2;
    }
    const auto verdict = core::RenderedVerdict::from_json(*response);
    if (!verdict || verdict->report.empty() ||
        (cli.json && verdict->json.kind() != obs::Json::Kind::Object)) {
        std::cerr << "error: malformed response from " << cli.connect << "\n";
        return 2;
    }
    print_verdict(*verdict, timer.seconds());
    if (cli.json && !save_report(cli.json, verdict->json, true)) return 2;
    return verdict->exit_code();
}

/// `.pnml` input: the model is a plain Petri net, not an STG, so the coding
/// checks do not apply.  Run the Petri-side analyses on the explicit
/// reachability graph instead: state/edge counts, boundedness, deadlock
/// (with a minimal firing sequence to the first deadlocked marking).
int run_pnml(const char* path, const char* json_path) {
    petri::NetSystem sys = petri::load_pnml_file(path);
    const petri::Net& net = sys.net();
    Stopwatch timer;
    petri::ReachabilityGraph rg(sys);
    const auto deadlocks = rg.deadlocks();
    std::cout << "petri net: " << net.num_places() << " places, "
              << net.num_transitions() << " transitions\n"
              << "reachability: " << rg.num_states() << " states, "
              << rg.num_edges() << " edges\n"
              << "bounded: " << rg.bound() << "-bounded"
              << (rg.is_safe() ? " (safe)" : "") << "\n"
              << "deadlock: "
              << (deadlocks.empty()
                      ? "free"
                      : std::to_string(deadlocks.size()) + " state(s)")
              << "\n";
    std::string deadlock_via;
    if (!deadlocks.empty()) {
        deadlock_via = "deadlock via:";
        for (const petri::TransitionId t : rg.path_to(deadlocks.front()))
            deadlock_via += " " + net.transition_name(t);
        std::cout << deadlock_via << "\n";
    }
    std::cout << "reachability time: " << timer.seconds() << " s\n";
    if (json_path) {
        obs::Json body = obs::Json::object()
                             .set("places", net.num_places())
                             .set("transitions", net.num_transitions())
                             .set("states", rg.num_states())
                             .set("edges", rg.num_edges())
                             .set("bound", rg.bound())
                             .set("safe", rg.is_safe())
                             .set("deadlock_free", deadlocks.empty())
                             .set("deadlock_states", deadlocks.size());
        if (!deadlock_via.empty()) body.set("deadlock_via", deadlock_via);
        if (!save_report(json_path, std::move(body), false)) return 2;
    }
    return deadlocks.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    svc::CliOptions cli;
    const char* dot_path = nullptr;
    bool state_based = false, synthesize = false, cores = false,
         metrics = false;
    const svc::CliTool tool{
        "usage: stgcheck file.g|file.pnml [options]\n"
        "\n"
        "Checks consistency, USC, CSC and normalcy of an STG.  A .pnml input\n"
        "runs the Petri-side analyses instead of the STG pipeline:\n"
        "reachability graph, boundedness and deadlock.\n",
        "no input file",
        {{"--persistency", "also check output persistency",
          &cli.check.persistency},
         {"--state-based",
          "cross-check against the explicit state-graph\nbaseline",
          &state_based},
         {"--synthesize", "derive next-state covers (requires CSC)",
          &synthesize},
         {"--cores", "print conflict-core height map on USC violation",
          &cores},
         {"--dot", "dump the prefix as Graphviz", &dot_path, "FILE"},
         {"--metrics", "print the metrics registry after checking", &metrics}},
        "exit codes: 0 = all properties hold, 1 = conflict found,\n"
        "            2 = usage/IO error, 3 = internal error\n"};
    if (const auto rc = svc::parse_cli(argc, argv, tool, cli)) return *rc;
    // Flags that need the prefix or live instrumentation: local STG runs
    // only, never replayed from a cached or served verdict.
    const bool local_only =
        state_based || synthesize || cores || dot_path || metrics || cli.trace;

    // A `.pnml` extension (case-sensitive) selects the Petri-side analyses.
    if (std::filesystem::path(cli.input).extension() == ".pnml") {
        if (cli.connect || local_only) {
            std::cerr << "error: .pnml inputs run the Petri-side analyses "
                         "only (no STG pipeline flags, no --connect)\n";
            return 2;
        }
        try {
            return run_pnml(cli.input, cli.json);
        } catch (const std::exception& e) {
            std::cerr << "error: " << e.what() << "\n";
            return 2;
        }
    }
    if (cli.connect) {
        if (local_only) {
            std::cerr << "error: --state-based/--synthesize/--cores/--dot/"
                         "--trace/--metrics need the prefix locally and are "
                         "not supported with --connect\n";
            return 2;
        }
        return run_connected(cli);
    }

    // Only --trace records spans; --json and --metrics read the registry,
    // whose metrics are always on, so they change nothing about the run.
    if (cli.trace) obs::set_enabled(true);

    core::VerifyOptions opts = cli.check.verify_options();
    opts.jobs = cli.jobs;
    const cache::ResultCache rcache(cli.cache_dir);
    sched::Executor ex(opts.jobs);

    try {
        obs::Span root("stgcheck");
        root.attr("file", cli.input);
        const auto text = cache::read_file_bytes(cli.input);
        if (!text) {
            std::cerr << "error: cannot open ASTG file: " << cli.input << "\n";
            return 2;
        }
        Stopwatch timer;
        // The whole stdout of a run without extras is the rendered verdict,
        // so it goes through the result cache.
        if (!local_only && !cli.json) {
            const auto verdict = core::verdict_cached(*text, opts, rcache, ex);
            print_verdict(verdict, timer.seconds());
            return verdict.exit_code();
        }

        obs::Span parse_span("parse");
        const stg::Stg model = stg::parse_astg_string(*text);
        parse_span.finish();
        timer.reset();
        const auto report = core::verify_stg(model, opts, ex);
        const auto verdict = core::render_verdict(model, report);
        print_verdict(verdict, timer.seconds());
        // Extras that need the checked (contracted, dummy-free) net read it
        // from the report; witnesses and the deadlock trace were already
        // translated back to `model`.
        const stg::Stg& checked =
            report.reduced_stg ? *report.reduced_stg : model;

        if (synthesize && report.consistent && report.csc.holds) {
            stg::StateGraph sg(checked);
            stg::LogicSynthesizer synth(sg);
            std::cout << "next-state functions:\n";
            for (const auto& fn : synth.synthesize_all())
                std::cout << "  " << checked.signal_name(fn.signal) << " = "
                          << fn.cover.to_string(checked)
                          << (is_monotonic(fn.cover) ? "" : "   [not monotonic]")
                          << "\n";
        }

        if (cores && report.consistent && !report.usc.holds) {
            // Reuse the verification run's artifact bundle (tier-1 cache)
            // instead of re-unfolding the model.
            const core::CodingProblem& problem = report.artifacts->problem();
            auto cr = core::collect_conflict_cores(problem);
            std::cout << core::format_height_map(problem, cr);
        }

        if (dot_path) {
            std::ofstream out(dot_path);
            out << report.artifacts->prefix().to_dot();
            if (!out) {
                std::cerr << "error: cannot write " << dot_path << "\n";
                return 2;
            }
            std::cout << "prefix written to " << dot_path << "\n";
        }

        if (state_based && report.consistent) {
            Stopwatch sb;
            stg::StateGraph sg(checked);
            auto usc = stg::check_usc_sg(sg);
            auto csc = stg::check_csc_sg(sg);
            std::cout << "state-based baseline: " << sg.num_states()
                      << " states, USC " << (usc.holds ? "holds" : "violated")
                      << ", CSC " << (csc.holds ? "holds" : "violated") << ", "
                      << sb.seconds() << " s\n";
            if (usc.holds != report.usc.holds || csc.holds != report.csc.holds) {
                std::cerr << "INTERNAL ERROR: baselines disagree\n";
                return 3;
            }
        }

        root.finish();

        if (cli.json && !save_report(cli.json, verdict.json, true)) return 2;
        if (cli.trace) {
            if (!obs::write_chrome_trace(cli.trace)) {
                std::cerr << "error: cannot write " << cli.trace << "\n";
                return 2;
            }
            std::cout << "trace written to " << cli.trace << " ("
                      << obs::Tracer::instance().num_spans()
                      << " spans; open in chrome://tracing)\n";
        }
        if (metrics) {
            std::cout << "--- metrics ---\n"
                      << obs::Registry::instance().text_summary();
        }
        return verdict.exit_code();
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
}
