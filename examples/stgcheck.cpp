// stgcheck: command-line verifier for ASTG (.g) files.
//
// Reads an STG in the petrify/punf interchange format, builds its complete
// prefix and reports consistency, USC, CSC and normalcy with witness
// execution paths.  --state-based additionally runs the explicit state-graph
// baseline for comparison; --dot dumps the prefix as Graphviz; --reduce runs
// the verdict-preserving reduction pipeline first (docs/REDUCTIONS.md);
// --deadlock runs the section 5 deadlock check; --synthesize derives
// next-state covers (requires CSC).  A `.pnml` input file is dispatched to the Petri-side analyses
// instead: reachability-graph construction, boundedness and deadlock.
//
// Observability: --trace writes a Chrome trace-event JSON (load it in
// chrome://tracing or https://ui.perfetto.dev), --metrics prints the metrics
// registry, --json writes a machine-readable verification report.
//
// Caching (docs/CACHING.md): when a cache directory is configured
// (--cache-dir or $STGCC_CACHE_DIR), finished verdicts are stored on disk
// keyed by the model file's content hash and the checker options; a warm
// run replays the stored report without re-verifying.  --no-cache disables
// the result caches only; the USC=>CSC certificate is a rule, not a cache,
// and always applies.
//
// Exit codes: 0 = all checked properties hold, 1 = a conflict / violation
// was found, 2 = usage or IO error, 3 = internal error (baselines disagree).
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string_view>

#include "cache/result_cache.hpp"
#include "core/conflict_cores.hpp"
#include "core/verifier.hpp"
#include "obs/report.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "obs/build_info.hpp"
#include "obs/eventlog.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "petri/pnml.hpp"
#include "petri/reachability.hpp"
#include "stg/astg.hpp"
#include "stg/logic.hpp"
#include "stg/reduce/reduce.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "util/stopwatch.hpp"

namespace {

void print_usage(std::ostream& out) {
    out << "usage: stgcheck file.g|file.pnml [options]\n"
           "\n"
           "A .pnml input runs the Petri-side analyses instead of the STG\n"
           "pipeline: reachability graph, boundedness and deadlock.\n"
           "\n"
           "execution:\n"
           "  --jobs N            worker threads for the checking phases\n"
           "                      (default: hardware concurrency; 1 = serial,\n"
           "                      no thread pool; results are identical at\n"
           "                      any N)\n"
           "\n"
           "checks:\n"
           "  --no-normalcy       skip the normalcy check\n"
           "  --reduce[=LIST]     verdict-preserving net reductions before\n"
           "                      unfolding (docs/REDUCTIONS.md): all passes,\n"
           "                      or a comma list of contract,series,\n"
           "                      dup-place,const-place; witnesses are still\n"
           "                      reported on the original net\n"
           "  --no-reduce         disable reductions (the default)\n"
           "  --deadlock          also run the deadlock check (section 5)\n"
           "  --persistency       also check output persistency\n"
           "  --state-based       cross-check against the explicit state-graph "
           "baseline\n"
           "\n"
           "extras:\n"
           "  --synthesize        derive next-state covers (requires CSC)\n"
           "  --cores             print conflict-core height map on USC "
           "violation\n"
           "  --dot FILE          dump the prefix as Graphviz\n"
           "\n"
           "observability:\n"
           "  --trace FILE        write a Chrome trace-event JSON "
           "(chrome://tracing)\n"
           "  --metrics           print the metrics registry after checking\n"
           "  --json FILE         write a machine-readable verification "
           "report\n"
           "\n"
           "caching (docs/CACHING.md):\n"
           "  --cache-dir DIR     on-disk result cache (default: "
           "$STGCC_CACHE_DIR;\n"
           "                      unset = no result cache)\n"
           "  --no-cache          disable the result caches (verdicts are "
           "unchanged)\n"
           "\n"
           "service (docs/SERVICE.md):\n"
           "  --connect EP        verify through a running stgd at EP\n"
           "                      (unix:/path or host:port); output and exit\n"
           "                      code match a local run\n"
           "  --deadline-ms D     per-request deadline (--connect only)\n"
           "\n"
           "exit codes: 0 = all properties hold, 1 = conflict found,\n"
           "            2 = usage/IO error, 3 = internal error\n";
}

/// --connect mode: ship the model to a running stgd and replay its stored
/// verdict locally -- same stdout shape as a cache-hit run, same exit code
/// as a local verification (docs/SERVICE.md).
int run_connected(const char* connect, const char* path, const char* json_path,
                  const stgcc::svc::CheckOptions& copts,
                  std::uint64_t deadline_ms) {
    using namespace stgcc;
    const auto bytes = cache::read_file_bytes(path);
    if (!bytes) {
        std::cerr << "error: cannot read " << path << "\n";
        return 2;
    }
    svc::Client client;
    std::string error;
    if (!client.connect(connect, error)) {
        std::cerr << "error: " << error << "\n";
        return 2;
    }
    // Client-minted trace id: the server stamps it into its spans, event
    // log and the response envelope, so one id correlates this invocation
    // with the server-side work (docs/OBSERVABILITY.md).
    const std::string trace = obs::generate_trace_id();
    obs::Json request = obs::Json::object()
                            .set("op", "check")
                            .set("id", 1)
                            .set("trace", trace)
                            .set("model", *bytes)
                            .set("file", path)
                            .set("options", copts.to_json());
    if (deadline_ms > 0) request.set("deadline_ms", deadline_ms);
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
    const obs::Json* report = response->find("report");
    const obs::Json* exit_code = response->find("exit");
    if (!report || !exit_code) {
        std::cerr << "error: malformed response from " << connect << "\n";
        return 2;
    }
    std::cout << report->as_string() << "unfolding+IP time: " << timer.seconds()
              << " s\n";
    if (const obs::Json* dl = response->find("deadlock_via"))
        std::cout << dl->as_string() << "\n";
    if (json_path) {
        const obs::Json* body = response->find("json");
        if (!body) {
            std::cerr << "error: response carries no json report\n";
            return 2;
        }
        obs::Json out = *body;
        out.set("build", obs::build_info());
        out.set("metrics", obs::Registry::instance().to_json());
        if (!obs::save_json(json_path,
                            obs::make_report("stgcheck", std::move(out)))) {
            std::cerr << "error: cannot write " << json_path << "\n";
            return 2;
        }
        std::cout << "report written to " << json_path << "\n";
    }
    return static_cast<int>(exit_code->as_int());
}

/// True when `path` names a PNML file (case-sensitive extension match).
bool is_pnml_path(const char* path) {
    const std::string_view p(path);
    constexpr std::string_view kExt = ".pnml";
    return p.size() > kExt.size() &&
           p.substr(p.size() - kExt.size()) == kExt;
}

/// `.pnml` input: the model is a plain Petri net, not an STG, so the coding
/// checks do not apply.  Run the Petri-side analyses on the explicit
/// reachability graph instead: state/edge counts, boundedness, deadlock
/// (with a minimal firing sequence to the first deadlocked marking).
int run_pnml(const char* path, const char* json_path) {
    using namespace stgcc;
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
        body.set("build", obs::build_info());
        if (!obs::save_json(json_path,
                            obs::make_report("stgcheck", std::move(body)))) {
            std::cerr << "error: cannot write " << json_path << "\n";
            return 2;
        }
        std::cout << "report written to " << json_path << "\n";
    }
    return deadlocks.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace stgcc;
    if (argc < 2) {
        print_usage(std::cerr);
        return 2;
    }
    const char* path = nullptr;
    const char* dot_path = nullptr;
    const char* trace_path = nullptr;
    const char* json_path = nullptr;
    bool normalcy = true;
    bool state_based = false;
    std::string reduce_spec = "none";
    bool deadlock = false;
    bool synthesize = false;
    bool cores = false;
    bool persistency = false;
    bool metrics = false;
    bool use_cache = true;
    const char* cache_dir_flag = nullptr;
    const char* connect = nullptr;
    std::uint64_t deadline_ms = 0;
    unsigned jobs = 0;  // 0 = hardware concurrency
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--no-normalcy"))
            normalcy = false;
        else if (!std::strcmp(argv[i], "--state-based"))
            state_based = true;
        else if (!std::strcmp(argv[i], "--reduce"))
            reduce_spec = "all";
        else if (!std::strncmp(argv[i], "--reduce=", 9))
            reduce_spec = argv[i] + 9;
        else if (!std::strcmp(argv[i], "--no-reduce"))
            reduce_spec = "none";
        else if (!std::strcmp(argv[i], "--deadlock"))
            deadlock = true;
        else if (!std::strcmp(argv[i], "--persistency"))
            persistency = true;
        else if (!std::strcmp(argv[i], "--synthesize"))
            synthesize = true;
        else if (!std::strcmp(argv[i], "--cores"))
            cores = true;
        else if (!std::strcmp(argv[i], "--metrics"))
            metrics = true;
        else if (!std::strcmp(argv[i], "--help") || !std::strcmp(argv[i], "-h")) {
            print_usage(std::cout);
            return 0;
        } else if (!std::strcmp(argv[i], "--jobs") && i + 1 < argc) {
            char* end = nullptr;
            const unsigned long v = std::strtoul(argv[++i], &end, 10);
            if (!end || *end != '\0') {
                std::cerr << "bad --jobs value: " << argv[i] << "\n";
                return 2;
            }
            jobs = static_cast<unsigned>(v);
        } else if (!std::strcmp(argv[i], "--no-cache"))
            use_cache = false;
        else if (!std::strcmp(argv[i], "--cache-dir") && i + 1 < argc)
            cache_dir_flag = argv[++i];
        else if (!std::strcmp(argv[i], "--connect") && i + 1 < argc)
            connect = argv[++i];
        else if (!std::strcmp(argv[i], "--deadline-ms") && i + 1 < argc) {
            char* end = nullptr;
            deadline_ms = std::strtoull(argv[++i], &end, 10);
            if (!end || *end != '\0') {
                std::cerr << "bad --deadline-ms value: " << argv[i] << "\n";
                return 2;
            }
        }
        else if (!std::strcmp(argv[i], "--dot") && i + 1 < argc)
            dot_path = argv[++i];
        else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc)
            trace_path = argv[++i];
        else if (!std::strcmp(argv[i], "--json") && i + 1 < argc)
            json_path = argv[++i];
        else if (argv[i][0] != '-')
            path = argv[i];
        else {
            std::cerr << "unknown option: " << argv[i] << "\n";
            print_usage(std::cerr);
            return 2;
        }
    }
    if (!path) {
        std::cerr << "no input file\n";
        return 2;
    }
    // Reject an unknown pass list up front (usage error, not a model error).
    try {
        (void)stg::reduce::Options::parse(reduce_spec);
    } catch (const std::exception& ex) {
        std::cerr << "bad --reduce value: " << ex.what() << "\n";
        return 2;
    }
    // One options signature for every cache the verdict may land in --
    // stgcheck's rendered entries, stgd's, and the shared semantic tier all
    // embed CheckOptions::signature() (docs/CACHING.md).
    svc::CheckOptions copts;
    copts.normalcy = normalcy;
    copts.reduce = reduce_spec;
    copts.deadlock = deadlock;
    copts.persistency = persistency;
    copts.use_cache = use_cache;
    if (is_pnml_path(path)) {
        if (connect || state_based || synthesize || cores || dot_path ||
            trace_path || metrics) {
            std::cerr << "error: .pnml inputs run the Petri-side analyses "
                         "only (no STG pipeline flags, no --connect)\n";
            return 2;
        }
        try {
            return run_pnml(path, json_path);
        } catch (const std::exception& ex) {
            std::cerr << "error: " << ex.what() << "\n";
            return 2;
        }
    }
    if (connect) {
        if (state_based || synthesize || cores || dot_path || trace_path ||
            metrics) {
            std::cerr << "error: --state-based/--synthesize/--cores/--dot/"
                         "--trace/--metrics need the prefix locally and are "
                         "not supported with --connect\n";
            return 2;
        }
        return run_connected(connect, path, json_path, copts, deadline_ms);
    }

    // Any observability output turns the instrumentation on; the default
    // run pays only the disabled-flag branch on the hot paths.
    if (trace_path || json_path || metrics) obs::set_enabled(true);

    // Tier-3 result cache: only for runs whose entire stdout can be
    // replayed from the stored verdict (no extras that need the prefix or
    // live instrumentation).  --jobs is deliberately absent from the key:
    // verdicts and witnesses are identical at any jobs value.
    std::string cache_root;
    if (use_cache) {
        if (cache_dir_flag)
            cache_root = cache_dir_flag;
        else if (const char* env = std::getenv("STGCC_CACHE_DIR"))
            cache_root = env;
    }
    const cache::ResultCache rcache(cache_root);
    const bool cacheable = rcache.enabled() && !json_path && !trace_path &&
                           !metrics && !synthesize && !cores && !dot_path &&
                           !state_based;
    const std::string options_sig = copts.signature();

    try {
        obs::Span root("stgcheck");
        root.attr("file", path);

        std::uint64_t content_hash = 0;
        bool hashed = false;
        if (cacheable) {
            Stopwatch probe_timer;
            if (const auto bytes = cache::read_file_bytes(path)) {
                content_hash = cache::fnv1a64(*bytes);
                hashed = true;
                if (const auto hit =
                        rcache.load("stgcheck", content_hash, options_sig)) {
                    const obs::Json* text = hit->find("report");
                    const obs::Json* exit_code = hit->find("exit");
                    if (text && exit_code) {
                        std::cout << text->as_string() << "unfolding+IP time: "
                                  << probe_timer.seconds() << " s\n";
                        if (const obs::Json* dl = hit->find("deadlock_via"))
                            std::cout << dl->as_string() << "\n";
                        return static_cast<int>(exit_code->as_int());
                    }
                }
            }
        }

        obs::Span parse_span("parse");
        stg::Stg model = stg::load_astg_file(path);
        parse_span.finish();

        core::VerifyOptions opts;
        opts.jobs = jobs;
        opts.check_normalcy = normalcy;
        opts.reduce = stg::reduce::Options::parse(reduce_spec);
        opts.check_deadlock = deadlock;
        opts.check_persistency = persistency;
        Stopwatch timer;
        // The cacheable path rides the shared semantic tier too: the reduced
        // net's canonical hash can hit a verdict stored by stgd or by a
        // structurally equivalent model file (docs/CACHING.md).
        auto report = cacheable ? core::verify_stg_cached(model, opts, rcache)
                                : core::verify_stg(model, opts);
        const std::string report_text = core::format_report(model, report);
        std::cout << report_text << "unfolding+IP time: " << timer.seconds()
                  << " s\n";
        // Extras that need the checked (reduced, dummy-free) net read it
        // from the report; witnesses and the deadlock trace were already
        // translated back to `model`.
        const stg::Stg& checked =
            report.reduced_stg ? *report.reduced_stg : model;
        std::string deadlock_via;
        if (report.deadlock_checked && !report.deadlock_free) {
            deadlock_via =
                "deadlock via: " + model.sequence_text(report.deadlock_trace);
            std::cout << deadlock_via << "\n";
        }

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

        if (json_path) {
            obs::Json body = core::report_json(model, report);
            body.set("jobs", report.jobs);
            body.set("build", obs::build_info());
            body.set("metrics", obs::Registry::instance().to_json());
            if (!obs::save_json(json_path,
                                obs::make_report("stgcheck", std::move(body)))) {
                std::cerr << "error: cannot write " << json_path << "\n";
                return 2;
            }
            std::cout << "report written to " << json_path << "\n";
        }
        if (trace_path) {
            if (!obs::write_chrome_trace(trace_path)) {
                std::cerr << "error: cannot write " << trace_path << "\n";
                return 2;
            }
            std::cout << "trace written to " << trace_path << " ("
                      << obs::Tracer::instance().num_spans()
                      << " spans; open in chrome://tracing)\n";
        }
        if (metrics) {
            std::cout << "--- metrics ---\n"
                      << obs::Registry::instance().text_summary();
        }

        int exit_code = 1;
        if (report.consistent) {
            const bool all_hold =
                report.usc.holds && report.csc.holds &&
                (!normalcy || report.normalcy.normal) &&
                (!report.deadlock_checked || report.deadlock_free) &&
                (!report.persistency_checked || report.persistent);
            exit_code = all_hold ? 0 : 1;
        }
        if (cacheable && hashed) {
            obs::Json value = obs::Json::object()
                                  .set("report", report_text)
                                  .set("exit", exit_code);
            if (!deadlock_via.empty()) value.set("deadlock_via", deadlock_via);
            rcache.store("stgcheck", content_hash, options_sig,
                         std::move(value));
        }
        return exit_code;
    } catch (const std::exception& ex) {
        std::cerr << "error: " << ex.what() << "\n";
        return 2;
    }
}
