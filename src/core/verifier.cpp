#include "core/verifier.hpp"

#include <sstream>

#include "core/extended_checks.hpp"
#include "core/persistency.hpp"
#include "core/report_codec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stgcc::core {

namespace {
void run_checks(VerificationReport& report, const VerifyOptions& opts,
                sched::Executor& ex);

/// Run the reduction pipeline on a shared-owned copy of the input and
/// record the bookkeeping (reduced_stg / dummies_contracted / summary) in
/// the report.  Every removed transition is a dummy, so the legacy
/// `dummies contracted` count is the summary's transition total.
stg::reduce::ReduceResult reduce_input(const stg::Stg& input,
                                       const VerifyOptions& opts,
                                       VerificationReport& report) {
    stg::reduce::ReduceResult red;
    if (!opts.reduce.enabled) return red;
    red = stg::reduce::run_passes(std::make_shared<const stg::Stg>(input),
                                  opts.reduce);
    report.reduction = red.summary;
    report.dummies_contracted = red.summary.transitions_removed();
    if (red.summary.any()) report.reduced_stg = *red.stg;
    return red;
}

}  // namespace

std::string persistency_note_text(
    const stg::Stg& stg, const VerificationReport::PersistencyViolation& v) {
    return "output " + stg.net().transition_name(v.output) + " disabled by " +
           stg.net().transition_name(v.disabler) +
           " via: " + stg.sequence_text(v.trace);
}

std::string semantic_entry_options(const VerifyOptions& opts) {
    return std::string("stgcore/") + std::to_string(kReportCodecVersion) +
           ";normalcy=" + (opts.check_normalcy ? "1" : "0") +
           ";deadlock=" + (opts.check_deadlock ? "1" : "0") +
           ";persistency=" + (opts.check_persistency ? "1" : "0");
}

VerificationReport verify_stg(const stg::Stg& input, VerifyOptions opts) {
    sched::Executor ex(opts.jobs);
    return verify_stg(input, std::move(opts), ex);
}

VerificationReport verify_stg(const stg::Stg& input, VerifyOptions opts,
                              sched::Executor& ex) {
    obs::Span span("verify");
    span.attr("stg", input.name());
    VerificationReport report;
    stg::reduce::ReduceResult red = reduce_input(input, opts, report);
    // Tier-1 shared artifacts: the prefix, its consistency analysis, the
    // coding problem, condition masks and the USC=>CSC certificate are
    // computed exactly once here and shared by every checking phase (the
    // consistency analysis used to run twice -- once here and once inside
    // the CodingProblem constructor).  The bundle outlives this call inside
    // the report, so the reduced STG it references is shared-owned.
    report.artifacts =
        red.stg
            ? std::make_shared<const cache::PrefixArtifacts>(red.stg,
                                                             opts.unfold)
            : std::make_shared<const cache::PrefixArtifacts>(input, opts.unfold);
    run_checks(report, opts, ex);
    translate_report(report, input, red.chain);
    return report;
}

VerificationReport verify_stg_cached(const stg::Stg& input, VerifyOptions opts,
                                     const cache::ResultCache& rcache,
                                     bool* semantic_hit) {
    if (semantic_hit) *semantic_hit = false;
    if (!rcache.enabled()) return verify_stg(input, std::move(opts));

    obs::Span span("verify.cached");
    span.attr("stg", input.name());
    VerificationReport report;
    stg::reduce::ReduceResult red = reduce_input(input, opts, report);
    const stg::Stg& checked = red.stg ? *red.stg : input;
    const std::uint64_t key = stg::reduce::semantic_hash(checked);
    const std::string entry_opts = semantic_entry_options(opts);

    if (auto payload = rcache.load("stgcore", key, entry_opts)) {
        if (auto decoded = decode_report(*payload, checked)) {
            obs::counter("cache.result.semantic_hits").add(1);
            span.attr("semantic_hit", true);
            if (semantic_hit) *semantic_hit = true;
            decoded->jobs = opts.jobs;
            decoded->reduction = report.reduction;
            decoded->dummies_contracted = report.dummies_contracted;
            decoded->reduced_stg = std::move(report.reduced_stg);
            if (!red.chain.empty())
                translate_report(*decoded, input, red.chain);
            else if (decoded->persistency_violation)
                decoded->persistency_note = persistency_note_text(
                    input, *decoded->persistency_violation);
            return *std::move(decoded);
        }
    }

    sched::Executor ex(opts.jobs);
    report.artifacts =
        red.stg
            ? std::make_shared<const cache::PrefixArtifacts>(red.stg,
                                                             opts.unfold)
            : std::make_shared<const cache::PrefixArtifacts>(input, opts.unfold);
    run_checks(report, opts, ex);
    rcache.store("stgcore", key, entry_opts, encode_report(report, checked));
    translate_report(report, input, red.chain);
    return report;
}

void translate_report(VerificationReport& r, const stg::Stg& input,
                      const stg::reduce::WitnessChain& chain) {
    if (chain.empty()) return;
    const auto lift = [&](std::vector<petri::TransitionId>& trace,
                          petri::Marking* m) {
        auto translated = chain.translate(trace);
        if (!translated)
            throw ModelError(
                "witness back-translation failed on '" + input.name() +
                "' (reduction soundness bug; re-run with --no-reduce)");
        trace = std::move(translated->trace);
        if (m) *m = std::move(translated->marking);
    };
    const auto lift_conflict = [&](std::optional<stg::ConflictWitness>& w) {
        if (!w) return;
        lift(w->trace1, &w->m1);
        lift(w->trace2, &w->m2);
    };
    lift_conflict(r.usc.witness);
    lift_conflict(r.csc.witness);
    for (stg::SignalNormalcy& sn : r.normalcy.per_signal) {
        for (std::optional<stg::NormalcyWitness>* v :
             {&sn.p_violation, &sn.n_violation}) {
            if (!v->has_value()) continue;
            lift((*v)->trace1, &(*v)->m1);
            lift((*v)->trace2, &(*v)->m2);
        }
    }
    if (r.deadlock_checked && !r.deadlock_free) lift(r.deadlock_trace, nullptr);
    if (r.persistency_violation) {
        auto& v = *r.persistency_violation;
        v.output = chain.translate_transition(v.output);
        v.disabler = chain.translate_transition(v.disabler);
        lift(v.trace, nullptr);
        r.persistency_note = persistency_note_text(input, v);
    }
}

VerificationReport verify_artifacts(cache::PrefixArtifactsPtr artifacts,
                                    VerifyOptions opts, sched::Executor& ex) {
    obs::Span span("verify.artifacts");
    span.attr("stg", artifacts->stg().name());
    VerificationReport report;
    report.artifacts = std::move(artifacts);
    run_checks(report, opts, ex);
    return report;
}

namespace {

/// Shared back half of verify_stg / verify_artifacts: run every checking
/// phase against report.artifacts (already set).  The STG the checks see is
/// the one the bundle was built from (post-contraction when the caller
/// contracted).
void run_checks(VerificationReport& report, const VerifyOptions& opts,
                sched::Executor& ex) {
    const cache::PrefixArtifacts& artifacts = *report.artifacts;
    const stg::Stg& stg = artifacts.stg();
    report.prefix.conditions = artifacts.prefix().num_conditions();
    report.prefix.events = artifacts.prefix().num_events();
    report.prefix.cutoffs = artifacts.prefix().num_cutoffs();
    report.consistent = artifacts.consistency().consistent;
    report.inconsistency_reason = artifacts.consistency().reason;
    if (!report.consistent) return;
    report.initial_code = artifacts.consistency().initial_code;

    UnfoldingChecker checker(report.artifacts);
    // Phase plan: the parallel decomposition must not *create* work the
    // serial order avoids (docs/PARALLELISM.md, "scaling study").  USC and
    // CSC form one ordered chain -- an exhaustive USC pass records the
    // usc_holds certificate that lets CSC answer without searching, and
    // running them concurrently would forfeit it and pay the full
    // per-signal CSC fan-out on every conflict-free model (the 8x corpus
    // inversion fixed in the scaling study).  Normalcy is an independent
    // chain (LessEq pass, then GreaterEq only for unresolved flags).  The
    // two chains run concurrently; within the CSC link the per-signal
    // fan-out still spreads over the pool.  The serial executor runs the
    // identical chains in order -- results are the same at any jobs value.
    report.jobs = ex.jobs();
    std::vector<std::function<void()>> phases;
    phases.emplace_back([&] {
        report.usc = checker.check_usc(opts.search);
        report.csc = checker.check_csc(opts.search, ex);
    });
    if (opts.check_normalcy) {
        report.normalcy_checked = true;
        phases.emplace_back(
            [&] { report.normalcy = checker.check_normalcy(opts.search, ex); });
    }
    sched::parallel_invoke(ex, std::move(phases));
    if (opts.check_deadlock) {
        obs::Span phase("solve.deadlock");
        report.deadlock_checked = true;
        auto deadlock = check_deadlock(checker.problem());
        report.deadlock_free = !deadlock.found;
        if (deadlock.found) report.deadlock_trace = deadlock.witness->trace;
    }
    if (opts.check_persistency) {
        obs::Span phase("solve.persistency");
        report.persistency_checked = true;
        auto persistency = check_persistency(checker.problem());
        report.persistent = persistency.persistent;
        if (!persistency.persistent) {
            const auto& v = *persistency.violation;
            report.persistency_violation =
                VerificationReport::PersistencyViolation{v.output, v.disabler,
                                                         v.trace};
            // On the checked net; translate_report re-renders on the input
            // when a reduction ran.
            report.persistency_note =
                persistency_note_text(stg, *report.persistency_violation);
        }
    }
}

}  // namespace

namespace {

std::string signal_set_text(const stg::Stg& stg, const BitVec& set) {
    std::string out = "{";
    bool first = true;
    set.for_each([&](std::size_t z) {
        if (!first) out += ", ";
        first = false;
        out += stg.signal_name(static_cast<stg::SignalId>(z));
    });
    return out + "}";
}

}  // namespace

std::string format_witness(const stg::Stg& stg,
                           const stg::ConflictWitness& witness) {
    std::ostringstream out;
    out << "  shared code: " << witness.code.to_string() << "\n"
        << "  M'  = " << witness.m1.to_string(stg.net())
        << "  Out = " << signal_set_text(stg, witness.out1) << "\n"
        << "    via: " << stg.sequence_text(witness.trace1) << "\n"
        << "  M'' = " << witness.m2.to_string(stg.net())
        << "  Out = " << signal_set_text(stg, witness.out2) << "\n"
        << "    via: " << stg.sequence_text(witness.trace2) << "\n";
    return out.str();
}

std::string format_normalcy_witness(const stg::Stg& stg,
                                    const stg::NormalcyWitness& w) {
    std::ostringstream out;
    out << "  signal " << stg.signal_name(w.signal) << ":\n"
        << "  Code(M')  = " << w.code1.to_string() << "  Nxt = " << w.nxt1
        << "  via: " << stg.sequence_text(w.trace1) << "\n"
        << "  Code(M'') = " << w.code2.to_string() << "  Nxt = " << w.nxt2
        << "  via: " << stg.sequence_text(w.trace2) << "\n";
    return out.str();
}

namespace {

obs::Json stats_json(const stg::CheckStats& s) {
    return obs::Json::object()
        .set("states", s.states)
        .set("search_nodes", s.search_nodes)
        .set("leaves", s.leaves)
        .set("propagations", s.propagations)
        .set("max_depth", s.max_depth)
        .set("seconds", s.seconds)
        .set("bound_seconds", s.bound_seconds);
}

}  // namespace

obs::Json reduction_json(const stg::reduce::Summary& s) {
    obs::Json passes = obs::Json::array();
    for (const stg::reduce::PassStats& p : s.passes)
        passes.push(obs::Json::object()
                        .set("pass", p.pass)
                        .set("applications", p.applications)
                        .set("places_removed", p.places_removed)
                        .set("transitions_removed", p.transitions_removed));
    obs::Json remaining = obs::Json::array();
    for (const std::string& d : s.remaining_dummies) remaining.push(d);
    return obs::Json::object()
        .set("rounds", s.rounds)
        .set("places_removed", s.places_removed())
        .set("transitions_removed", s.transitions_removed())
        .set("remaining_dummies", std::move(remaining))
        .set("passes", std::move(passes));
}

obs::Json report_json(const stg::Stg& input, const VerificationReport& r) {
    // Witnesses (and therefore sizes too) are reported on the original
    // input net; reduction work is accounted separately below.
    const stg::Stg& stg = input;
    obs::Json model = obs::Json::object()
                          .set("name", stg.name())
                          .set("places", stg.net().num_places())
                          .set("transitions", stg.net().num_transitions())
                          .set("signals", stg.num_signals());
    obs::Json prefix = obs::Json::object()
                           .set("conditions", r.prefix.conditions)
                           .set("events", r.prefix.events)
                           .set("cutoffs", r.prefix.cutoffs);

    obs::Json results = obs::Json::object();
    results.set("consistent", r.consistent);
    results.set("jobs", r.jobs);
    if (!r.consistent) {
        results.set("inconsistency_reason", r.inconsistency_reason);
    } else {
        results.set("initial_code", r.initial_code.to_string());
        results.set("usc", obs::Json::object().set("holds", r.usc.holds));
        results.set("csc", obs::Json::object().set("holds", r.csc.holds));
        if (r.normalcy_checked)
            results.set("normalcy",
                        obs::Json::object().set("normal", r.normalcy.normal));
        if (r.deadlock_checked)
            results.set("deadlock",
                        obs::Json::object().set("free", r.deadlock_free));
        if (r.persistency_checked)
            results.set("persistency",
                        obs::Json::object().set("persistent", r.persistent));
    }

    obs::Json stats = obs::Json::object();
    stats.set("usc", stats_json(r.usc.stats));
    stats.set("csc", stats_json(r.csc.stats));
    if (r.normalcy_checked) stats.set("normalcy", stats_json(r.normalcy.stats));

    obs::Json out = obs::Json::object();
    out.set("model", std::move(model));
    if (r.dummies_contracted > 0)
        out.set("dummies_contracted", r.dummies_contracted);
    if (r.reduction.rounds > 0) out.set("reduction", reduction_json(r.reduction));
    out.set("prefix", std::move(prefix));
    out.set("results", std::move(results));
    out.set("stats", std::move(stats));
    return out;
}

std::string format_report(const stg::Stg& input, const VerificationReport& r) {
    std::ostringstream out;
    // Witness traces refer to the original input net: verify_stg (and
    // stgd's render path) translate them back through the reduction
    // witness chain before rendering.
    const stg::Stg& stg = input;
    const petri::Net& net = stg.net();
    out << "STG '" << stg.name() << "': |S|=" << net.num_places()
        << " |T|=" << net.num_transitions() << " |Z|=" << stg.num_signals()
        << "\n";
    if (r.dummies_contracted > 0)
        out << "dummies contracted: " << r.dummies_contracted << "\n";
    if (r.reduction.any()) {
        out << "reduction: -" << r.reduction.transitions_removed() << "t -"
            << r.reduction.places_removed() << "p (rounds="
            << r.reduction.rounds;
        for (const stg::reduce::PassStats& p : r.reduction.passes)
            if (p.applications > 0)
                out << "; " << p.pass << " x" << p.applications;
        out << ")\n";
    }
    out << "prefix: |B|=" << r.prefix.conditions << " |E|=" << r.prefix.events
        << " |E_cut|=" << r.prefix.cutoffs << "\n";
    if (!r.consistent) {
        out << "consistency: FAILED (" << r.inconsistency_reason << ")\n";
        return out.str();
    }
    out << "consistency: ok, v0 = " << r.initial_code.to_string() << "\n";
    out << "USC: " << (r.usc.holds ? "holds" : "VIOLATED") << "\n";
    if (r.usc.witness) out << format_witness(stg, *r.usc.witness);
    out << "CSC: " << (r.csc.holds ? "holds" : "VIOLATED") << "\n";
    if (r.csc.witness) out << format_witness(stg, *r.csc.witness);
    if (r.deadlock_checked)
        out << "deadlock: " << (r.deadlock_free ? "none" : "REACHABLE") << "\n";
    if (r.persistency_checked) {
        out << "output persistency: " << (r.persistent ? "holds" : "VIOLATED")
            << "\n";
        if (!r.persistent) out << "  " << r.persistency_note << "\n";
    }
    if (r.normalcy_checked) {
        out << "normalcy: " << (r.normalcy.normal ? "holds" : "VIOLATED") << "\n";
        for (const auto& sn : r.normalcy.per_signal) {
            out << "  " << stg.signal_name(sn.signal) << ": "
                << (sn.normal()
                        ? (sn.p_normal && sn.n_normal ? "p-normal and n-normal"
                           : sn.p_normal              ? "p-normal"
                                                      : "n-normal")
                        : "NOT normal")
                << "\n";
            if (!sn.normal()) {
                if (sn.p_violation)
                    out << format_normalcy_witness(stg, *sn.p_violation);
                if (sn.n_violation)
                    out << format_normalcy_witness(stg, *sn.n_violation);
            }
        }
    }
    return out.str();
}

}  // namespace stgcc::core
