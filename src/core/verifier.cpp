#include "core/verifier.hpp"

#include <functional>
#include <sstream>

#include "core/extended_checks.hpp"
#include "core/persistency.hpp"
#include "obs/trace.hpp"

namespace stgcc::core {

namespace {
void run_checks(VerificationReport& report, const VerifyOptions& opts,
                sched::Executor& ex);
void translate_report(VerificationReport& report, const stg::Stg& input,
                      const stg::WitnessMap& map);

/// Render the "output X disabled by Y via: ..." persistency note on `stg`
/// (which must be the net the violation's ids refer to).
std::string persistency_note_text(
    const stg::Stg& stg, const VerificationReport::PersistencyViolation& v) {
    return "output " + stg.net().transition_name(v.output) + " disabled by " +
           stg.net().transition_name(v.disabler) +
           " via: " + stg.sequence_text(v.trace);
}

}  // namespace

VerificationReport verify_stg(const stg::Stg& input, VerifyOptions opts) {
    sched::Executor ex(opts.jobs);
    return verify_stg(input, std::move(opts), ex);
}

PreparedStg prepare_stg(const stg::Stg& input, const unf::UnfoldOptions& opts) {
    PreparedStg prepared;
    if (!input.has_dummies()) {
        prepared.artifacts =
            std::make_shared<const cache::PrefixArtifacts>(input, opts);
        return prepared;
    }
    prepared.contraction = std::make_shared<const stg::ContractionResult>(
        stg::contract_dummies(input));
    // The bundle can outlive the caller's locals (a report keeps it), so it
    // shares ownership of the contracted STG it references.
    prepared.artifacts = std::make_shared<const cache::PrefixArtifacts>(
        std::shared_ptr<const stg::Stg>(prepared.contraction,
                                        &prepared.contraction->stg),
        opts);
    return prepared;
}

VerificationReport verify_stg(const stg::Stg& input, VerifyOptions opts,
                              sched::Executor& ex) {
    obs::Span span("verify");
    span.attr("stg", input.name());
    // Tier-1 shared artifacts: the prefix, its consistency analysis, the
    // coding problem, leaf tables and the USC=>CSC certificate are
    // computed exactly once and shared by every checking phase.
    return verify_reduced(input, prepare_stg(input, opts.unfold), opts, ex);
}

VerificationReport verify_reduced(const stg::Stg& input,
                                  const PreparedStg& prepared,
                                  const VerifyOptions& opts,
                                  sched::Executor& ex) {
    VerificationReport report;
    report.artifacts = prepared.artifacts;
    run_checks(report, opts, ex);
    if (prepared.contraction) {
        report.reduced_stg = prepared.contraction->stg;
        translate_report(report, input, prepared.contraction->map);
    }
    return report;
}

namespace {

/// Rewrite every witness in `r` -- conflict/normalcy traces and markings,
/// the deadlock trace, the persistency violation -- from the contracted net
/// the checks ran on back to `input`, via the contraction's witness map.
/// Throws ModelError if a trace fails to replay on `input` (a contraction
/// soundness bug).
void translate_report(VerificationReport& r, const stg::Stg& input,
                      const stg::WitnessMap& map) {
    const auto lift = [&](std::vector<petri::TransitionId>& trace,
                          petri::Marking* m) {
        auto translated = map.translate(input, trace);
        if (!translated)
            throw ModelError("witness back-translation failed on '" +
                             input.name() + "' (contraction soundness bug)");
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
        v.output = map.to_input[v.output];
        v.disabler = map.to_input[v.disabler];
        lift(v.trace, nullptr);
    }
}

/// Back half of verify_reduced: run every checking phase against
/// report.artifacts (already set).  The STG the checks see is
/// the one the bundle was built from (post-contraction when the caller
/// contracted).
void run_checks(VerificationReport& report, const VerifyOptions& opts,
                sched::Executor& ex) {
    const cache::PrefixArtifacts& artifacts = *report.artifacts;
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
        report.usc = checker.check_usc(opts.search, ex);
        report.csc = checker.check_csc(opts.search, ex);
    });
    if (opts.check_normalcy) {
        report.normalcy_checked = true;
        phases.emplace_back(
            [&] { report.normalcy = checker.check_normalcy(opts.search); });
    }
    sched::parallel_invoke(ex, std::move(phases));
    if (opts.check_deadlock) {
        obs::Span phase("solve.deadlock");
        report.deadlock_checked = true;
        auto deadlock = check_deadlock(checker.problem(), opts.search);
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
    obs::Json j = obs::Json::object()
                      .set("states", s.states)
                      .set("search_nodes", s.search_nodes)
                      .set("leaves", s.leaves)
                      .set("propagations", s.propagations)
                      .set("max_depth", s.max_depth)
                      .set("seconds", s.seconds);
    // Zero means "not measured": the bound stopwatch runs only while a
    // trace is recording.
    if (s.bound_seconds > 0) j.set("bound_seconds", s.bound_seconds);
    return j;
}

/// What contraction removed from `input` to get `contracted`.  It removes
/// dummies only; product places may outnumber the merged ones (|P|x|Q|
/// products replace |P|+|Q| places), so the place count saturates at 0.
struct Removed {
    std::size_t transitions = 0;
    std::size_t places = 0;
};

Removed removed_by_contraction(const stg::Stg& input,
                               const stg::Stg& contracted) {
    const std::size_t before = input.net().num_places();
    const std::size_t after = contracted.net().num_places();
    return {input.net().num_transitions() - contracted.net().num_transitions(),
            before > after ? before - after : 0};
}

}  // namespace

obs::Json report_json(const stg::Stg& input, const VerificationReport& r) {
    // Witnesses (and therefore sizes too) are reported on the original
    // input net; what contraction removed is accounted separately below.
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
    if (r.reduced_stg) {
        const Removed removed = removed_by_contraction(input, *r.reduced_stg);
        out.set("reduction", obs::Json::object()
                                 .set("transitions_removed", removed.transitions)
                                 .set("places_removed", removed.places));
    }
    out.set("prefix", std::move(prefix));
    out.set("results", std::move(results));
    out.set("stats", std::move(stats));
    return out;
}

std::string format_report(const stg::Stg& input, const VerificationReport& r) {
    std::ostringstream out;
    // Witness traces refer to the original input net: verify_stg (and
    // stgd's render path) translate them back through the contraction's
    // witness map before rendering.
    const stg::Stg& stg = input;
    const petri::Net& net = stg.net();
    out << "STG '" << stg.name() << "': |S|=" << net.num_places()
        << " |T|=" << net.num_transitions() << " |Z|=" << stg.num_signals()
        << "\n";
    if (r.reduced_stg) {
        const Removed removed = removed_by_contraction(input, *r.reduced_stg);
        out << "reduction: -" << removed.transitions << "t -" << removed.places
            << "p\n";
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
        if (r.persistency_violation)
            out << "  " << persistency_note_text(stg, *r.persistency_violation)
                << "\n";
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
