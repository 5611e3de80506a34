#include "core/checkers.hpp"

#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "unfolding/configuration.hpp"

namespace stgcc::core {

namespace {

/// USC => CSC: equal codes with equal markings give equal enabled-output
/// sets, so once an exhaustive USC search found no conflict the CSC verdict
/// is forced and the search is skipped (its stats stay zero).
bool usc_certified(const cache::PrefixArtifacts& artifacts, obs::Span& span) {
    if (!artifacts.clauses().usc_holds()) return false;
    obs::counter("cache.certificates.csc_from_usc").add();
    span.attr("certificate", "usc_holds");
    return true;
}

}  // namespace

UnfoldingChecker::UnfoldingChecker(const stg::Stg& stg, unf::UnfoldOptions opts)
    : UnfoldingChecker(
          std::make_shared<const cache::PrefixArtifacts>(stg, opts)) {}

UnfoldingChecker::UnfoldingChecker(const stg::Stg& stg, unf::Prefix prefix)
    : UnfoldingChecker(std::make_shared<const cache::PrefixArtifacts>(
          stg, std::move(prefix))) {}

UnfoldingChecker::UnfoldingChecker(cache::PrefixArtifactsPtr artifacts)
    : artifacts_(std::move(artifacts)),
      stg_(&artifacts_->stg()),
      problem_(&artifacts_->problem()) {}  // throws when inconsistent

stg::ConflictWitness UnfoldingChecker::make_witness(const BitVec& ca,
                                                    const BitVec& cb) const {
    obs::Span span("witness");
    stg::ConflictWitness w;
    const BitVec ea = problem_->to_event_set(ca);
    const BitVec eb = problem_->to_event_set(cb);
    w.code = problem_->code_of(ca);
    w.m1 = unf::marking_of(prefix(), ea);
    w.m2 = unf::marking_of(prefix(), eb);
    w.out1 = stg_->out_signals(w.m1);
    w.out2 = stg_->out_signals(w.m2);
    w.trace1 = unf::firing_sequence_of(prefix(), ea);
    w.trace2 = unf::firing_sequence_of(prefix(), eb);
    return w;
}

stg::CodingCheckResult UnfoldingChecker::check_usc(SearchOptions opts) const {
    obs::Span span("solve.usc");
    CompatSolver solver(*problem_, opts);
    auto outcome = solver.solve(
        CodeRelation::Equal, [](const LeafView& a, const LeafView& b) {
            // USC separating predicate: the markings must differ.
            return !(a.places == b.places);
        });
    stg::CodingCheckResult result;
    result.stats = outcome.stats;
    if (outcome.found) {
        result.holds = false;
        result.witness = make_witness(outcome.ca, outcome.cb);
    } else if (!outcome.cancelled) {
        // Exhaustive no-conflict proof: every equal-code pair has equal
        // markings, hence equal enabled-output sets -- CSC holds too.
        artifacts_->clauses().record_usc_holds();
    }
    return result;
}

stg::CodingCheckResult UnfoldingChecker::check_csc(SearchOptions opts) const {
    obs::Span span("solve.csc");
    if (usc_certified(*artifacts_, span)) return {};
    CompatSolver solver(*problem_, opts);
    const std::vector<stg::SignalId> outputs = stg_->circuit_driven_signals();
    auto outcome = solver.solve(
        CodeRelation::Equal, [&](const LeafView& a, const LeafView& b) {
            // CSC separating predicate: enabled-output sets must differ
            // (equal codes with different Out sets imply distinct markings).
            for (const stg::SignalId z : outputs)
                if (problem_->enabled(a.places, z) != problem_->enabled(b.places, z))
                    return true;
            return false;
        });
    stg::CodingCheckResult result;
    result.stats = outcome.stats;
    if (outcome.found) {
        result.holds = false;
        result.witness = make_witness(outcome.ca, outcome.cb);
    }
    return result;
}

stg::CodingCheckResult UnfoldingChecker::check_csc(SearchOptions opts,
                                                   sched::Executor& ex) const {
    obs::Span span("solve.csc");
    span.attr("decomposition", "per_signal");
    const std::vector<stg::SignalId> outputs = stg_->circuit_driven_signals();
    stg::CodingCheckResult result;
    if (outputs.empty()) return result;  // no circuit-driven signal: holds
    if (usc_certified(*artifacts_, span)) return result;

    // Stats are kept per instance and summed over the indices up to the
    // winner (all of them when nothing is found).  find_first runs exactly
    // those instances to completion at every jobs value, so the totals
    // equal the serial run's; cancelled instances above the winner are
    // schedule-dependent and left out.
    std::vector<stg::CheckStats> per_signal(outputs.size());

    auto hit = sched::find_first<SearchOutcome>(
        ex, outputs.size(),
        [&](std::size_t i, const sched::CancellationToken& token)
            -> std::optional<SearchOutcome> {
            const stg::SignalId z = outputs[i];
            obs::Span task_span("solve.csc.signal");
            task_span.attr("signal", stg_->signal_name(z));
            SearchOptions local = opts;
            // The early-stop token must not drop a caller-supplied deadline
            // token: either cancels this instance.
            local.cancel =
                sched::CancellationToken::combine(opts.cancel, token);
            CompatSolver solver(*problem_, local);
            auto outcome = solver.solve(
                CodeRelation::Equal, [&](const LeafView& a, const LeafView& b) {
                    // Per-signal CSC predicate: z enabled at exactly one of
                    // the two markings (a CSC conflict exists iff some
                    // circuit-driven signal has one).
                    return problem_->enabled(a.places, z) !=
                           problem_->enabled(b.places, z);
                });
            per_signal[i] = outcome.stats;
            if (!outcome.found) return std::nullopt;
            return outcome;
        });

    const std::size_t counted = hit ? hit->index + 1 : outputs.size();
    for (std::size_t i = 0; i < counted; ++i) result.stats.add(per_signal[i]);
    if (hit) {
        result.holds = false;
        result.witness = make_witness(hit->value.ca, hit->value.cb);
    }
    span.attr("signals", outputs.size());
    span.attr("holds", result.holds);
    return result;
}

UnfoldingChecker::NormalcyPass UnfoldingChecker::run_normalcy_pass(
    CodeRelation rel, SearchOptions opts,
    const std::vector<stg::SignalId>& outputs) const {
    obs::Span span("solve.normalcy.pass");
    span.attr("relation", rel == CodeRelation::LessEq ? "less_eq" : "greater_eq");
    NormalcyPass pass;
    pass.per_signal.resize(outputs.size());
    for (std::size_t i = 0; i < outputs.size(); ++i)
        pass.per_signal[i].signal = outputs[i];

    auto make_nw = [&](stg::SignalId z, BitSpan lo_cfg, BitSpan hi_cfg) {
        stg::NormalcyWitness w;
        w.signal = z;
        const BitVec el = problem_->to_event_set(lo_cfg);
        const BitVec eh = problem_->to_event_set(hi_cfg);
        w.m1 = unf::marking_of(prefix(), el);
        w.m2 = unf::marking_of(prefix(), eh);
        w.code1 = problem_->code_of(lo_cfg);
        w.code2 = problem_->code_of(hi_cfg);
        w.nxt1 = stg_->nxt(w.m1, w.code1, z);
        w.nxt2 = stg_->nxt(w.m2, w.code2, z);
        w.trace1 = unf::firing_sequence_of(prefix(), el);
        w.trace2 = unf::firing_sequence_of(prefix(), eh);
        return w;
    };

    // The enumeration covers each unordered pair once, so a violating
    // ordered pair is found either with Code(x') <= Code(x'') (lo = x')
    // or with Code(x') >= Code(x'') (lo = x'').  Each flag keeps the
    // *first* violating pair in enumeration order, which is deterministic.
    CompatSolver solver(*problem_, opts);
    auto outcome = solver.solve(rel, [&](const LeafView& a, const LeafView& b) {
        const LeafView& lo = rel == CodeRelation::LessEq ? a : b;
        const LeafView& hi = rel == CodeRelation::LessEq ? b : a;
        for (std::size_t i = 0; i < outputs.size(); ++i) {
            stg::SignalNormalcy& sn = pass.per_signal[i];
            const stg::SignalId z = outputs[i];
            if (sn.p_normal || sn.n_normal) {
                // Nxt_z flips the code bit exactly when z is enabled.
                const bool nxt_lo = problem_->enabled(lo.places, z) != lo.code.test(z);
                const bool nxt_hi = problem_->enabled(hi.places, z) != hi.code.test(z);
                if (sn.p_normal && nxt_lo && !nxt_hi) {
                    sn.p_normal = false;
                    sn.p_violation = make_nw(z, lo.config, hi.config);
                }
                if (sn.n_normal && !nxt_lo && nxt_hi) {
                    sn.n_normal = false;
                    sn.n_violation = make_nw(z, lo.config, hi.config);
                }
            }
        }
        // Stop early only when no signal can still be classified normal.
        bool anything_open = false;
        for (const auto& sn : pass.per_signal)
            if (sn.p_normal || sn.n_normal) anything_open = true;
        if (!anything_open) pass.all_resolved = true;
        return pass.all_resolved;
    });
    pass.stats = outcome.stats;
    return pass;
}

stg::NormalcyResult UnfoldingChecker::check_normalcy(SearchOptions opts) const {
    sched::Executor serial(1);
    return check_normalcy(opts, serial);
}

stg::NormalcyResult UnfoldingChecker::check_normalcy(SearchOptions opts,
                                                     sched::Executor& ex) const {
    obs::Span span("solve.normalcy");
    const std::vector<stg::SignalId> outputs = stg_->circuit_driven_signals();

    // One work-preserving plan at every jobs value: the LessEq pass first,
    // the GreaterEq pass only for flags it left open.  Running both
    // orientations speculatively (as the parallel path once did) doubles
    // the exhaustive-search work whenever LessEq resolves everything --
    // on a loaded pool that speculation costs real throughput, while the
    // pool's other runnable work (sibling models, per-signal CSC) keeps
    // the workers busy without it (docs/PARALLELISM.md, "scaling study").
    (void)ex;
    NormalcyPass less, greater;
    bool use_greater = false;
    less = run_normalcy_pass(CodeRelation::LessEq, opts, outputs);
    if (!less.all_resolved) {
        greater = run_normalcy_pass(CodeRelation::GreaterEq, opts, outputs);
        use_greater = true;
    }

    // Merge in orientation order, LessEq first: a flag falsified by the
    // LessEq pass keeps that pass's witness; only flags it left open take
    // the GreaterEq verdict.
    stg::NormalcyResult result;
    result.per_signal.resize(outputs.size());
    for (std::size_t i = 0; i < outputs.size(); ++i) {
        stg::SignalNormalcy& sn = result.per_signal[i];
        sn.signal = outputs[i];
        const stg::SignalNormalcy& l = less.per_signal[i];
        if (!l.p_normal) {
            sn.p_normal = false;
            sn.p_violation = l.p_violation;
        } else if (use_greater && !greater.per_signal[i].p_normal) {
            sn.p_normal = false;
            sn.p_violation = greater.per_signal[i].p_violation;
        }
        if (!l.n_normal) {
            sn.n_normal = false;
            sn.n_violation = l.n_violation;
        } else if (use_greater && !greater.per_signal[i].n_normal) {
            sn.n_normal = false;
            sn.n_violation = greater.per_signal[i].n_violation;
        }
    }
    result.stats = less.stats;
    if (use_greater) result.stats.add(greater.stats);
    result.normal = true;
    for (const auto& sn : result.per_signal)
        if (!sn.normal()) result.normal = false;
    return result;
}

}  // namespace stgcc::core
