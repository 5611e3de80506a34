#include "core/checkers.hpp"

#include <algorithm>
#include <bit>
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

/// The marking a configuration reaches and a firing sequence from M0 to it.
void reach(const CodingProblem& problem, BitSpan config,
           petri::Marking& marking, std::vector<petri::TransitionId>& trace) {
    marking = unf::marking_of(problem.prefix(), config);
    trace = unf::firing_sequence_of(problem.prefix(), config);
}

stg::ConflictWitness make_witness(const CodingProblem& problem, BitSpan ca,
                                  BitSpan cb) {
    obs::Span span("witness");
    stg::ConflictWitness w;
    w.code = problem.code_of(ca);
    reach(problem, ca, w.m1, w.trace1);
    reach(problem, cb, w.m2, w.trace2);
    w.out1 = problem.stg().out_signals(w.m1);
    w.out2 = problem.stg().out_signals(w.m2);
    return w;
}

stg::NormalcyWitness make_normalcy_witness(const CodingProblem& problem,
                                           stg::SignalId z, BitSpan lo_cfg,
                                           BitSpan hi_cfg) {
    stg::NormalcyWitness w;
    w.signal = z;
    reach(problem, lo_cfg, w.m1, w.trace1);
    reach(problem, hi_cfg, w.m2, w.trace2);
    w.code1 = problem.code_of(lo_cfg);
    w.code2 = problem.code_of(hi_cfg);
    w.nxt1 = problem.stg().nxt(w.m1, w.code1, z);
    w.nxt2 = problem.stg().nxt(w.m2, w.code2, z);
    return w;
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

stg::CodingCheckResult UnfoldingChecker::check_usc(SearchOptions opts) const {
    sched::Executor serial(1);  // starts no pool
    return check_usc(opts, serial);
}

stg::CodingCheckResult UnfoldingChecker::check_usc(SearchOptions opts,
                                                   sched::Executor& ex) const {
    obs::Span span("solve.usc");
    CompatSolver solver(*problem_, opts);
    auto outcome = solver.solve(
        CodeRelation::Equal,
        [](const LeafView& a, const LeafView& b) {
            // USC separating predicate: the markings must differ.
            return !(a.places == b.places);
        },
        ex);
    stg::CodingCheckResult result;
    result.stats = outcome.stats;
    if (outcome.found) {
        result.holds = false;
        result.witness = make_witness(*problem_, outcome.ca, outcome.cb);
    } else if (!outcome.cancelled) {
        // Exhaustive no-conflict proof: every equal-code pair has equal
        // markings, hence equal enabled-output sets -- CSC holds too.
        artifacts_->clauses().record_usc_holds();
    }
    return result;
}

stg::CodingCheckResult UnfoldingChecker::check_csc(SearchOptions opts) const {
    sched::Executor serial(1);  // starts no pool
    return check_csc(opts, serial);
}

stg::CodingCheckResult UnfoldingChecker::check_csc(SearchOptions opts,
                                                   sched::Executor& ex) const {
    obs::Span span("solve.csc");
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
        result.witness = make_witness(*problem_, hit->value.ca, hit->value.cb);
    }
    span.attr("signals", outputs.size());
    span.attr("holds", result.holds);
    return result;
}

stg::NormalcyResult UnfoldingChecker::check_normalcy(SearchOptions opts) const {
    obs::Span span("solve.normalcy");
    // One record through both orientations: every flag starts open, the
    // LessEq pass falsifies flags in place, and the GreaterEq pass runs only
    // while a flag is still open, on the same record -- a flag LessEq
    // closed stays closed with its LessEq witness.  The enumeration covers
    // each unordered pair once, so a violating ordered pair is found either
    // with Code(x') <= Code(x'') (lo = x') or with Code(x') >= Code(x'')
    // (lo = x'').  Each flag keeps the *first* violating pair in enumeration
    // order, which is deterministic.
    stg::NormalcyResult result;
    // The open flags as |Z|-bit sets, p and n apart, and where each signal
    // sits in per_signal (ascending signal order, as circuit_driven_signals
    // lists them).
    using Word = BitSpan::Word;
    constexpr std::size_t kWordBits = BitSpan::kWordBits;
    const std::size_t ncw = problem_->initial_code().span().num_words();
    std::vector<Word> open_p(ncw), open_n(ncw);
    std::vector<std::size_t> slot(stg_->num_signals());
    for (const stg::SignalId z : stg_->circuit_driven_signals()) {
        slot[z] = result.per_signal.size();
        result.per_signal.emplace_back().signal = z;
        open_p[z / kWordBits] |= Word{1} << (z % kWordBits);
        open_n[z / kWordBits] |= Word{1} << (z % kWordBits);
    }
    const auto open = [&] {
        for (std::size_t w = 0; w < ncw; ++w)
            if (open_p[w] | open_n[w]) return true;
        return false;
    };

    for (const CodeRelation rel :
         {CodeRelation::LessEq, CodeRelation::GreaterEq}) {
        if (!open()) break;
        const bool less_eq = rel == CodeRelation::LessEq;
        obs::Span pass("solve.normalcy.pass");
        pass.attr("relation", less_eq ? "less_eq" : "greater_eq");
        CompatSolver solver(*problem_, opts);
        auto outcome = solver.solve(rel, [&](const LeafView& a,
                                             const LeafView& b) {
            const LeafView& lo = less_eq ? a : b;
            const LeafView& hi = less_eq ? b : a;
            bool violated = false;
            for (std::size_t w = 0; w < ncw; ++w) {
                // Nxt_z flips the code bit exactly when z is enabled.
                const Word nxt_lo =
                    lo.code.words()[w] ^ problem_->out_word(lo.places, w);
                const Word nxt_hi =
                    hi.code.words()[w] ^ problem_->out_word(hi.places, w);
                const Word p = nxt_lo & ~nxt_hi & open_p[w];
                const Word n = ~nxt_lo & nxt_hi & open_n[w];
                if ((p | n) == 0) continue;
                violated = true;
                open_p[w] &= ~p;
                open_n[w] &= ~n;
                for (Word bits = p | n; bits; bits &= bits - 1) {
                    const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
                    const auto z = static_cast<stg::SignalId>(w * kWordBits + b);
                    stg::SignalNormalcy& sn = result.per_signal[slot[z]];
                    if ((p >> b) & 1) {
                        sn.p_normal = false;
                        sn.p_violation = make_normalcy_witness(
                            *problem_, z, lo.config, hi.config);
                    }
                    if ((n >> b) & 1) {
                        sn.n_normal = false;
                        sn.n_violation = make_normalcy_witness(
                            *problem_, z, lo.config, hi.config);
                    }
                }
            }
            // Stop early only when no signal can still be classified normal.
            return violated && !open();
        });
        result.stats.add(outcome.stats);
    }
    result.normal =
        std::ranges::all_of(result.per_signal, &stg::SignalNormalcy::normal);
    return result;
}

stg::NormalcyResult UnfoldingChecker::check_normalcy(SearchOptions opts,
                                                     sched::Executor&) const {
    return check_normalcy(opts);
}

}  // namespace stgcc::core
