// The paper's experiments, one table each:
//
//   vme        Fig. 1(b) and Fig. 2 on the VME bus controller: the CSC
//              conflict on code 10110 with Out = {d} vs Out = {lds}, and
//              the unfolding prefix (12 events, 1 cut-off).
//   normalcy   Fig. 3 (section 6): the CSC-resolved VME controller is free
//              from coding conflicts, yet csc = dsr (csc + !ldtack) is
//              neither p- nor n-normal; then normalcy across the suite.
//   table1     Table 1: net and prefix sizes, and the state-based baseline
//              ("Pfy", a Petrify-style exhaustive method) against the
//              unfolding + IP checker ("CLP", this library's CompatSolver),
//              each the fastest of benchutil::kReps fresh runs; then where
//              CLP's time goes: parsing the row's .g text, unfolding, the
//              prefix artifacts and the USC + CSC search.
//   unfolding  Prefix sizes against net sizes on the Table 1 suite, and the
//              ERV total adequate order against McMillan's size order.
//   scalable   Section 8's memory argument: the state space explodes while
//              the prefix (and the O(|E|) IP working memory) grows linearly.
//   ablation   Section 4 (generic 0-1 branch-and-bound vs the partial-order
//              aware search) and section 7 (the conflict-free optimisation).
//   deadlock   Extension: the section 5 prefix + linear-constraint deadlock
//              check against explicit states.
//   resolve    Extension: automatic CSC resolution on the conflict rows.
//
// Usage: bench_paper [TABLE...].  With no names every table runs, in the
// order above; an unknown name prints the list and exits 2.  A failed
// reproduction assertion exits 1.  The table1 and unfolding rows are written
// to BENCH_paper.json, each tagged with its "table".
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "cache/prefix_artifacts.hpp"
#include "core/checkers.hpp"
#include "core/extended_checks.hpp"
#include "core/resolver.hpp"
#include "ilp/encodings.hpp"
#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "stg/builder.hpp"
#include "stg/state_checks.hpp"
#include "unfolding/unfolder.hpp"

using namespace stgcc;

namespace {

using benchutil::check;
using benchutil::fmt_time;
using benchutil::rule;

std::string indexed(const char* stem, std::size_t i) {
    std::string s = stem;
    s += std::to_string(i);
    return s;
}

// ---------------------------------------------------------------------------
// "State graph, then unfolding+IP" rows (table1, scalable, deadlock)

/// The explicit baseline of one row: the state graph's size (nullopt: a
/// blow-up) and what `on_sg` answered on it.
struct Baseline {
    std::optional<std::size_t> states;
    bool found = false;
};

/// One row: the explicit baseline builds the state graph (a blow-up past
/// `state_cap` states) and runs `on_sg` on it; then the prefix method runs
/// `run_ip` from scratch, prefix construction included.  Each side is timed
/// on its own, fastest of `reps`.
template <typename OnSg, typename RunIp>
auto sg_then_ip(const stg::Stg& model, std::size_t state_cap, int reps,
                OnSg on_sg, RunIp run_ip) {
    const auto sg = benchutil::fastest(reps, [&] {
        Baseline b;
        if (auto g = benchutil::try_state_graph(model, state_cap))
            b = {g->num_states(), on_sg(*g)};
        return b;
    });
    return std::pair{sg, benchutil::fastest(reps, run_ip)};
}

bool sg_conflict(const stg::StateGraph& sg) {
    return !stg::check_usc_sg(sg).holds || !stg::check_csc_sg(sg).holds;
}

/// USC then CSC on a fresh prefix, so no USC=>CSC certificate carries over
/// from an earlier run.
struct Clp {
    std::size_t B = 0, E = 0, Ec = 0;
    bool usc = false, csc = false;
    stg::CheckStats usc_stats, csc_stats;
    bool conflict() const { return !usc || !csc; }
};

Clp run_clp(const stg::Stg& model) {
    core::UnfoldingChecker checker(model);
    const auto usc = checker.check_usc();
    const auto csc = checker.check_csc();
    return Clp{checker.prefix().num_conditions(),
               checker.prefix().num_events(),
               checker.prefix().num_cutoffs(),
               usc.holds,
               csc.holds,
               usc.stats,
               csc.stats};
}

/// Where CLP's time goes on one row, each phase the fastest of `reps`
/// sequential runs: parsing the row's .g text (part of every stgcheck
/// verdict), unfolding, the prefix artifacts (consistency analysis and
/// coding problem) and the USC + CSC search on them.
struct ClpPhases {
    double parse = 0, unfold = 0, artifacts = 0, search = 0;
};

ClpPhases clp_phases(const stg::Stg& model, int reps) {
    const std::string text = stg::write_astg_string(model);
    ClpPhases best;
    for (int r = 0; r < reps; ++r) {
        Stopwatch w;
        const stg::Stg parsed = stg::parse_astg_string(text);
        const double parse = w.lap();
        unf::Prefix prefix = unf::unfold(model.system());
        const double unfold = w.lap();
        auto artifacts = std::make_shared<const cache::PrefixArtifacts>(
            model, std::move(prefix));
        const double build = w.lap();
        core::UnfoldingChecker checker(std::move(artifacts));
        (void)checker.check_usc();
        (void)checker.check_csc();
        const double search = w.lap();
        check(parsed.net().num_transitions() == model.net().num_transitions(),
              "a Table 1 row must round-trip through its .g text");
        if (r == 0 || parse < best.parse) best.parse = parse;
        if (r == 0 || unfold < best.unfold) best.unfold = unfold;
        if (r == 0 || build < best.artifacts) best.artifacts = build;
        if (r == 0 || search < best.search) best.search = search;
    }
    return best;
}

obs::Json counts(const stg::CheckStats& s) {
    return obs::Json::object()
        .set("search_nodes", s.search_nodes)
        .set("leaves", s.leaves);
}

// ---------------------------------------------------------------------------
// Tables

void vme(benchutil::BenchReport&) {
    auto model = stg::bench::vme_bus();
    core::UnfoldingChecker checker(model);
    const auto& prefix = checker.prefix();

    std::printf("Fig. 2 -- unfolding prefix of the VME bus controller:\n");
    std::printf("  |B| = %zu conditions, |E| = %zu events, |Ec| = %zu cut-off\n",
                prefix.num_conditions(), prefix.num_events(),
                prefix.num_cutoffs());
    check(prefix.num_events() == 12 && prefix.num_cutoffs() == 1,
          "prefix must have 12 events with 1 cut-off (paper Fig. 2)");

    auto csc = checker.check_csc();
    check(!csc.holds, "VME must have a CSC conflict (paper Fig. 1b)");
    const auto& w = *csc.witness;

    // The paper prints the code in the order dsr, dtack, lds, ldtack, d.
    auto paper_code = [&](const stg::Code& code) {
        std::string s;
        for (const char* name : {"dsr", "dtack", "lds", "ldtack", "d"})
            s += code.test(model.find_signal(name)) ? '1' : '0';
        return s;
    };
    std::printf("\nFig. 1(b) -- CSC conflict:\n");
    std::printf("  shared code (paper order dsr,dtack,lds,ldtack,d): %s\n",
                paper_code(w.code).c_str());
    std::printf("  C'  (x'):  %s\n", model.sequence_text(w.trace1).c_str());
    std::printf("  C'' (x''): %s\n", model.sequence_text(w.trace2).c_str());
    check(paper_code(w.code) == "10110", "conflict code must be 10110");
    check(w.out1.count() == 1 && w.out2.count() == 1,
          "both Out sets are singletons ({d} vs {lds})");
    std::printf("  Out(M')  = {%s}, Out(M'') = {%s}\n",
                model.signal_name(static_cast<stg::SignalId>(w.out1.find_first()))
                    .c_str(),
                model.signal_name(static_cast<stg::SignalId>(w.out2.find_first()))
                    .c_str());
    std::printf("\nFig. 1/2 reproduced OK.\n\n");
}

void normalcy(benchutil::BenchReport&) {
    auto model = stg::bench::vme_bus_csc_resolved();
    core::UnfoldingChecker checker(model);
    check(checker.check_usc().holds, "resolved VME must satisfy USC");
    check(checker.check_csc().holds, "resolved VME must satisfy CSC");
    auto n = checker.check_normalcy();
    check(!n.normal, "normalcy must be violated (paper Fig. 3)");

    std::printf("Fig. 3 -- normalcy of the CSC-resolved VME bus controller:\n");
    for (const auto& sn : n.per_signal) {
        const std::string name = model.signal_name(sn.signal);
        std::printf("  %-6s : %s\n", name.c_str(),
                    sn.p_normal && sn.n_normal ? "p-normal and n-normal"
                    : sn.p_normal              ? "p-normal"
                    : sn.n_normal              ? "n-normal"
                                               : "NOT normal");
        if (name == "csc") {
            check(!sn.p_normal && !sn.n_normal,
                  "csc must be neither p- nor n-normal");
        } else {
            check(sn.normal(), "real outputs must be normal");
        }
    }
    std::printf("Fig. 3 reproduced OK (csc = dsr (csc + !ldtack) is "
                "non-monotonic).\n\n");

    std::printf("Normalcy check across the suite (unfolding+IP, both "
                "orientations of (5)):\n\n");
    std::printf("  %-16s | %7s | %9s | %10s | %s\n", "model", "normal",
                "time", "nodes", "non-normal signals");
    rule(76);
    std::vector<std::pair<std::string, stg::Stg>> suite;
    suite.emplace_back("VME", stg::bench::vme_bus());
    suite.emplace_back("VME-CSC", stg::bench::vme_bus_csc_resolved());
    suite.emplace_back("JOHNSON-4", stg::bench::johnson_counter(4));
    suite.emplace_back("MULLER-3", stg::bench::muller_pipeline(3));
    suite.emplace_back("DUP-COD-1", stg::bench::duplex_channel(1, true));
    suite.emplace_back("CF-SYM-A", stg::bench::counterflow(2, true));
    for (const auto& [name, m] : suite) {
        core::UnfoldingChecker suite_checker(m);
        Stopwatch t;
        auto r = suite_checker.check_normalcy();
        std::string bad;
        for (const auto& sn : r.per_signal)
            if (!sn.normal()) bad += m.signal_name(sn.signal) + " ";
        std::printf("  %-16s | %7s | %9s | %10zu | %s\n", name.c_str(),
                    r.normal ? "yes" : "NO", fmt_time(t.seconds()).c_str(),
                    r.stats.search_nodes, bad.c_str());
    }
    rule(76);
    std::printf("\n");
}

void table1(benchutil::BenchReport& report) {
    std::printf("Table 1: coding-conflict detection on the benchmark suite\n");
    std::printf("('Pfy' = state-based baseline incl. state-graph construction; "
                "'CLP' = unfolding+IP incl. prefix construction)\n\n");
    std::printf("%-16s %4s %4s %3s | %5s %5s %4s | %8s | %9s %9s | %-9s %8s\n",
                "Problem", "S", "T", "Z", "B", "E", "Ec", "states", "Pfy",
                "CLP", "verdict", "nodes");
    rule(108);
    std::vector<std::pair<std::string, ClpPhases>> phases;
    for (const auto& nb : stg::bench::table1_suite()) {
        const auto [sg, ip] =
            sg_then_ip(nb.stg, 5'000'000, benchutil::kReps, sg_conflict,
                       [&] { return run_clp(nb.stg); });
        const Clp& c = ip.value;
        check(!sg.value.states || sg.value.found == c.conflict(),
              "Pfy and CLP must agree on every Table 1 verdict");
        const std::size_t S = nb.stg.net().num_places();
        const std::size_t T = nb.stg.net().num_transitions();
        const std::size_t Z = nb.stg.num_signals();
        const std::size_t states = sg.value.states.value_or(0);
        std::printf("%-16s %4zu %4zu %3zu | %5zu %5zu %4zu | %8zu | %9s %9s | "
                    "%-9s %8zu\n",
                    nb.name.c_str(), S, T, Z, c.B, c.E, c.Ec, states,
                    fmt_time(sg.seconds).c_str(), fmt_time(ip.seconds).c_str(),
                    c.conflict() ? "conflict" : "CSC-free",
                    c.usc_stats.search_nodes + c.csc_stats.search_nodes);
        const ClpPhases split = clp_phases(nb.stg, benchutil::kReps);
        phases.emplace_back(nb.name, split);
        report.add_row(
            obs::Json::object()
                .set("table", "table1")
                .set("model", nb.name)
                .set("net", obs::Json::object()
                                .set("places", S)
                                .set("transitions", T)
                                .set("signals", Z))
                .set("prefix", obs::Json::object()
                                   .set("conditions", c.B)
                                   .set("events", c.E)
                                   .set("cutoffs", c.Ec))
                .set("states", states)
                .set("state_based_seconds", sg.seconds)
                .set("unfolding_ip_seconds", ip.seconds)
                .set("usc", counts(c.usc_stats))
                .set("csc", counts(c.csc_stats))
                .set("verdict", c.conflict() ? "conflict" : "csc-free")
                .set("phases", obs::Json::object()
                                   .set("parse_seconds", split.parse)
                                   .set("unfold_seconds", split.unfold)
                                   .set("artifacts_seconds", split.artifacts)
                                   .set("search_seconds", split.search)));
    }
    rule(108);
    std::printf("\nWhere CLP's time goes (each phase the fastest of %d; "
                "parse is of the row's .g text)\n\n",
                benchutil::kReps);
    std::printf("%-16s | %9s %9s %9s %9s\n", "Problem", "parse", "unfold",
                "artifacts", "search");
    rule(60);
    for (const auto& [name, p] : phases)
        std::printf("%-16s | %9s %9s %9s %9s\n", name.c_str(),
                    fmt_time(p.parse).c_str(), fmt_time(p.unfold).c_str(),
                    fmt_time(p.artifacts).c_str(), fmt_time(p.search).c_str());
    rule(60);
    std::printf("\n");
}

/// The textbook McMillan-blowup gadget: a chain of n reconverging choice
/// diamonds p_i -> (u_i | v_i) -> p_{i+1}.  After each diamond the two
/// branches rejoin on the same marking with equal configuration sizes, so
/// McMillan's strict-size criterion cuts neither branch and the prefix
/// doubles per stage, while the ERV total order keeps one event per
/// marking.
petri::NetSystem choice_chain(int n) {
    petri::Net net;
    std::vector<petri::PlaceId> p;
    for (int i = 0; i <= n; ++i) p.push_back(net.add_place(indexed("p", i)));
    for (int i = 0; i < n; ++i) {
        const auto u = net.add_transition(indexed("u", i));
        const auto v = net.add_transition(indexed("v", i));
        net.add_arc_pt(p[i], u);
        net.add_arc_pt(p[i], v);
        net.add_arc_tp(u, p[i + 1]);
        net.add_arc_tp(v, p[i + 1]);
    }
    petri::Marking m0(net.num_places());
    m0.set(p[0], 1);
    return petri::NetSystem(std::move(net), std::move(m0));
}

void unfolding(benchutil::BenchReport& report) {
    std::printf("Prefix sizes on the Table 1 suite (|E| vs |T|: the paper's "
                "'prefixes are\nnot much bigger than the STGs themselves'):\n\n");
    std::printf("  %-16s | %4s %4s | %5s %5s %4s | %6s | %9s\n", "model", "S",
                "T", "B", "E", "Ec", "E/T", "time");
    rule(72);
    for (const auto& nb : stg::bench::table1_suite()) {
        Stopwatch t;
        auto prefix = unf::unfold(nb.stg.system());
        const double seconds = t.seconds();
        std::printf("  %-16s | %4zu %4zu | %5zu %5zu %4zu | %6.2f | %9s\n",
                    nb.name.c_str(), nb.stg.net().num_places(),
                    nb.stg.net().num_transitions(), prefix.num_conditions(),
                    prefix.num_events(), prefix.num_cutoffs(),
                    static_cast<double>(prefix.num_events()) /
                        static_cast<double>(nb.stg.net().num_transitions()),
                    fmt_time(seconds).c_str());
        report.add_row(obs::Json::object()
                           .set("table", "unfolding")
                           .set("model", nb.name)
                           .set("conditions", prefix.num_conditions())
                           .set("events", prefix.num_events())
                           .set("cutoffs", prefix.num_cutoffs())
                           .set("seconds", seconds));
    }
    rule(72);
    std::printf("\n");

    std::printf("Adequate-order ablation: ERV total order vs McMillan size "
                "order (prefix events):\n\n");
    std::printf("  %-16s | %8s | %10s | %s\n", "model", "ERV |E|",
                "McMillan", "ratio");
    rule(56);
    std::vector<std::pair<std::string, petri::NetSystem>> systems;
    systems.emplace_back("VME", stg::bench::vme_bus().system());
    systems.emplace_back("LAZYRING", stg::bench::token_ring(2).system());
    systems.emplace_back("RING", stg::bench::token_ring(4).system());
    systems.emplace_back("PAR-6", stg::bench::parallel_handshakes(6).system());
    systems.emplace_back("MULLER-8", stg::bench::muller_pipeline(8).system());
    systems.emplace_back("CF-SYM-C", stg::bench::counterflow(4, true).system());
    for (int n : {4, 8, 12})
        systems.emplace_back(indexed("CHOICE-CHAIN-", n), choice_chain(n));
    for (const auto& [name, sys] : systems) {
        unf::UnfoldOptions erv, mcm;
        mcm.order = unf::AdequateOrder::McMillanSize;
        const std::size_t e1 = unf::unfold(sys, erv).num_events();
        const std::size_t e2 = unf::unfold(sys, mcm).num_events();
        std::printf("  %-16s | %8zu | %10zu | %.2fx\n", name.c_str(), e1, e2,
                    static_cast<double>(e2) / static_cast<double>(e1));
    }
    rule(56);
    std::printf("\n");
}

void series(const char* name, stg::Stg (*make)(int), const std::vector<int>& ns,
            std::size_t state_cap) {
    std::printf("%s:\n", name);
    std::printf("  %4s | %9s | %5s %5s %4s | %9s %9s | %s\n", "n", "states",
                "B", "E", "Ec", "sg-time", "ip-time", "verdict");
    rule(80);
    for (int n : ns) {
        const auto model = make(n);
        const auto [sg, ip] = sg_then_ip(
            model, state_cap, 1, [](const stg::StateGraph&) { return false; },
            [&] { return run_clp(model); });
        const auto& states = sg.value.states;
        const Clp& c = ip.value;
        std::printf("  %4d | %9s | %5zu %5zu %4zu | %9s %9s | %s\n", n,
                    states ? std::to_string(*states).c_str()
                           : indexed(">", state_cap).c_str(),
                    c.B, c.E, c.Ec,
                    states ? fmt_time(sg.seconds).c_str() : "blow-up",
                    fmt_time(ip.seconds).c_str(),
                    c.conflict() ? "conflict" : "CSC-free");
    }
    rule(80);
    std::printf("\n");
}

void scalable(benchutil::BenchReport&) {
    std::printf("Prefix growth vs state-space explosion (paper section 8: the "
                "IP method\nuses O(|E|) memory beside the prefix; the baseline "
                "must materialise all states)\n\n");
    series("PAR(n) -- parallel handshakes", stg::bench::parallel_handshakes,
           {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2'000'000);
    series("MULLER(n) -- C-element pipeline", stg::bench::muller_pipeline,
           {1, 2, 4, 6, 8, 10, 12, 14}, 2'000'000);
    series("SEQ(n) -- sequential handshakes (conflict present)",
           stg::bench::sequential_handshakes, {2, 4, 8, 16, 32}, 2'000'000);
    series("MUTEX(n) -- arbiter (conflict-free with choices: section 7 "
           "optimisation inapplicable)",
           stg::bench::mutex_arbiter, {1, 2, 3, 4, 5, 6}, 2'000'000);
}

void ablation(benchutil::BenchReport&) {
    std::printf("Ablation 1: partial-order-aware search vs generic 0-1 "
                "branch-and-bound\n(same constraint system; generic solver "
                "capped at 2M nodes)\n\n");
    std::printf("  %-14s | %9s %10s | %10s %12s\n", "model", "compat", "nodes",
                "generic", "nodes");
    rule(72);
    std::vector<std::pair<std::string, stg::Stg>> models;
    models.emplace_back("VME", stg::bench::vme_bus());
    models.emplace_back("SEQ-3", stg::bench::sequential_handshakes(3));
    models.emplace_back("LAZYRING", stg::bench::token_ring(2));
    models.emplace_back("DUP-4PH-A", stg::bench::duplex_channel(1, false));
    models.emplace_back("JOHNSON-4", stg::bench::johnson_counter(4));
    models.emplace_back("PAR-3", stg::bench::parallel_handshakes(3));
    models.emplace_back("MULLER-3", stg::bench::muller_pipeline(3));
    models.emplace_back("CF-SYM-A", stg::bench::counterflow(2, true));
    for (const auto& [name, model] : models) {
        auto prefix = unf::unfold(model.system());

        Stopwatch ct;
        core::UnfoldingChecker checker(model, unf::unfold(model.system()));
        auto compat = checker.check_usc();
        const double compat_s = ct.seconds();

        std::string generic_time = "timeout", generic_nodes = "-";
        try {
            Stopwatch gt;
            ilp::GenericCheckOptions gopts;
            gopts.max_nodes = 2'000'000;
            auto generic = ilp::check_usc_generic(model, prefix, gopts);
            generic_time = fmt_time(gt.seconds());
            generic_nodes = std::to_string(generic.stats.search_nodes);
            check(generic.holds == compat.holds,
                  "generic and compat solvers must agree on USC");
        } catch (const ModelError&) {
            // node cap hit: exactly the paper's point.
        }
        std::printf("  %-14s | %9s %10zu | %10s %12s\n", name.c_str(),
                    fmt_time(compat_s).c_str(), compat.stats.search_nodes,
                    generic_time.c_str(), generic_nodes.c_str());
    }
    rule(72);
    std::printf("\n");

    std::printf("Ablation 2: section 7 conflict-free optimisation "
                "(search nodes to prove CSC-freeness)\n\n");
    std::printf("  %-14s | %12s | %12s | %s\n", "model", "opt on", "opt off",
                "speedup");
    rule(64);
    models.clear();
    models.emplace_back("MULLER-4", stg::bench::muller_pipeline(4));
    models.emplace_back("MULLER-6", stg::bench::muller_pipeline(6));
    models.emplace_back("PAR-4", stg::bench::parallel_handshakes(4));
    models.emplace_back("CF-SYM-B", stg::bench::counterflow(3, true));
    models.emplace_back("CF-SYM-C", stg::bench::counterflow(4, true));
    for (const auto& [name, model] : models) {
        core::UnfoldingChecker checker(model);
        core::SearchOptions on, off;
        off.use_conflict_free_optimisation = false;
        const std::size_t n_on = checker.check_usc(on).stats.search_nodes;
        const std::size_t n_off = checker.check_usc(off).stats.search_nodes;
        std::printf("  %-14s | %12zu | %12zu | %.2fx\n", name.c_str(), n_on,
                    n_off,
                    static_cast<double>(n_off) /
                        static_cast<double>(n_on ? n_on : 1));
    }
    rule(64);
    std::printf("\n");
}

/// n parallel one-shot handshakes: the unique global deadlock sits at the
/// very "end" of a 4^n-ish state space, while the prefix stays linear.
stg::Stg par_with_deadlock(int n) {
    stg::StgBuilder b(indexed("par-dead-", n));
    for (int i = 1; i <= n; ++i) {
        const std::string r = indexed("r", i), a = indexed("a", i);
        const std::string go = indexed("go", i), stop = indexed("stop", i);
        b.input(r).output(a);
        b.place(go, 1);
        b.place(stop);
        b.arc(go, r + "+");
        b.arc(r + "+", a + "+");
        b.arc(a + "+", r + "-");
        b.arc(r + "-", a + "-");
        b.arc(a + "-", stop);
    }
    return b.build();
}

void deadlock(benchutil::BenchReport&) {
    std::printf("Deadlock checking: prefix + linear constraints (section 5) "
                "vs explicit states\n\n");
    std::printf("  %-14s | %9s | %5s | %9s %9s | %s\n", "model", "states", "E",
                "sg-time", "ip-time", "verdict");
    rule(72);
    std::vector<std::pair<std::string, stg::Stg>> models;
    models.emplace_back("VME", stg::bench::vme_bus());
    models.emplace_back("RING", stg::bench::token_ring(4));
    models.emplace_back("MULLER-10", stg::bench::muller_pipeline(10));
    models.emplace_back("PAR-8", stg::bench::parallel_handshakes(8));
    models.emplace_back("PAR-DEAD-4", par_with_deadlock(4));
    models.emplace_back("PAR-DEAD-8", par_with_deadlock(8));
    struct Deadlock {
        std::size_t events = 0;
        bool found = false;
    };
    for (const auto& [name, model] : models) {
        const auto [sg, ip] = sg_then_ip(
            model, 5'000'000, 1,
            [](const stg::StateGraph& g) {
                return !g.graph().deadlocks().empty();
            },
            [&] {
                auto prefix = unf::unfold(model.system());
                core::CodingProblem problem(model, prefix);
                return Deadlock{prefix.num_events(),
                                core::check_deadlock(problem).found};
            });
        check(!sg.value.states || sg.value.found == ip.value.found,
              "deadlock check must agree with the state graph");
        std::printf("  %-14s | %9zu | %5zu | %9s %9s | %s\n", name.c_str(),
                    sg.value.states.value_or(0), ip.value.events,
                    fmt_time(sg.seconds).c_str(), fmt_time(ip.seconds).c_str(),
                    ip.value.found ? "DEADLOCK" : "live");
    }
    rule(72);
    std::printf("\n");
}

void resolve(benchutil::BenchReport&) {
    std::printf("Automatic CSC resolution on the conflict-carrying rows\n\n");
    std::printf("  %-16s | %3s | %8s | %9s | %s\n", "model", "Z", "signals",
                "time", "verdict after repair");
    rule(72);
    std::vector<std::pair<std::string, stg::Stg>> models;
    models.emplace_back("VME", stg::bench::vme_bus());
    models.emplace_back("LAZYRING", stg::bench::token_ring(2));
    models.emplace_back("DUP-4PH-A", stg::bench::duplex_channel(1, false));
    models.emplace_back("DUP-4PH-MTR-A",
                        stg::bench::duplex_channel(1, false, true));
    models.emplace_back("ENVELOPE-1", stg::bench::phase_envelope(1));
    models.emplace_back("ENVELOPE-2", stg::bench::phase_envelope(2));
    for (const auto& [name, model] : models) {
        Stopwatch t;
        core::ResolutionResult result;
        std::string verdict;
        try {
            result = core::resolve_csc(model);
            if (result.resolved) {
                core::UnfoldingChecker checker(result.stg);
                verdict = checker.check_csc().holds ? "CSC holds"
                                                    : "INTERNAL ERROR";
            } else {
                verdict = "unresolved (budget)";
            }
        } catch (const ModelError& ex) {
            verdict = std::string("error: ") + ex.what();
        }
        std::printf("  %-16s | %3zu | %8zu | %9s | %s\n", name.c_str(),
                    model.num_signals(), result.steps.size(),
                    fmt_time(t.seconds()).c_str(), verdict.c_str());
        check(verdict != "INTERNAL ERROR",
              "a resolved STG must satisfy CSC");
    }
    rule(72);
    std::printf("\n");
}

struct Table {
    const char* name;
    void (*run)(benchutil::BenchReport&);
};

constexpr Table kTables[] = {
    {"vme", vme},           {"normalcy", normalcy},
    {"table1", table1},     {"unfolding", unfolding},
    {"scalable", scalable}, {"ablation", ablation},
    {"deadlock", deadlock}, {"resolve", resolve},
};

}  // namespace

int main(int argc, char** argv) {
    std::vector<const Table*> selected;
    for (int i = 1; i < argc; ++i) {
        const Table* found = nullptr;
        for (const Table& t : kTables)
            if (std::strcmp(argv[i], t.name) == 0) found = &t;
        if (!found) {
            std::fprintf(stderr, "bench_paper: unknown table '%s'; tables:",
                         argv[i]);
            for (const Table& t : kTables) std::fprintf(stderr, " %s", t.name);
            std::fprintf(stderr, "\n");
            return 2;
        }
        selected.push_back(found);
    }
    if (selected.empty())
        for (const Table& t : kTables) selected.push_back(&t);

    benchutil::BenchReport report("paper");
    for (const Table* t : selected) t->run(report);
    if (!report.empty()) report.write();
    return 0;
}
