// Caching benchmark (docs/CACHING.md):
//
//  * on-disk result cache: the Table 1 corpus is verified cold (every
//    model a miss: verify + store) and warm (every model a hit: hash +
//    load only).  The acceptance bar is a >= 1.3x warm speedup; in
//    practice hits skip verification entirely and the speedup is orders
//    of magnitude.  Cold and warm verdicts are compared while measuring.
//  * the USC=>CSC certificate: on every model whose USC holds, the
//    exhaustive clean USC pass answers CSC without a single search node.
//
// Writes BENCH_cache.json.
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cache/result_cache.hpp"
#include "core/checkers.hpp"
#include "core/verifier.hpp"
#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "util/stopwatch.hpp"

using namespace stgcc;

namespace {

namespace fs = std::filesystem;

/// One stgbatch-shaped pass over the suite: hash each model's .g text,
/// consult the result cache, verify on miss + store, count hits.
double run_corpus(const std::vector<stg::bench::NamedBenchmark>& suite,
                  const std::vector<std::string>& texts,
                  const cache::ResultCache& rcache, std::size_t& hits,
                  std::string& verdicts) {
    const std::string options = "bench_cache/1";
    hits = 0;
    verdicts.clear();
    Stopwatch timer;
    for (std::size_t i = 0; i < suite.size(); ++i) {
        const std::uint64_t hash = cache::fnv1a64(texts[i]);
        if (const auto hit = rcache.load("bench", hash, options)) {
            ++hits;
            verdicts += hit->as_string();
            continue;
        }
        const auto report = core::verify_stg(suite[i].stg, {});
        const std::string verdict = std::string(report.usc.holds ? "U" : "u") +
                                    (report.csc.holds ? "C" : "c") +
                                    (report.normalcy.normal ? "N;" : "n;");
        rcache.store("bench", hash, options, obs::Json(verdict));
        verdicts += verdict;
    }
    return timer.seconds();
}

}  // namespace

int main() {
    benchutil::BenchReport report("cache");

    // --- cold vs warm corpus through the on-disk result cache -------------
    const auto suite = stg::bench::table1_suite();
    std::vector<std::string> texts;
    for (const auto& named : suite)
        texts.push_back(stg::write_astg_string(named.stg));

    const fs::path cache_dir =
        fs::temp_directory_path() /
        ("stgcc_bench_cache_" + std::to_string(::getpid()));
    fs::remove_all(cache_dir);
    const cache::ResultCache rcache(cache_dir.string());

    std::size_t cold_hits = 0, warm_hits = 0;
    std::string cold_verdicts, warm_verdicts;
    const double cold =
        run_corpus(suite, texts, rcache, cold_hits, cold_verdicts);
    const double warm =
        run_corpus(suite, texts, rcache, warm_hits, warm_verdicts);
    fs::remove_all(cache_dir);

    const double speedup = warm > 0 ? cold / warm : 0;
    std::printf("Result cache, Table 1 corpus (%zu models)\n", suite.size());
    benchutil::rule(72);
    std::printf("  cold run: %8.3f s  (%zu hits)\n", cold, cold_hits);
    std::printf("  warm run: %8.3f s  (%zu hits)\n", warm, warm_hits);
    std::printf("  speedup:  %8.1fx %s\n\n", speedup,
                cold_verdicts == warm_verdicts ? "" : "  VERDICT MISMATCH");
    report.add_row(obs::Json::object()
                       .set("benchmark", "result_cache_corpus")
                       .set("models", suite.size())
                       .set("cold_seconds", cold)
                       .set("warm_seconds", warm)
                       .set("warm_hits", warm_hits)
                       .set("speedup", speedup)
                       .set("verdicts_identical",
                            cold_verdicts == warm_verdicts));

    // --- the USC=>CSC certificate -----------------------------------------
    std::printf("USC=>CSC certificate (clean USC pass answers CSC)\n");
    benchutil::rule(72);
    for (const auto& named : suite) {
        core::UnfoldingChecker checker(named.stg);
        if (!checker.check_usc().holds) continue;
        const auto csc = checker.check_csc();
        std::printf("  %-24s CSC %s in %zu nodes\n", named.name.c_str(),
                    csc.holds ? "holds" : "violated", csc.stats.search_nodes);
        report.add_row(obs::Json::object()
                           .set("benchmark", "usc_csc_certificate")
                           .set("model", named.name)
                           .set("csc_holds", csc.holds)
                           .set("csc_nodes_after_usc", csc.stats.search_nodes));
    }

    std::printf("\n");
    report.write();
    return 0;
}
