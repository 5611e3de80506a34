// stgcc -- one rendered verdict per STG, shared by every front end
// (docs/CACHING.md, docs/SERVICE.md).
//
// The checker gives one answer per STG: consistency, USC, CSC, normalcy and
// the optional deadlock / persistency checks, with witnesses.  stgcheck,
// stgbatch and stgd all show that answer, each in its own shape: stgcheck
// prints the multi-line report and exits 0/1, stgbatch streams a one-line
// verdict and writes a report row, `--json` writes a machine-readable body.
// A RenderedVerdict holds all of those renderings, computed once by
// render_verdict from one all-properties-hold predicate.
//
// The same record is the tier-3 result-cache payload.  It is stored under
// one tool tag ("verdict"), keyed by the FNV-1a hash of the model text and
// options_signature(), so a verdict cached by any of the three tools is
// warm for the other two.  stgd's `check` response carries the
// record's members verbatim.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "cache/result_cache.hpp"
#include "core/verifier.hpp"
#include "obs/json.hpp"

namespace stgcc::core {

struct RenderedVerdict {
    bool all_hold = false;     ///< every checked property holds
    std::string verdict;       ///< one-line verdict ("USC:ok CSC:VIOLATED ...")
    std::string report;        ///< multi-line report text (format_report)
    std::string deadlock_via;  ///< "deadlock via: ..." line, "" when none
    obs::Json row;             ///< stgbatch report row, minus "file"
    obs::Json json;            ///< `--json` body (no build / metrics keys)

    /// Exit code of a one-model run: 0 = all hold, 1 = a violation (an
    /// inconsistent STG is a violation too).
    [[nodiscard]] int exit_code() const noexcept { return all_hold ? 0 : 1; }

    /// {"exit","all_hold","verdict","report","deadlock_via"?,"row","json"}:
    /// the cache payload and the verdict members of a stgd check response.
    [[nodiscard]] obs::Json to_json() const;
    /// Inverse of to_json.  "all_hold", "verdict" and "row" are required;
    /// "report" and "json" may be absent (stgd's batch row frames omit
    /// them).  nullopt when a required member is missing.
    [[nodiscard]] static std::optional<RenderedVerdict> from_json(
        const obs::Json& v);
};

/// Render `report`, whose witnesses are expressed on `model`.
[[nodiscard]] RenderedVerdict render_verdict(const stg::Stg& model,
                                             const VerificationReport& report);

/// Options fragment of a verdict's cache key: the checker options that can
/// change a verdict ("v3;normalcy=1;deadlock=0;persistency=0").  Jobs,
/// unfolding and search settings are deliberately absent: verdicts do not
/// depend on them.
[[nodiscard]] std::string options_signature(const VerifyOptions& opts);

/// Tier-3 lookup / store of a rendered verdict.  Both are no-ops on a
/// disabled cache.
[[nodiscard]] std::optional<RenderedVerdict> load_verdict(
    const cache::ResultCache& rcache, std::uint64_t content_hash,
    const std::string& options_sig);
void store_verdict(const cache::ResultCache& rcache,
                   std::uint64_t content_hash, const std::string& options_sig,
                   const RenderedVerdict& verdict);

/// The whole per-model path of stgcheck and stgbatch: the cached verdict of
/// `model_text` when there is one, otherwise parse it, verify_stg on `ex`,
/// render and store.  Throws ModelError when the text does not parse or
/// verify.
[[nodiscard]] RenderedVerdict verdict_cached(const std::string& model_text,
                                             const VerifyOptions& opts,
                                             const cache::ResultCache& rcache,
                                             sched::Executor& ex);

}  // namespace stgcc::core
