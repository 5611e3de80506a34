#include "core/verdict.hpp"

#include <string_view>

#include "stg/astg.hpp"

namespace stgcc::core {

namespace {

constexpr std::string_view kVerdictCacheTool = "verdict";

/// The one all-properties-hold predicate: the exit code, the row status,
/// stgbatch's tallies and stgd's batch summary all read it.
bool all_hold(const VerificationReport& r) {
    return r.consistent && r.usc.holds && r.csc.holds &&
           (!r.normalcy_checked || r.normalcy.normal) &&
           (!r.deadlock_checked || r.deadlock_free) &&
           (!r.persistency_checked || r.persistent);
}

std::string verdict_line(const VerificationReport& r) {
    if (!r.consistent) return "inconsistent (" + r.inconsistency_reason + ")";
    std::string out;
    out += r.usc.holds ? "USC:ok" : "USC:VIOLATED";
    out += r.csc.holds ? " CSC:ok" : " CSC:VIOLATED";
    if (r.normalcy_checked)
        out += r.normalcy.normal ? " normalcy:ok" : " normalcy:VIOLATED";
    if (r.deadlock_checked)
        out += r.deadlock_free ? " deadlock:none" : " deadlock:REACHABLE";
    if (r.persistency_checked)
        out += r.persistent ? " persistency:ok" : " persistency:VIOLATED";
    return out;
}

}  // namespace

RenderedVerdict render_verdict(const stg::Stg& model,
                               const VerificationReport& r) {
    RenderedVerdict out;
    out.all_hold = all_hold(r);
    out.verdict = verdict_line(r);
    out.report = format_report(model, r);
    if (r.deadlock_checked && !r.deadlock_free)
        out.deadlock_via =
            "deadlock via: " + model.sequence_text(r.deadlock_trace);
    out.json = report_json(model, r);
    out.json.set("jobs", r.jobs);
    // The row carries no "file" member: the model text is content-addressed,
    // so one cached row serves clients that know the model under different
    // paths; each prepends its own.
    obs::Json verdicts = obs::Json::object();
    verdicts.set("consistent", r.consistent);
    if (r.consistent) {
        verdicts.set("usc", r.usc.holds);
        verdicts.set("csc", r.csc.holds);
        if (r.normalcy_checked) verdicts.set("normalcy", r.normalcy.normal);
        if (r.deadlock_checked) verdicts.set("deadlock_free", r.deadlock_free);
    }
    out.row = obs::Json::object()
                  .set("name", model.name())
                  .set("status", out.all_hold ? "ok" : "violated")
                  .set("verdicts", std::move(verdicts))
                  .set("prefix", *out.json.find("prefix"));
    if (const obs::Json* reduction = out.json.find("reduction"))
        out.row.set("reduction", *reduction);
    return out;
}

obs::Json RenderedVerdict::to_json() const {
    obs::Json v = obs::Json::object()
                      .set("exit", exit_code())
                      .set("all_hold", all_hold)
                      .set("verdict", verdict)
                      .set("report", report);
    if (!deadlock_via.empty()) v.set("deadlock_via", deadlock_via);
    return v.set("row", row).set("json", json);
}

std::optional<RenderedVerdict> RenderedVerdict::from_json(const obs::Json& v) {
    const obs::Json* all_hold = v.find("all_hold");
    const obs::Json* verdict = v.find("verdict");
    const obs::Json* row = v.find("row");
    if (!all_hold || !verdict || !row) return std::nullopt;
    RenderedVerdict out;
    out.all_hold = all_hold->as_bool();
    out.verdict = verdict->as_string();
    out.row = *row;
    if (const obs::Json* text = v.find("report")) out.report = text->as_string();
    if (const obs::Json* dl = v.find("deadlock_via"))
        out.deadlock_via = dl->as_string();
    if (const obs::Json* json = v.find("json")) out.json = *json;
    return out;
}

std::string options_signature(const VerifyOptions& opts) {
    return std::string("v3;normalcy=") + (opts.check_normalcy ? "1" : "0") +
           ";deadlock=" + (opts.check_deadlock ? "1" : "0") +
           ";persistency=" + (opts.check_persistency ? "1" : "0");
}

std::optional<RenderedVerdict> load_verdict(const cache::ResultCache& rcache,
                                            std::uint64_t content_hash,
                                            const std::string& options_sig) {
    const auto hit = rcache.load(kVerdictCacheTool, content_hash, options_sig);
    return hit ? RenderedVerdict::from_json(*hit) : std::nullopt;
}

void store_verdict(const cache::ResultCache& rcache, std::uint64_t content_hash,
                   const std::string& options_sig,
                   const RenderedVerdict& verdict) {
    if (rcache.enabled())
        rcache.store(kVerdictCacheTool, content_hash, options_sig,
                     verdict.to_json());
}

RenderedVerdict verdict_cached(const std::string& model_text,
                               const VerifyOptions& opts,
                               const cache::ResultCache& rcache,
                               sched::Executor& ex) {
    const std::uint64_t hash = cache::fnv1a64(model_text);
    const std::string sig = options_signature(opts);
    if (auto hit = load_verdict(rcache, hash, sig)) return *std::move(hit);
    const stg::Stg model = stg::parse_astg_string(model_text);
    RenderedVerdict v = render_verdict(model, verify_stg(model, opts, ex));
    store_verdict(rcache, hash, sig, v);
    return v;
}

}  // namespace stgcc::core
