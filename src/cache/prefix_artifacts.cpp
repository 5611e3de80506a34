#include "cache/prefix_artifacts.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stgcc::cache {

PrefixArtifacts::PrefixArtifacts(const stg::Stg& stg, unf::UnfoldOptions opts)
    : stg_(&stg), prefix_(unf::unfold(stg.system(), opts)) {
    build();
}

PrefixArtifacts::PrefixArtifacts(const stg::Stg& stg, unf::Prefix prefix)
    : stg_(&stg), prefix_(std::move(prefix)) {
    build();
}

PrefixArtifacts::PrefixArtifacts(std::shared_ptr<const stg::Stg> stg,
                                 unf::UnfoldOptions opts)
    : owned_stg_(std::move(stg)),
      stg_(owned_stg_.get()),
      prefix_(unf::unfold(stg_->system(), opts)) {
    build();
}

void PrefixArtifacts::build() {
    obs::Span span("artifacts");
    const std::size_t n = prefix_.num_events();

    // Co-relation rows: co(e) = E \ ([e] | successors(e) | conflicts(e)).
    // Both [e] and successors(e) contain e, so the diagonal is clear.
    co_rows_ = util::BitMatrix(arena_, n, n);
    for (unf::EventId e = 0; e < n; ++e) {
        MutBitSpan row = co_rows_.mut_row(e);
        row.set_all();
        row.subtract(prefix_.local_config(e));
        row.subtract(prefix_.successors(e));
        row.subtract(prefix_.conflicts(e));
    }

    {
        obs::Span cspan("consistency");
        consistency_ = unf::analyze_consistency(*stg_, prefix_, co_rows_);
    }
    span.attr("consistent", consistency_.consistent);
    if (!consistency_.consistent) return;

    problem_ = std::make_unique<core::CodingProblem>(*stg_, prefix_, consistency_);
    const std::size_t q = problem_->size();

    // Condition masks for marking_of_dense.
    const std::size_t nb = prefix_.num_conditions();
    min_mask_ = BitVec(nb);
    for (unf::ConditionId b : prefix_.min_conditions()) min_mask_.set(b);
    pre_masks_ = util::BitMatrix(arena_, q, nb);
    post_masks_ = util::BitMatrix(arena_, q, nb);
    for (std::size_t i = 0; i < q; ++i) {
        const unf::Event& ev = prefix_.event(problem_->event_of(i));
        for (unf::ConditionId b : ev.preset) pre_masks_.set(i, b);
        for (unf::ConditionId b : ev.postset) post_masks_.set(i, b);
    }

    obs::counter("cache.artifacts.built").add();
    obs::gauge("mem.arena_bytes")
        .set(static_cast<std::int64_t>(util::Arena::process_live_bytes()));
    obs::gauge("mem.arena_peak_bytes")
        .set(static_cast<std::int64_t>(util::Arena::process_peak_bytes()));
    span.attr("dense_events", q);
}

const core::CodingProblem& PrefixArtifacts::problem() const {
    if (!problem_)
        throw ModelError("STG '" + stg_->name() +
                         "' is inconsistent: " + consistency_.reason);
    return *problem_;
}

petri::Marking PrefixArtifacts::marking_of_dense(const BitVec& dense) const {
    STGCC_ASSERT(problem_ != nullptr);
    BitVec cut = min_mask_;
    dense.for_each([&](std::size_t i) { cut |= post_masks_.row(i); });
    dense.for_each([&](std::size_t i) { cut.subtract(pre_masks_.row(i)); });
    petri::Marking m(prefix_.system().net().num_places());
    cut.for_each([&](std::size_t b) {
        m.add(prefix_.condition(static_cast<unf::ConditionId>(b)).place);
    });
    return m;
}

}  // namespace stgcc::cache
