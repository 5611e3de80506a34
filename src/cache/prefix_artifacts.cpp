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
    {
        obs::Span cspan("consistency");
        consistency_ = unf::analyze_consistency(*stg_, prefix_);
    }
    span.attr("consistent", consistency_.consistent);
    if (!consistency_.consistent) return;

    problem_ = std::make_unique<core::CodingProblem>(*stg_, prefix_, consistency_);
    const std::size_t q = problem_->size();

    // Leaf-predicate tables.
    const petri::Net& net = stg_->net();
    const std::size_t np = net.num_places();
    initial_places_ = BitVec(np);
    const petri::Marking& m0 = prefix_.system().initial_marking();
    for (petri::PlaceId p = 0; p < np; ++p)
        if (m0[p] != 0) initial_places_.set(p);
    place_flows_ = util::BitMatrix(arena_, q, np);
    for (std::size_t i = 0; i < q; ++i) {
        const petri::TransitionId t = prefix_.event(problem_->event_of(i)).transition;
        MutBitSpan row = place_flows_.mut_row(i);
        for (petri::PlaceId p : net.pre(t)) row.set(p);
        for (petri::PlaceId p : net.post(t))
            row.test(p) ? row.reset(p) : row.set(p);  // self-loops cancel
    }
    std::vector<petri::TransitionId> outs;
    for (petri::TransitionId t = 0; t < net.num_transitions(); ++t) {
        const stg::SignalId z = stg_->label(t).signal;
        if (!stg::is_circuit_driven(stg_->signal_kind(z))) continue;
        outs.push_back(t);
        out_signal_.push_back(z);
    }
    out_presets_ = util::BitMatrix(arena_, outs.size(), np);
    for (std::size_t k = 0; k < outs.size(); ++k)
        for (petri::PlaceId p : net.pre(outs[k])) out_presets_.set(k, p);

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

void PrefixArtifacts::leaf_places(BitSpan dense, LeafState& s) const {
    STGCC_ASSERT(problem_ != nullptr);
    s.places = initial_places_;
    dense.for_each([&](std::size_t i) { s.places ^= place_flows_.row(i); });
}

void PrefixArtifacts::leaf_state(BitSpan dense, LeafState& s) const {
    leaf_places(dense, s);
    const std::size_t nz = stg_->num_signals();
    if (s.out.size() != nz)
        s.out = BitVec(nz);
    else
        s.out.clear();
    for (std::size_t k = 0; k < out_signal_.size(); ++k)
        if (!s.out.test(out_signal_[k]) && out_presets_.row(k).subset_of(s.places))
            s.out.set(out_signal_[k]);
    problem_->code_of(dense, s.code);
}

}  // namespace stgcc::cache
