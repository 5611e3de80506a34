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
    obs::counter("cache.artifacts.built").add();
    span.attr("dense_events", problem_->size());
}

const core::CodingProblem& PrefixArtifacts::problem() const {
    if (!problem_)
        throw ModelError("STG '" + stg_->name() +
                         "' is inconsistent: " + consistency_.reason);
    return *problem_;
}

}  // namespace stgcc::cache
