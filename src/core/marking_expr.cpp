#include "core/marking_expr.hpp"

#include <algorithm>
#include <map>

namespace stgcc::core {

MarkingExpressions::MarkingExpressions(const CodingProblem& problem) {
    const unf::Prefix& prefix = problem.prefix();
    const petri::Net& net = prefix.system().net();
    exprs_.resize(net.num_places());

    // Accumulate coefficients per (place, event).  Cut-off events are
    // pinned to zero, so they contribute nothing and are skipped.
    std::vector<std::map<std::uint32_t, int>> coefs(net.num_places());
    for (unf::ConditionId b = 0; b < prefix.num_conditions(); ++b) {
        const unf::Condition& cond = prefix.condition(b);
        const petri::PlaceId s = cond.place;
        if (cond.producer == unf::kNoEvent) {
            exprs_[s].constant += 1;
        } else if (!prefix.event(cond.producer).cutoff) {
            coefs[s][cond.producer] += 1;
        } else {
            // Produced by a cut-off event: never marked in the search space.
            continue;
        }
        for (unf::EventId f : cond.consumers)
            if (!prefix.event(f).cutoff) coefs[s][f] -= 1;
    }
    for (petri::PlaceId s = 0; s < net.num_places(); ++s)
        for (auto [var, coef] : coefs[s])
            if (coef != 0) exprs_[s].terms.push_back(LinearTerm{var, coef});
}

MarkingExpr MarkingExpressions::sum(const std::vector<petri::PlaceId>& places) const {
    MarkingExpr out;
    std::map<std::uint32_t, int> merged;
    for (petri::PlaceId s : places) {
        const MarkingExpr& e = place(s);
        out.constant += e.constant;
        for (const LinearTerm& t : e.terms) merged[t.var] += t.coef;
    }
    for (auto [var, coef] : merged)
        if (coef != 0) out.terms.push_back(LinearTerm{var, coef});
    return out;
}

int MarkingExpressions::evaluate(const MarkingExpr& expr, const BitVec& config) {
    int value = expr.constant;
    for (const LinearTerm& t : expr.terms)
        if (t.var < config.size() && config.test(t.var)) value += t.coef;
    return value;
}

}  // namespace stgcc::core
