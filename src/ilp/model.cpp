#include "ilp/model.hpp"

namespace stgcc::ilp {

VarId Model::add_var(int lo, int hi, std::string name) {
    STGCC_REQUIRE(lo <= hi);
    const VarId id = static_cast<VarId>(lower_.size());
    lower_.push_back(lo);
    upper_.push_back(hi);
    if (name.empty()) name.append("x").append(std::to_string(id));
    names_.push_back(std::move(name));
    by_var_.emplace_back();
    return id;
}

void Model::add_constraint(std::vector<Term> terms, int lo, int hi,
                           std::string name) {
    STGCC_REQUIRE(lo != kNoBound || hi != kNoBound);
    const auto idx = static_cast<std::uint32_t>(constraints_.size());
    for (const Term& t : terms) {
        STGCC_REQUIRE(t.var < num_vars());
        STGCC_REQUIRE(t.coef != 0);
        by_var_[t.var].push_back(idx);
    }
    constraints_.push_back(Constraint{std::move(terms), lo, hi, std::move(name)});
}

}  // namespace stgcc::ilp
