#include "ilp/bb_solver.hpp"

#include <gtest/gtest.h>

namespace stgcc::ilp {
namespace {

TEST(Model, VariablesAndBounds) {
    Model m;
    const VarId x = m.add_var(0, 1, "x");
    const VarId y = m.add_var(-3, 5);
    EXPECT_EQ(m.num_vars(), 2u);
    EXPECT_EQ(m.lower_bound(x), 0);
    EXPECT_EQ(m.upper_bound(y), 5);
    EXPECT_EQ(m.var_name(x), "x");
    EXPECT_EQ(m.var_name(y), "x1");  // auto-named
    EXPECT_THROW(m.add_var(3, 2), ContractViolation);
}

TEST(Model, ConstraintsIndexedByVar) {
    Model m;
    const VarId x = m.add_var(0, 1);
    const VarId y = m.add_var(0, 1);
    m.add_eq({{x, 1}, {y, 1}}, 1, "one-hot");
    m.add_le({{x, 1}}, 0);
    EXPECT_EQ(m.num_constraints(), 2u);
    EXPECT_EQ(m.constraints_of(x).size(), 2u);
    EXPECT_EQ(m.constraints_of(y).size(), 1u);
    EXPECT_EQ(m.constraint(0).name, "one-hot");
    EXPECT_THROW(m.add_eq({{5, 1}}, 0), ContractViolation);   // unknown var
    EXPECT_THROW(m.add_eq({{x, 0}}, 0), ContractViolation);   // zero coef
}

TEST(BBSolver, SimpleFeasible) {
    Model m;
    const VarId x = m.add_var(0, 1);
    const VarId y = m.add_var(0, 1);
    m.add_eq({{x, 1}, {y, 1}}, 1);
    BBSolver solver(m);
    auto sol = solver.solve([](const std::vector<int>&) { return true; });
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ((*sol)[x] + (*sol)[y], 1);
}

TEST(BBSolver, Infeasible) {
    Model m;
    const VarId x = m.add_var(0, 1);
    m.add_eq({{x, 1}}, 2);
    BBSolver solver(m);
    EXPECT_FALSE(solver.solve([](const std::vector<int>&) { return true; }));
    EXPECT_FALSE(solver.stats().aborted);
}

TEST(BBSolver, InfeasibleByCombination) {
    Model m;
    const VarId x = m.add_var(0, 1);
    const VarId y = m.add_var(0, 1);
    m.add_ge({{x, 1}, {y, 1}}, 2);  // both must be 1
    m.add_le({{x, 1}, {y, 1}}, 1);  // at most one
    BBSolver solver(m);
    EXPECT_FALSE(solver.solve([](const std::vector<int>&) { return true; }));
}

TEST(BBSolver, EnumeratesAllSolutions) {
    // x + y + z = 2 over 0-1 has exactly 3 solutions.
    Model m;
    const VarId x = m.add_var(0, 1);
    const VarId y = m.add_var(0, 1);
    const VarId z = m.add_var(0, 1);
    m.add_eq({{x, 1}, {y, 1}, {z, 1}}, 2);
    BBSolver solver(m);
    int count = 0;
    auto sol = solver.solve([&](const std::vector<int>& v) {
        EXPECT_EQ(v[x] + v[y] + v[z], 2);
        ++count;
        return false;  // keep enumerating
    });
    EXPECT_FALSE(sol.has_value());
    EXPECT_EQ(count, 3);
}

TEST(BBSolver, PropagationFixesForcedVars) {
    // x - y = 0 and x = 1 forces y = 1 without branching on y.
    Model m;
    const VarId x = m.add_var(1, 1);
    const VarId y = m.add_var(0, 1);
    m.add_eq({{x, 1}, {y, -1}}, 0);
    BBSolver solver(m);
    auto sol = solver.solve([](const std::vector<int>&) { return true; });
    ASSERT_TRUE(sol.has_value());
    EXPECT_EQ((*sol)[y], 1);
    EXPECT_EQ(solver.stats().nodes, 0u);  // solved by propagation alone
}

TEST(BBSolver, NegativeCoefficientsAndGeneralBounds) {
    // 2x - 3y >= 1 with x in [0,2], y in [0,2].
    Model m;
    const VarId x = m.add_var(0, 2);
    const VarId y = m.add_var(0, 2);
    m.add_ge({{x, 2}, {y, -3}}, 1);
    BBSolver solver(m);
    int count = 0;
    (void)solver.solve([&](const std::vector<int>& v) {
        EXPECT_GE(2 * v[x] - 3 * v[y], 1);
        ++count;
        return false;
    });
    // Solutions: (1,0) (2,0) (2,1).
    EXPECT_EQ(count, 3);
}

TEST(BBSolver, TwoSidedConstraint) {
    Model m;
    const VarId x = m.add_var(0, 3);
    const VarId y = m.add_var(0, 3);
    m.add_constraint({{x, 1}, {y, 1}}, 2, 3, "range");
    BBSolver solver(m);
    int count = 0;
    (void)solver.solve([&](const std::vector<int>& v) {
        const int s = v[x] + v[y];
        EXPECT_GE(s, 2);
        EXPECT_LE(s, 3);
        ++count;
        return false;
    });
    EXPECT_EQ(count, 3 + 4);  // sums 2 and 3
}

TEST(BBSolver, NodeLimitAborts) {
    Model m;
    std::vector<Term> sum;
    for (int i = 0; i < 20; ++i) sum.push_back({m.add_var(0, 1), 1});
    m.add_eq(std::move(sum), 10);
    SolveOptions opts;
    opts.max_nodes = 5;
    BBSolver solver(m, opts);
    auto sol = solver.solve([](const std::vector<int>&) { return false; });
    EXPECT_FALSE(sol.has_value());
    EXPECT_TRUE(solver.stats().aborted);
}

TEST(BBSolver, AcceptStopsEnumeration) {
    Model m;
    std::vector<Term> sum;
    for (int i = 0; i < 6; ++i) sum.push_back({m.add_var(0, 1), 1});
    m.add_eq(std::move(sum), 3);
    BBSolver solver(m);
    int count = 0;
    auto sol = solver.solve([&](const std::vector<int>&) {
        ++count;
        return count == 2;  // accept the second solution
    });
    EXPECT_TRUE(sol.has_value());
    EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace stgcc::ilp
