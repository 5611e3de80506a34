#include "core/verifier.hpp"

#include <gtest/gtest.h>

#include "stg/benchmarks.hpp"
#include "stg/builder.hpp"

namespace stgcc::core {
namespace {

TEST(Verifier, VmeFullReport) {
    auto model = stg::bench::vme_bus();
    auto report = verify_stg(model);
    EXPECT_TRUE(report.consistent);
    EXPECT_EQ(report.prefix.events, 12u);
    EXPECT_EQ(report.prefix.cutoffs, 1u);
    EXPECT_EQ(report.prefix.conditions, 15u);
    EXPECT_FALSE(report.usc.holds);
    EXPECT_FALSE(report.csc.holds);
    ASSERT_TRUE(report.normalcy_checked);
    EXPECT_FALSE(report.normalcy.normal);
}

TEST(Verifier, ResolvedVmeReport) {
    auto model = stg::bench::vme_bus_csc_resolved();
    auto report = verify_stg(model);
    EXPECT_TRUE(report.consistent);
    EXPECT_TRUE(report.usc.holds);
    EXPECT_TRUE(report.csc.holds);
    EXPECT_FALSE(report.normalcy.normal);
}

TEST(Verifier, NormalcyCanBeSkipped) {
    auto model = stg::bench::vme_bus();
    VerifyOptions opts;
    opts.check_normalcy = false;
    auto report = verify_stg(model, opts);
    EXPECT_FALSE(report.normalcy_checked);
}

TEST(Verifier, InconsistentShortCircuits) {
    stg::StgBuilder b("bad");
    b.input("a");
    b.arc("a+/1", "a+/2").arc("a+/2", "a-").arc("a-", "a+/1");
    b.token_between("a-", "a+/1");
    auto model = b.build();
    auto report = verify_stg(model);
    EXPECT_FALSE(report.consistent);
    EXPECT_FALSE(report.inconsistency_reason.empty());
    // Defaults untouched.
    EXPECT_TRUE(report.usc.holds);
    EXPECT_FALSE(report.normalcy_checked);
}

TEST(Verifier, DeadlockOptionReported) {
    auto model = stg::bench::vme_bus();
    VerifyOptions opts;
    opts.check_deadlock = true;
    opts.check_normalcy = false;
    auto report = verify_stg(model, opts);
    EXPECT_TRUE(report.deadlock_checked);
    EXPECT_TRUE(report.deadlock_free);
    const std::string text = format_report(model, report);
    EXPECT_NE(text.find("deadlock: none"), std::string::npos);
}

TEST(Verifier, ContractionOptionHandlesDummies) {
    stg::StgBuilder b("with-dummy");
    b.input("a").output("x").dummy("eps");
    b.chain({"a+", "eps", "x+", "a-", "x-", "a+"});
    b.token_between("x-", "a+");
    auto model = b.build();
    // Without contraction the checkers reject dummies.
    EXPECT_THROW((void)verify_stg(model), ModelError);
    VerifyOptions opts;
    opts.reduce = stg::reduce::Options::parse("contract");
    auto report = verify_stg(model, opts);
    EXPECT_EQ(report.dummies_contracted, 1u);
    ASSERT_TRUE(report.reduced_stg.has_value());
    EXPECT_FALSE(report.reduced_stg->has_dummies());
    EXPECT_TRUE(report.consistent);
    const std::string text = format_report(model, report);
    EXPECT_NE(text.find("dummies contracted: 1"), std::string::npos);
}

TEST(Verifier, FormatReportMentionsEverything) {
    auto model = stg::bench::vme_bus();
    auto report = verify_stg(model);
    const std::string text = format_report(model, report);
    EXPECT_NE(text.find("USC: VIOLATED"), std::string::npos);
    EXPECT_NE(text.find("CSC: VIOLATED"), std::string::npos);
    EXPECT_NE(text.find("normalcy"), std::string::npos);
    EXPECT_NE(text.find("|E|=12"), std::string::npos);
    EXPECT_NE(text.find("via:"), std::string::npos);
}

TEST(Verifier, FormatReportOnCleanModel) {
    auto model = stg::bench::muller_pipeline(2);
    auto report = verify_stg(model);
    const std::string text = format_report(model, report);
    EXPECT_NE(text.find("USC: holds"), std::string::npos);
    EXPECT_NE(text.find("CSC: holds"), std::string::npos);
}

TEST(Verifier, FormatWitnessShowsTracesAndOuts) {
    auto model = stg::bench::vme_bus();
    auto report = verify_stg(model);
    ASSERT_TRUE(report.csc.witness.has_value());
    const std::string text = format_witness(model, *report.csc.witness);
    EXPECT_NE(text.find("Out ="), std::string::npos);
    EXPECT_NE(text.find("dsr+"), std::string::npos);
}

TEST(Verifier, FormatInconsistentReport) {
    stg::StgBuilder b("bad");
    b.input("a");
    b.arc("a+/1", "a+/2").arc("a+/2", "a-").arc("a-", "a+/1");
    b.token_between("a-", "a+/1");
    auto model = b.build();
    auto report = verify_stg(model);
    const std::string text = format_report(model, report);
    EXPECT_NE(text.find("consistency: FAILED"), std::string::npos);
}

}  // namespace
}  // namespace stgcc::core
