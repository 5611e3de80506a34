#include "stg/stg.hpp"

#include <gtest/gtest.h>

#include "stg/benchmarks.hpp"
#include "test_util.hpp"

namespace stgcc::stg {
namespace {

TEST(Signal, ParseLabelText) {
    auto l = parse_label_text("dsr+");
    EXPECT_EQ(l.signal_name, "dsr");
    EXPECT_EQ(l.polarity, Polarity::Rising);
    auto l2 = parse_label_text("ldtack-");
    EXPECT_EQ(l2.signal_name, "ldtack");
    EXPECT_EQ(l2.polarity, Polarity::Falling);
    EXPECT_THROW(parse_label_text("x"), ModelError);
    EXPECT_THROW(parse_label_text("abc"), ModelError);
}

TEST(Signal, Helpers) {
    EXPECT_EQ(polarity_char(Polarity::Rising), '+');
    EXPECT_EQ(polarity_char(Polarity::Falling), '-');
    EXPECT_EQ(opposite(Polarity::Rising), Polarity::Falling);
    EXPECT_TRUE(is_circuit_driven(SignalKind::Output));
    EXPECT_TRUE(is_circuit_driven(SignalKind::Internal));
    EXPECT_FALSE(is_circuit_driven(SignalKind::Input));
    EXPECT_EQ(Label({0, Polarity::Rising}).delta(), 1);
    EXPECT_EQ(Label({0, Polarity::Falling}).delta(), -1);
}

TEST(Stg, SignalsAndLabels) {
    Stg s;
    const SignalId a = s.add_signal("a", SignalKind::Input);
    const SignalId b = s.add_signal("b", SignalKind::Output);
    const SignalId c = s.add_signal("c", SignalKind::Internal);
    EXPECT_EQ(s.num_signals(), 3u);
    EXPECT_EQ(s.find_signal("b"), b);
    EXPECT_EQ(s.find_signal("nope"), kNoSignal);
    EXPECT_EQ(s.signal_kind(c), SignalKind::Internal);
    EXPECT_EQ(s.circuit_driven_signals(), (std::vector<SignalId>{b, c}));

    const auto t1 = s.add_transition("a+", Label{a, Polarity::Rising});
    const auto t2 = s.add_dummy_transition("eps");
    EXPECT_FALSE(s.is_dummy(t1));
    EXPECT_TRUE(s.is_dummy(t2));
    EXPECT_TRUE(s.has_dummies());
    EXPECT_THROW(s.require_dummy_free(), ModelError);
    EXPECT_EQ(s.label_text(t1), "a+");
    EXPECT_EQ(s.label_text(t2), "tau");
    EXPECT_THROW((void)s.label(t2), ContractViolation);
}

TEST(Stg, ChangeVector) {
    auto model = stg::bench::vme_bus();
    const auto dsr_p = model.net().find_transition("dsr+");
    const auto dsr_m = model.net().find_transition("dsr-");
    const auto lds_p = model.net().find_transition("lds+");
    auto v = model.change_vector({dsr_p, lds_p, dsr_m, dsr_p});
    EXPECT_EQ(v[model.find_signal("dsr")], 1);
    EXPECT_EQ(v[model.find_signal("lds")], 1);
    EXPECT_EQ(v[model.find_signal("d")], 0);
}

TEST(Stg, CodeAfter) {
    auto model = test::tiny_handshake();
    Code c(2);
    const auto a_p = model.net().find_transition("a+");
    const auto a_m = model.net().find_transition("a-");
    Code c1 = model.code_after(c, a_p);
    EXPECT_TRUE(c1.test(model.find_signal("a")));
    // Rising an already-high signal is inconsistent.
    EXPECT_THROW(model.code_after(c1, a_p), ModelError);
    EXPECT_THROW(model.code_after(c, a_m), ModelError);
    Code c2 = model.code_after(c1, a_m);
    EXPECT_EQ(c2, c);
}

TEST(Stg, OutSignalsAtInitialMarking) {
    auto model = stg::bench::vme_bus();
    // Initially only dsr+ (an input) is enabled: no outputs.
    BitVec out = model.out_signals(model.system().initial_marking());
    EXPECT_TRUE(out.none());
    // After dsr+, lds+ becomes enabled: Out = {lds}.
    auto m = model.system().fire(model.system().initial_marking(),
                                 model.net().find_transition("dsr+"));
    out = model.out_signals(m);
    EXPECT_EQ(out.count(), 1u);
    EXPECT_TRUE(out.test(model.find_signal("lds")));
}

TEST(Stg, SignalEnabled) {
    auto model = stg::bench::vme_bus();
    const auto& m0 = model.system().initial_marking();
    EXPECT_TRUE(model.signal_enabled(m0, model.find_signal("dsr")));
    EXPECT_FALSE(model.signal_enabled(m0, model.find_signal("d")));
}

TEST(Stg, NxtFunction) {
    auto model = stg::bench::vme_bus();
    const auto& m0 = model.system().initial_marking();
    Code v0(model.num_signals());
    // dsr = 0 and dsr+ enabled: Nxt = 1.
    EXPECT_TRUE(model.nxt(m0, v0, model.find_signal("dsr")));
    // d = 0 and no edge of d enabled: Nxt = 0.
    EXPECT_FALSE(model.nxt(m0, v0, model.find_signal("d")));
}

TEST(Stg, SequenceText) {
    auto model = test::tiny_handshake();
    const auto a_p = model.net().find_transition("a+");
    const auto b_p = model.net().find_transition("b+");
    EXPECT_EQ(model.sequence_text({a_p, b_p}), "a+ b+");
    EXPECT_EQ(model.sequence_text({}), "");
}

TEST(Stg, DuplicateSignalRejected) {
    Stg s;
    s.add_signal("a", SignalKind::Input);
    EXPECT_THROW(s.add_signal("a", SignalKind::Output), ContractViolation);
}

}  // namespace
}  // namespace stgcc::stg
