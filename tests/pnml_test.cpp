#include "petri/pnml.hpp"

#include <gtest/gtest.h>

#include "petri/reachability.hpp"
#include "stg/benchmarks.hpp"
#include "test_util.hpp"

namespace stgcc::petri {
namespace {

TEST(Pnml, RoundtripPreservesStructure) {
    std::vector<stg::Stg> models;
    models.push_back(stg::bench::vme_bus());
    models.push_back(stg::bench::token_ring(2));
    models.push_back(stg::bench::muller_pipeline(3));
    models.push_back(test::random_stg(42));
    for (const auto& model : models) {
        const NetSystem& original = model.system();
        NetSystem reparsed = parse_pnml_string(write_pnml_string(original));
        EXPECT_EQ(reparsed.net().num_places(), original.net().num_places());
        EXPECT_EQ(reparsed.net().num_transitions(),
                  original.net().num_transitions());
        EXPECT_EQ(reparsed.net().num_arcs(), original.net().num_arcs());
        // Behaviour is identical: same reachability graph size and safety.
        ReachabilityGraph rg1(original), rg2(reparsed);
        EXPECT_EQ(rg1.num_states(), rg2.num_states()) << model.name();
        EXPECT_EQ(rg1.num_edges(), rg2.num_edges()) << model.name();
        EXPECT_EQ(rg1.is_safe(), rg2.is_safe()) << model.name();
    }
}

TEST(Pnml, NamesSurviveRoundtrip) {
    auto model = stg::bench::vme_bus();
    NetSystem reparsed = parse_pnml_string(write_pnml_string(model.system()));
    for (TransitionId t = 0; t < model.net().num_transitions(); ++t) {
        const auto t2 = reparsed.net().find_transition(
            model.net().transition_name(t));
        EXPECT_NE(t2, kNoTransition) << model.net().transition_name(t);
    }
    // Place names with XML-special characters (the implicit "<a,b>" names)
    // must be escaped and restored.
    for (PlaceId p = 0; p < model.net().num_places(); ++p)
        EXPECT_NE(reparsed.net().find_place(model.net().place_name(p)), kNoPlace)
            << model.net().place_name(p);
}

TEST(Pnml, MarkingSurvivesRoundtrip) {
    auto model = stg::bench::token_ring(3);
    NetSystem reparsed = parse_pnml_string(write_pnml_string(model.system()));
    EXPECT_EQ(reparsed.initial_marking().total_tokens(),
              model.system().initial_marking().total_tokens());
}

TEST(Pnml, HandwrittenMinimalNet) {
    const char* text = R"(<?xml version="1.0"?>
<pnml>
  <net id="n" type="ptnet">
    <page id="pg">
      <place id="p1"><name><text>start</text></name>
        <initialMarking><text>2</text></initialMarking></place>
      <place id="p2"/>
      <transition id="t1"><name><text>go</text></name></transition>
      <arc id="a1" source="p1" target="t1"/>
      <arc id="a2" source="t1" target="p2"/>
    </page>
  </net>
</pnml>)";
    NetSystem sys = parse_pnml_string(text);
    EXPECT_EQ(sys.net().num_places(), 2u);
    EXPECT_EQ(sys.net().num_transitions(), 1u);
    const PlaceId start = sys.net().find_place("start");
    ASSERT_NE(start, kNoPlace);
    EXPECT_EQ(sys.initial_marking()[start], 2u);
    EXPECT_NE(sys.net().find_transition("go"), kNoTransition);
}

/// A one-place, one-transition net whose consume arc is written as `arc`
/// (the produce arc is plain).
std::string loop_net(const std::string& arc) {
    return "<pnml><net id=\"n\" type=\"ptnet\"><page id=\"pg\">"
           "<place id=\"p0\"><initialMarking><text>1</text>"
           "</initialMarking></place>"
           "<transition id=\"t0\"/>" +
           arc + "<arc id=\"a1\" source=\"t0\" target=\"p0\"/>"
                 "</page></net></pnml>";
}

TEST(Pnml, ArcWeightsOtherThanOneAreRejected) {
    // t0 consumes 2 tokens from p0, which holds 1: the net is dead at M0.
    // Dropping the weight would report it deadlock-free.
    EXPECT_THROW(parse_pnml_string(loop_net(
                     "<arc id=\"a0\" source=\"p0\" target=\"t0\">"
                     "<inscription><text>2</text></inscription></arc>")),
                 ModelError);
    EXPECT_THROW(parse_pnml_string(loop_net(
                     "<arc id=\"a0\" source=\"p0\" target=\"t0\">"
                     "<inscription><text>two</text></inscription></arc>")),
                 ModelError);
    // An explicit weight of 1 is the ordinary arc the writer leaves implicit.
    NetSystem sys = parse_pnml_string(
        loop_net("<arc id=\"a0\" source=\"p0\" target=\"t0\">"
                 "<inscription><text> 1 </text></inscription></arc>"));
    EXPECT_EQ(sys.net().num_arcs(), 2u);
    EXPECT_TRUE(ReachabilityGraph(sys).deadlocks().empty());
}

TEST(Pnml, CountsThatDoNotFitAreRejectedNotWrapped) {
    // 2^32 + 1 and -(2^32 - 1) would both read as weight 1 if wrapped.
    for (const char* weight : {"4294967297", "-4294967295", "-1", "1x", "+1"}) {
        EXPECT_THROW(parse_pnml_string(loop_net(
                         std::string("<arc id=\"a0\" source=\"p0\" target=\"t0\">"
                                     "<inscription><text>") +
                         weight + "</text></inscription></arc>")),
                     ModelError)
            << weight;
    }
    for (const char* tokens : {"4294967297", "-1", "2 tokens"}) {
        EXPECT_THROW(parse_pnml_string(std::string("<pnml><net><page><place id=\"p\">"
                                                   "<initialMarking><text>") +
                                       tokens +
                                       "</text></initialMarking></place>"
                                       "</page></net></pnml>"),
                     ModelError)
            << tokens;
    }
    const NetSystem big = parse_pnml_string(
        "<pnml><net><page><place id=\"p\"><initialMarking><text>4294967295</text>"
        "</initialMarking></place></page></net></pnml>");
    EXPECT_EQ(big.initial_marking().max_tokens(), 4294967295u);
}

TEST(Pnml, UnrepresentableElementsAreRejectedNotDropped) {
    const std::string plain = "<arc id=\"a0\" source=\"p0\" target=\"t0\"/>";
    EXPECT_NO_THROW((void)parse_pnml_string(loop_net(plain)));
    for (const std::string& bad : {
             // inhibitor / reset / read arcs, as attribute or child element
             loop_net("<arc id=\"a0\" source=\"p0\" target=\"t0\" "
                      "type=\"inhibitor\"/>"),
             loop_net("<arc id=\"a0\" source=\"p0\" target=\"t0\">"
                      "<type value=\"reset\"/></arc>"),
             // a place capacity
             loop_net(plain + "<place id=\"p1\"><capacity><text>1</text>"
                              "</capacity></place>"),
             // high-level (coloured) annotations
             loop_net(plain + "<place id=\"p1\"><hlinitialMarking>"
                              "<text>1'a</text></hlinitialMarking></place>"),
             // reference nodes
             loop_net(plain + "<referencePlace id=\"r\" ref=\"p0\"/>"),
             // two nets in one file
             loop_net(plain) + loop_net(plain),
         }) {
        EXPECT_THROW((void)parse_pnml_string(bad), ModelError) << bad;
    }
}

TEST(Pnml, Errors) {
    EXPECT_THROW(parse_pnml_string("<pnml><arc id=\"a\" source=\"x\" "
                                   "target=\"y\"/></pnml>"),
                 ModelError);
    EXPECT_THROW(parse_pnml_string("<pnml><place/></pnml>"), ModelError);
    EXPECT_THROW(parse_pnml_string("<pnml><place id=\"p\">"
                                   "<initialMarking><text>zz</text>"
                                   "</initialMarking></place></pnml>"),
                 ModelError);
    EXPECT_THROW(parse_pnml_string("<unterminated"), ModelError);
    EXPECT_THROW(load_pnml_file("/nonexistent.pnml"), ModelError);
}

}  // namespace
}  // namespace stgcc::petri
