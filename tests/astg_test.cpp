#include "stg/astg.hpp"

#include <gtest/gtest.h>

#include "petri/reachability.hpp"
#include "stg/benchmarks.hpp"
#include "stg/state_graph.hpp"

namespace stgcc::stg {
namespace {

const char* kVmeText = R"(
# VME bus controller, read cycle (paper Fig. 1)
.model vme
.inputs dsr ldtack
.outputs dtack lds d
.graph
dsr+ lds+
lds+ ldtack+
ldtack+ d+
d+ dtack+
dtack+ dsr-
dsr- d-
d- dtack- lds-
lds- ldtack-
dtack- dsr+
ldtack- lds+
.marking { <dtack-,dsr+> <ldtack-,lds+> }
.end
)";

TEST(Astg, ParseVme) {
    Stg stg = parse_astg_string(kVmeText);
    EXPECT_EQ(stg.name(), "vme");
    EXPECT_EQ(stg.num_signals(), 5u);
    EXPECT_EQ(stg.signal_kind(stg.find_signal("dsr")), SignalKind::Input);
    EXPECT_EQ(stg.signal_kind(stg.find_signal("d")), SignalKind::Output);
    EXPECT_EQ(stg.net().num_transitions(), 10u);
    EXPECT_EQ(stg.system().initial_marking().total_tokens(), 2u);
    petri::ReachabilityGraph rg(stg.system());
    EXPECT_EQ(rg.num_states(), 14u);  // same as the builder-made model
}

TEST(Astg, ParsedVmeMatchesBuilderVme) {
    Stg parsed = parse_astg_string(kVmeText);
    Stg built = bench::vme_bus();
    petri::ReachabilityGraph rg1(parsed.system());
    petri::ReachabilityGraph rg2(built.system());
    EXPECT_EQ(rg1.num_states(), rg2.num_states());
    EXPECT_EQ(rg1.num_edges(), rg2.num_edges());
}

TEST(Astg, ExplicitPlacesAndCounts) {
    const char* text = R"(
.model counters
.inputs a
.outputs b
.graph
p0 a+
a+ b+
b+ a-
a- b-
b- p0
.marking { p0=1 }
.end
)";
    Stg stg = parse_astg_string(text);
    const auto p0 = stg.net().find_place("p0");
    ASSERT_NE(p0, petri::kNoPlace);
    EXPECT_EQ(stg.system().initial_marking()[p0], 1u);
}

TEST(Astg, DummiesAndInternal) {
    const char* text = R"(
.model dum
.inputs a
.internal c
.dummy eps
.graph
a+ eps
eps c+
c+ a-
a- c-
c- a+
.marking { <c-,a+> }
.end
)";
    Stg stg = parse_astg_string(text);
    EXPECT_TRUE(stg.has_dummies());
    EXPECT_EQ(stg.signal_kind(stg.find_signal("c")), SignalKind::Internal);
}

TEST(Astg, InstanceSuffixes) {
    const char* text = R"(
.model inst
.inputs x
.outputs y
.graph
x+ y+/1
y+/1 x-
x- y-/1
y-/1 x+
.marking { <y-/1,x+> }
.end
)";
    Stg stg = parse_astg_string(text);
    EXPECT_NE(stg.net().find_transition("y+/1"), petri::kNoTransition);
}

TEST(Astg, CommentsAndWhitespaceTolerated) {
    const char* text = R"(
# leading comment
.model c   # trailing comment
.inputs a     # signals
.outputs b
.graph
a+ b+    # arc
b+ a-
a- b-
b- a+
.marking { <b-,a+> }   # token
.end
# trailing junk after .end is ignored
)";
    Stg stg = parse_astg_string(text);
    EXPECT_EQ(stg.net().num_transitions(), 4u);
}

TEST(Astg, MultiTokenMarkingOnExplicitPlace) {
    const char* text = R"(
.model two
.inputs a
.graph
p a+
a+ a-
a- p
.marking { p=2 }
.end
)";
    Stg stg = parse_astg_string(text);
    const auto p = stg.net().find_place("p");
    EXPECT_EQ(stg.system().initial_marking()[p], 2u);
    petri::ReachabilityGraph rg(stg.system());
    EXPECT_FALSE(rg.is_safe());
    EXPECT_EQ(rg.bound(), 2u);
}

TEST(Astg, CapacityDirectiveParsed) {
    const char* text = R"(
.model cap
.inputs a
.capacity p=2
.graph
p a+
a+ a-
a- p
.marking { p }
.end
)";
    EXPECT_NO_THROW((void)parse_astg_string(text));
    EXPECT_THROW(
        (void)parse_astg_string(".inputs a\n.capacity p\n.graph\np a+\na+ a-\n"
                                "a- p\n.marking { p }\n.end\n"),
        ModelError);
}

TEST(Astg, DuplicateArcRejectedAsModelError) {
    const char* text =
        ".inputs a\n.outputs b\n.graph\na+ b+\na+ b+\nb+ a-\na- b-\nb- a+\n"
        ".marking { <b-,a+> }\n.end\n";
    EXPECT_THROW((void)parse_astg_string(text), ModelError);
}

TEST(Astg, ParseErrors) {
    EXPECT_THROW(parse_astg_string(".model x\n.end\n"), ModelError);  // no .graph
    EXPECT_THROW(parse_astg_string(".model x\n.graph\n"), ModelError);  // no .end
    EXPECT_THROW(parse_astg_string(".bogus\n.graph\n.marking { }\n.end\n"),
                 ModelError);
    EXPECT_THROW(
        parse_astg_string(".inputs a\n.graph\na+\n.marking { }\n.end\n"),
        ModelError);  // graph line with no target
    EXPECT_THROW(parse_astg_string(".inputs a\nx y\n.graph\n.marking {}\n.end\n"),
                 ModelError);  // node line outside .graph
}

TEST(Astg, CountsAreWholeUnsignedDecimalsThatFit) {
    // kVmeText with its .marking line (line 17) replaced.
    const auto vme_marked = [](const std::string& marking) {
        const std::string text = kVmeText;
        return text.substr(0, text.find(".marking")) + ".marking { " + marking +
               " <ldtack-,lds+> }\n.end\n";
    };
    EXPECT_EQ(parse_astg_string(vme_marked("<dtack-,dsr+>=2"))
                  .system()
                  .initial_marking()
                  .max_tokens(),
              2u);
    for (const char* bad :
         {"<dtack-,dsr+>=4294967297", "<dtack-,dsr+>=18446744073709551617",
          "<dtack-,dsr+>=1x", "<dtack-,dsr+>=x", "<dtack-,dsr+>=",
          "<dtack-,dsr+>=+1"}) {
        try {
            (void)parse_astg_string(vme_marked(bad));
            ADD_FAILURE() << bad << " accepted";
        } catch (const ModelError& e) {
            EXPECT_NE(std::string(e.what()).find("line 17"), std::string::npos)
                << e.what();
        } catch (const std::exception& e) {
            ADD_FAILURE() << bad << ": " << e.what();
        }
    }
    // Counts on explicit places and capacities are read the same way.
    const auto place_net = [](const std::string& capacity, const std::string& marking) {
        return ".inputs a\n" + capacity + "\n.graph\np a+\na+ a-\na- p\n.marking { " +
               marking + " }\n.end\n";
    };
    for (const char* bad : {"p=-1", "p=4294967296", "p=0x1", "p=1.0"})
        EXPECT_THROW((void)parse_astg_string(place_net("", bad)), ModelError) << bad;
    for (const std::string bad : {"p=abc", "p=-2", "p=99999999999"})
        EXPECT_THROW((void)parse_astg_string(place_net(".capacity " + bad, "p")),
                     ModelError)
            << bad;
}

TEST(Astg, UndeclaredSignalInGraph) {
    const char* text = ".inputs a\n.graph\na+ b+\nb+ a-\na- a+\n.marking {}\n.end\n";
    EXPECT_THROW(parse_astg_string(text), ModelError);
}

TEST(Astg, MissingFileThrows) {
    EXPECT_THROW(load_astg_file("/nonexistent/file.g"), ModelError);
}

class AstgRoundtripTest : public ::testing::TestWithParam<int> {};

TEST_P(AstgRoundtripTest, WriteThenParsePreservesBehaviour) {
    auto suite = bench::table1_suite();
    std::vector<Stg> models;
    models.push_back(bench::vme_bus());
    models.push_back(bench::vme_bus_csc_resolved());
    models.push_back(bench::parallel_handshakes(3));
    models.push_back(bench::handshake_pipeline(3));
    models.push_back(bench::sequential_handshakes(3));
    models.push_back(bench::muller_pipeline(3));
    for (auto& nb : suite) models.push_back(std::move(nb.stg));

    const std::size_t i = static_cast<std::size_t>(GetParam());
    ASSERT_LT(i, models.size());
    const Stg& original = models[i];
    Stg reparsed = parse_astg_string(write_astg_string(original));

    // The roundtrip must preserve the interface and the behaviour.
    ASSERT_EQ(reparsed.num_signals(), original.num_signals());
    for (SignalId z = 0; z < original.num_signals(); ++z) {
        const SignalId z2 = reparsed.find_signal(original.signal_name(z));
        ASSERT_NE(z2, kNoSignal);
        EXPECT_EQ(reparsed.signal_kind(z2), original.signal_kind(z));
    }
    EXPECT_EQ(reparsed.net().num_transitions(), original.net().num_transitions());

    StateGraph sg1(original), sg2(reparsed);
    EXPECT_EQ(sg1.num_states(), sg2.num_states());
    EXPECT_EQ(sg1.graph().num_edges(), sg2.graph().num_edges());
    ASSERT_TRUE(sg1.consistent());
    ASSERT_TRUE(sg2.consistent());
    EXPECT_EQ(sg1.initial_code().count(), sg2.initial_code().count());
}

INSTANTIATE_TEST_SUITE_P(AllModels, AstgRoundtripTest, ::testing::Range(0, 21));

}  // namespace
}  // namespace stgcc::stg
