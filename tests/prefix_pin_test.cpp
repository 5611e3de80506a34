// Pins the exact prefix the unfolder builds for every shipped and generated
// model the suite uses: one FNV-1a hash per prefix over its minimal
// conditions, each condition's place and producer, and, per event in
// creation order, its transition, preset, postset, cut-off flag, companion
// and Foata level.  Any change to the order events are added in, to the
// cut-off test or to the companion choice moves a hash, so a rewrite of the
// unfolder that must keep its prefixes is held to them here.
//
// On a mismatch the test prints the whole table as computed, in the form
// of the pinned arrays below.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "cache/result_cache.hpp"
#include "stg/astg.hpp"
#include "stg/benchmarks.hpp"
#include "stg/contraction.hpp"
#include "test_util.hpp"
#include "unfolding/unfolder.hpp"

namespace stgcc {
namespace {

namespace fs = std::filesystem;

struct Pin {
    std::string name;
    std::string hash;
};

std::string hex(std::uint64_t v) {
    char buf[19];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

std::string indexed(const char* stem, int i) {
    std::string s = stem;
    s += std::to_string(i);
    return s;
}

std::string prefix_hash(const unf::Prefix& p) {
    std::string s;
    const auto num = [&s](std::uint64_t v) {
        s += std::to_string(v);
        s += ',';
    };
    for (unf::ConditionId b : p.min_conditions()) num(b);
    s += '|';
    for (unf::ConditionId b = 0; b < p.num_conditions(); ++b) {
        num(p.condition(b).place);
        num(p.condition(b).producer);
    }
    for (unf::EventId e = 0; e < p.num_events(); ++e) {
        const unf::Event& ev = p.event(e);
        s += '|';
        num(ev.transition);
        for (unf::ConditionId b : ev.preset) num(b);
        s += '/';
        for (unf::ConditionId b : ev.postset) num(b);
        s += '/';
        num(ev.cutoff ? 1 : 0);
        num(ev.companion);
        num(ev.foata_level);
    }
    return hex(cache::fnv1a64(s));
}

std::string hash_of(const petri::NetSystem& sys,
                    unf::UnfoldOptions opts = {}) {
    return prefix_hash(unf::unfold(sys, opts));
}

void expect_pins(const std::vector<Pin>& actual, const std::vector<Pin>& pinned) {
    bool same = actual.size() == pinned.size();
    for (std::size_t i = 0; i < std::min(actual.size(), pinned.size()); ++i) {
        EXPECT_EQ(actual[i].name, pinned[i].name);
        EXPECT_EQ(actual[i].hash, pinned[i].hash) << actual[i].name;
        same = same && actual[i].name == pinned[i].name &&
               actual[i].hash == pinned[i].hash;
    }
    EXPECT_EQ(actual.size(), pinned.size());
    if (same) return;
    std::string table;
    for (const Pin& pin : actual) {
        table += "        {\"";
        table += pin.name;
        table += "\", \"";
        table += pin.hash;
        table += "\"},\n";
    }
    ADD_FAILURE() << "computed table:\n" << table;
}

TEST(PrefixPin, CorpusModels) {
    std::vector<fs::path> files;
    for (const auto& entry : fs::directory_iterator(STGCC_MODELS_DIR))
        if (entry.path().extension() == ".g") files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    std::vector<Pin> actual;
    for (const fs::path& file : files) {
        const stg::Stg model = stg::load_astg_file(file.string());
        actual.push_back({file.stem().string(), hash_of(model.system())});
    }
    expect_pins(actual, {
        {"cf_asym_a_csc", "74825188b063cbe0"},
        {"cf_asym_b_csc", "b85ed4ceb88c1648"},
        {"cf_sym_a_csc", "d58f79aa3e09acb2"},
        {"cf_sym_b_csc", "c8905249351b8b06"},
        {"cf_sym_c_csc", "3dca6a4dba233d23"},
        {"cf_sym_d_csc", "ae0a56dccf210759"},
        {"dup_4ph_a", "929cad862f00d757"},
        {"dup_4ph_b", "1ff868973208d354"},
        {"dup_4ph_mtr_a", "bc64e56f0f16f10b"},
        {"dup_4ph_mtr_b", "973f26b7b020c212"},
        {"dup_mod_a", "fcd1dea17673c7bc"},
        {"dup_mod_b", "86fa69d52e57eb73"},
        {"dup_mod_c", "28407a54bef50260"},
        {"envelope2", "fc9b9b411f17d4f1"},
        {"johnson4", "ddd013be041c7572"},
        {"lazyring", "4b5b1354703798d6"},
        {"muller4", "d9a799876665e751"},
        {"par4", "3c1924c32aac233d"},
        {"ring", "a87878b6a6113694"},
        {"seq4", "c1a0161979b2a1d1"},
        {"vme", "3e1db69669b17038"},
        {"vme_csc", "eb017f7a1a3434d6"},
    });
}

TEST(PrefixPin, Table1Suite) {
    std::vector<Pin> actual;
    for (const auto& nb : stg::bench::table1_suite())
        actual.push_back({nb.name, hash_of(nb.stg.system())});
    expect_pins(actual, {
        {"LAZYRING", "e238b3bb7e224f31"},
        {"RING", "4a600b736cfe3537"},
        {"DUP-4PH-A", "172a6a8ad30fb4d3"},
        {"DUP-4PH-B", "de7b71c0ed25052f"},
        {"DUP-4PH-MTR-A", "2405303872adb66b"},
        {"DUP-4PH-MTR-B", "9899ff5878e3f395"},
        {"DUP-MOD-A", "522302edc4c2f383"},
        {"DUP-MOD-B", "f918b3bafa20fe6b"},
        {"DUP-MOD-C", "33b362022cfa5755"},
        {"CF-SYM-A-CSC", "caf3261ad9321281"},
        {"CF-SYM-B-CSC", "9f383a2d41c8ee4b"},
        {"CF-SYM-C-CSC", "be756c299cd0aefd"},
        {"CF-SYM-D-CSC", "97a98605f5269b6d"},
        {"CF-ASYM-A-CSC", "d3986e2a34601541"},
        {"CF-ASYM-B-CSC", "0f9cc56bbd4458b1"},
    });
}

TEST(PrefixPin, WordEdgeGenerators) {
    using namespace stg::bench;
    const std::vector<std::pair<std::string, std::function<stg::Stg()>>> gens = {
        {"johnson32", [] { return johnson_counter(32); }},
        {"seq16", [] { return sequential_handshakes(16); }},
        {"duplex7", [] { return duplex_channel(7, false, true); }},
        {"envelope8", [] { return phase_envelope(8); }},
        {"johnson33", [] { return johnson_counter(33); }},
        {"counterflow4", [] { return counterflow(4, true); }},
        {"johnson64", [] { return johnson_counter(64); }},
        {"seq32", [] { return sequential_handshakes(32); }},
        {"duplex15", [] { return duplex_channel(15, false, true); }},
        {"envelope16", [] { return phase_envelope(16); }},
        {"johnson65", [] { return johnson_counter(65); }},
    };
    std::vector<Pin> actual;
    for (const auto& [name, make] : gens)
        actual.push_back({name, hash_of(make().system())});
    expect_pins(actual, {
        {"johnson32", "c2ad53d357196cee"},
        {"seq16", "c2ad53d357196cee"},
        {"duplex7", "038fff3a87bf3fd9"},
        {"envelope8", "ff5d0a56a6c44c06"},
        {"johnson33", "ff5d0a56a6c44c06"},
        {"counterflow4", "be756c299cd0aefd"},
        {"johnson64", "6cc64fd25bc94ea9"},
        {"seq32", "6cc64fd25bc94ea9"},
        {"duplex15", "8e51dd18ac468cba"},
        {"envelope16", "8e700f293f1e6833"},
        {"johnson65", "8e700f293f1e6833"},
    });
}

/// One hash per sweep: FNV-1a over the per-model hashes in seed order.
/// Nets with dummies are contracted first, as the checkers see them.
std::string sweep_hash(unsigned first, unsigned last,
                       const std::function<test::RandomStgConfig(unsigned)>& knob,
                       unsigned (*seed_of)(unsigned) = [](unsigned s) { return s; }) {
    std::string joined;
    for (unsigned s = first; s < last; ++s) {
        const test::RandomStgConfig cfg = knob(s);
        stg::Stg model = test::random_stg(seed_of(s), cfg);
        if (model.has_dummies()) model = stg::contract_dummies(model).stg;
        joined += hash_of(model.system());
    }
    return hex(cache::fnv1a64(joined));
}

TEST(PrefixPin, RandomStgSweeps) {
    using Cfg = test::RandomStgConfig;
    // The knob sweep of the unfolding and leaf-view tests: plain choice,
    // heavy choice, non-free-choice sync and dummy-spliced, six seeds each.
    const auto knob_seed = [](unsigned s) { return (s % 6 + 1) * 17 + 3; };
    const auto knob = [](unsigned s) {
        Cfg cfg;
        switch (s / 6) {
            case 1: cfg.branch_probability = 0.6; break;
            case 2: cfg.machines = 3; cfg.sync_transitions = 2; break;
            case 3: cfg.dummy_probability = 0.3; break;
            default: break;
        }
        return cfg;
    };
    const auto plain = [](unsigned) { return Cfg{}; };
    const auto wide = [](unsigned) {
        Cfg cfg;
        cfg.machines = 3;
        cfg.places_per_machine = 10;
        return cfg;
    };
    const auto sync = [](unsigned) {
        Cfg cfg;
        cfg.machines = 3;
        cfg.sync_transitions = 3;
        return cfg;
    };
    const auto fleet = [](unsigned) {
        Cfg cfg;
        cfg.machines = 3;
        cfg.places_per_machine = 10;
        cfg.sync_transitions = 2;
        cfg.dummy_probability = 0.2;
        return cfg;
    };
    const auto sinks = [](unsigned) {
        Cfg cfg;
        cfg.sink_probability = 0.25;
        return cfg;
    };
    const std::vector<Pin> actual = {
        {"knobs", sweep_hash(0, 24, knob, +knob_seed)},
        {"plain 200-229", sweep_hash(200, 230, plain)},
        {"plain 700-729", sweep_hash(700, 730, plain)},
        {"plain 1000-1039", sweep_hash(1000, 1040, plain)},
        {"wide 2000-2014", sweep_hash(2000, 2015, wide)},
        {"sync 11000-11029", sweep_hash(11000, 11030, sync)},
        {"fleet 5000-5007", sweep_hash(5000, 5008, fleet)},
        {"sinks 730-759", sweep_hash(730, 760, sinks)},
    };
    expect_pins(actual, {
        {"knobs", "b06f4075ad8d0394"},
        {"plain 200-229", "70960896ea5d74cd"},
        {"plain 700-729", "ea8bbe3881ed6d6a"},
        {"plain 1000-1039", "5ac865f0287962b1"},
        {"wide 2000-2014", "2f29af817c79277c"},
        {"sync 11000-11029", "78315b8caf239305"},
        {"fleet 5000-5007", "4450c00a31036bd4"},
        {"sinks 730-759", "02ec2ef17929b805"},
    });
}

/// The free-choice chain of bench_paper's ablation: n binary choices in
/// series, each between two transitions into the same place.
petri::NetSystem choice_chain(int n) {
    petri::Net net;
    std::vector<petri::PlaceId> p;
    for (int i = 0; i <= n; ++i) p.push_back(net.add_place(indexed("p", i)));
    for (int i = 0; i < n; ++i) {
        const auto u = net.add_transition(indexed("u", i));
        const auto v = net.add_transition(indexed("v", i));
        net.add_arc_pt(p[i], u);
        net.add_arc_pt(p[i], v);
        net.add_arc_tp(u, p[i + 1]);
        net.add_arc_tp(v, p[i + 1]);
    }
    petri::Marking m0(net.num_places());
    m0.set(p[0], 1);
    return petri::NetSystem(std::move(net), std::move(m0));
}

TEST(PrefixPin, AblationSystemsUnderBothOrders) {
    std::vector<std::pair<std::string, petri::NetSystem>> systems;
    systems.emplace_back("VME", stg::bench::vme_bus().system());
    systems.emplace_back("LAZYRING", stg::bench::token_ring(2).system());
    systems.emplace_back("RING", stg::bench::token_ring(4).system());
    systems.emplace_back("PAR-6", stg::bench::parallel_handshakes(6).system());
    systems.emplace_back("MULLER-8", stg::bench::muller_pipeline(8).system());
    systems.emplace_back("CF-SYM-C", stg::bench::counterflow(4, true).system());
    for (int n : {4, 8, 12})
        systems.emplace_back(indexed("CHOICE-CHAIN-", n), choice_chain(n));
    unf::UnfoldOptions mcmillan;
    mcmillan.order = unf::AdequateOrder::McMillanSize;
    std::vector<Pin> actual;
    for (const auto& [name, sys] : systems) {
        actual.push_back({name + " erv", hash_of(sys)});
        actual.push_back({name + " mcmillan", hash_of(sys, mcmillan)});
    }
    expect_pins(actual, {
        {"VME erv", "7d299d5d67ea381f"},
        {"VME mcmillan", "7d299d5d67ea381f"},
        {"LAZYRING erv", "e238b3bb7e224f31"},
        {"LAZYRING mcmillan", "e238b3bb7e224f31"},
        {"RING erv", "4a600b736cfe3537"},
        {"RING mcmillan", "4a600b736cfe3537"},
        {"PAR-6 erv", "e5b765c34d733f67"},
        {"PAR-6 mcmillan", "e5b765c34d733f67"},
        {"MULLER-8 erv", "3701797ccf9771a8"},
        {"MULLER-8 mcmillan", "3701797ccf9771a8"},
        {"CF-SYM-C erv", "be756c299cd0aefd"},
        {"CF-SYM-C mcmillan", "be756c299cd0aefd"},
        {"CHOICE-CHAIN-4 erv", "1159ead4f59f0d58"},
        {"CHOICE-CHAIN-4 mcmillan", "a0a5497f32c4cf4a"},
        {"CHOICE-CHAIN-8 erv", "04d2a6ad02ed57ca"},
        {"CHOICE-CHAIN-8 mcmillan", "0843555a917b19ef"},
        {"CHOICE-CHAIN-12 erv", "059e08656028115b"},
        {"CHOICE-CHAIN-12 mcmillan", "28a907815cc858b1"},
    });
}

}  // namespace
}  // namespace stgcc
