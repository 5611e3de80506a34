// stgcc tests -- shared helpers: per-process temp paths, small hand-built
// STGs and a random consistent-STG generator used by the property tests.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "stg/builder.hpp"
#include "stg/stg.hpp"

namespace stgcc::test {

/// A path under gtest's TempDir() named `name` plus this process's id, so
/// two test runs of one tree at once never share it.
inline std::filesystem::path temp_path(std::string name) {
    name += '_';
    name += std::to_string(::getpid());
    return std::filesystem::path(::testing::TempDir()) / name;
}

/// temp_path of `prefix` plus the running test's name.
inline std::filesystem::path test_temp_path(std::string prefix) {
    prefix += ::testing::UnitTest::GetInstance()->current_test_info()->name();
    return temp_path(std::move(prefix));
}

/// Canonical dump of a machine-readable report with every volatile field
/// removed: "seconds" (wall clock), "stats" (schedule-dependent search
/// counters), "jobs" (resolved worker count) and "metrics" (process-global
/// counter registry).  What remains is exactly the surface the determinism
/// contract (docs/PARALLELISM.md) and the cache-neutrality contract
/// (docs/CACHING.md) promise byte-stable.
inline void canonical_json(const obs::Json& j, std::string& out) {
    using Kind = obs::Json::Kind;
    switch (j.kind()) {
        case Kind::Object: {
            out += '{';
            for (std::size_t i = 0; i < j.size(); ++i) {
                const auto& [key, value] = j.member(i);
                if (key == "seconds" || key == "stats" || key == "jobs" ||
                    key == "metrics")
                    continue;
                out += '"';
                out += key;
                out += "\":";
                canonical_json(value, out);
                out += ',';
            }
            out += '}';
            break;
        }
        case Kind::Array:
            out += '[';
            for (std::size_t i = 0; i < j.size(); ++i) {
                canonical_json(j.at(i), out);
                out += ',';
            }
            out += ']';
            break;
        default:
            out += j.dump();
    }
}

inline std::string canonical_json(const obs::Json& j) {
    std::string out;
    canonical_json(j, out);
    return out;
}

/// The two-signal handshake cycle a+ b+ a- b- (smallest interesting STG,
/// conflict-free).
inline stg::Stg tiny_handshake() {
    stg::StgBuilder b("tiny");
    b.input("a").output("b");
    b.arc("a+", "b+").arc("b+", "a-").arc("a-", "b-").arc("b-", "a+");
    b.token_between("b-", "a+");
    return b.build();
}

/// A three-signal cycle where the all-zero code repeats at two distinct
/// markings: x+ y+ x- y- z+ x+ y+ x- y- z-.  Guaranteed USC conflict and,
/// because the conflicting states enable different outputs (y vs z), also a
/// CSC conflict.
inline stg::Stg tiny_conflict() {
    stg::StgBuilder b("tiny-conflict");
    b.input("x").output("y").output("z");
    std::vector<std::string> cycle = {"x+/1", "y+/1", "x-/1", "y-/1", "z+",
                                      "x+/2", "y+/2", "x-/2", "y-/2", "z-"};
    for (std::size_t i = 0; i < cycle.size(); ++i)
        b.arc(cycle[i], cycle[(i + 1) % cycle.size()]);
    b.token_between(cycle.back(), cycle.front());
    return b.build();
}

/// Configuration for random_stg().
struct RandomStgConfig {
    int machines = 2;            ///< parallel state-machine components
    int signals_per_machine = 3; ///< signals owned by each component
    int places_per_machine = 8;  ///< approximate component size
    double branch_probability = 0.35;  ///< chance of a second outgoing edge
    /// Cross-machine synchronisation transitions to add (each consumes a
    /// place of two machines and produces code-compatible successors,
    /// creating non-free-choice concurrency while preserving consistency).
    int sync_transitions = 0;
    /// Chance of splicing a dummy (tau) transition into an edge: instead of
    /// t -> q the generator emits t -> mid -> tau -> q with a fresh place
    /// `mid` carrying q's code.  `mid` feeds only the dummy, so every
    /// generated dummy is type-1 securely contractable, and contraction
    /// recovers exactly the dummy-free net (verify_stg contracts models
    /// with dummies before checking them).
    double dummy_probability = 0.0;
    /// Chance that a place other than a component's initial one gets no
    /// outgoing edge: a component that reaches it stops for good, and a
    /// marking with every component stopped is a deadlock.
    double sink_probability = 0.0;
};

/// Generate a random STG that is consistent and safe *by construction*: a
/// disjoint parallel composition of state-machine components.  Within a
/// component every place carries a fixed code over the component's signals
/// and every edge toggles exactly one signal, so all firing sequences agree
/// on codes.  Components may deadlock or contain coding conflicts -- that is
/// the point: the property tests cross-check the unfolding+IP verdicts
/// against the state-graph baseline on whatever comes out.
inline stg::Stg random_stg(unsigned seed, RandomStgConfig cfg = {}) {
    std::mt19937 rng(seed);
    stg::StgBuilder b("random-" + std::to_string(seed));
    auto coin = [&](double p) {
        return std::uniform_real_distribution<>(0.0, 1.0)(rng) < p;
    };

    struct PlaceInfo {
        std::string name;
        unsigned code;
    };
    std::vector<std::vector<PlaceInfo>> machine_places(cfg.machines);
    std::vector<std::vector<std::string>> machine_signals(cfg.machines);

    for (int m = 0; m < cfg.machines; ++m) {
        std::string mp = "m";
        mp += std::to_string(m);
        mp += '_';
        std::vector<std::string>& signals = machine_signals[m];
        for (int z = 0; z < cfg.signals_per_machine; ++z) {
            const std::string name = mp + "s" + std::to_string(z);
            if (coin(0.5))
                b.input(name);
            else
                b.output(name);
            signals.push_back(name);
        }
        // Places carry component codes; edges toggle one signal.
        std::vector<PlaceInfo>& places = machine_places[m];
        auto add_place = [&](unsigned code) {
            const std::string name = mp + "p" + std::to_string(places.size());
            b.place(name, places.empty() ? 1 : 0);
            places.push_back({name, code});
            return places.size() - 1;
        };
        add_place(0u);
        int edge_counter = 0;
        int dummy_counter = 0;
        for (std::size_t p = 0; p < places.size(); ++p) {
            // Drawn only when the knob is on, so every other configuration
            // keeps its random stream (and its nets).
            if (p > 0 && cfg.sink_probability > 0.0 && coin(cfg.sink_probability))
                continue;
            const int out_edges = 1 + (coin(cfg.branch_probability) ? 1 : 0);
            for (int e = 0; e < out_edges; ++e) {
                const int z =
                    std::uniform_int_distribution<>(0, cfg.signals_per_machine - 1)(
                        rng);
                const unsigned target_code = places[p].code ^ (1u << z);
                // Reuse an existing place with the right code, or grow.
                std::size_t target = places.size();
                std::vector<std::size_t> candidates;
                for (std::size_t q = 0; q < places.size(); ++q)
                    if (places[q].code == target_code) candidates.push_back(q);
                const bool may_grow =
                    places.size() < static_cast<std::size_t>(cfg.places_per_machine);
                if (!candidates.empty() && (!may_grow || coin(0.6))) {
                    target = candidates[std::uniform_int_distribution<std::size_t>(
                        0, candidates.size() - 1)(rng)];
                } else if (may_grow) {
                    target = add_place(target_code);
                } else {
                    continue;  // cannot close consistently; skip this edge
                }
                const bool rising = ((places[p].code >> z) & 1u) == 0;
                const std::string label = signals[static_cast<std::size_t>(z)] +
                                          (rising ? "+" : "-") + "/" +
                                          std::to_string(edge_counter++);
                b.arc(places[p].name, label);
                if (coin(cfg.dummy_probability)) {
                    // Splice a securely contractable dummy into this edge:
                    // label -> mid -> tau -> target.  `mid` stays out of the
                    // reuse pool so the dummy remains mid's only consumer.
                    const std::string mid =
                        mp + "mid" + std::to_string(dummy_counter);
                    const std::string tau =
                        mp + "tau" + std::to_string(dummy_counter++);
                    b.place(mid, 0).dummy(tau);
                    b.arc(label, mid).arc(mid, tau);
                    b.arc(tau, places[target].name);
                } else {
                    b.arc(label, places[target].name);
                }
            }
        }
    }

    // Cross-machine synchronisation: a transition consuming one place of
    // machine A and one of B, toggling a signal of A, and producing places
    // with compatible codes -- consistency and per-machine safety are
    // preserved by construction.
    int added_syncs = 0;
    for (int attempt = 0; attempt < cfg.sync_transitions * 10 &&
                          added_syncs < cfg.sync_transitions && cfg.machines >= 2;
         ++attempt) {
        const int ma = std::uniform_int_distribution<>(0, cfg.machines - 1)(rng);
        int mb = std::uniform_int_distribution<>(0, cfg.machines - 2)(rng);
        if (mb >= ma) ++mb;
        auto& pa = machine_places[ma];
        auto& pb = machine_places[mb];
        const std::size_t ia =
            std::uniform_int_distribution<std::size_t>(0, pa.size() - 1)(rng);
        const std::size_t ib =
            std::uniform_int_distribution<std::size_t>(0, pb.size() - 1)(rng);
        const int z =
            std::uniform_int_distribution<>(0, cfg.signals_per_machine - 1)(rng);
        const unsigned target_code = pa[ia].code ^ (1u << z);
        std::vector<std::size_t> a_targets;
        for (std::size_t q = 0; q < pa.size(); ++q)
            if (pa[q].code == target_code) a_targets.push_back(q);
        if (a_targets.empty()) continue;
        const std::size_t qa = a_targets[std::uniform_int_distribution<std::size_t>(
            0, a_targets.size() - 1)(rng)];
        std::vector<std::size_t> b_targets;
        for (std::size_t q = 0; q < pb.size(); ++q)
            if (pb[q].code == pb[ib].code) b_targets.push_back(q);
        const std::size_t qb = b_targets[std::uniform_int_distribution<std::size_t>(
            0, b_targets.size() - 1)(rng)];
        const bool rising = ((pa[ia].code >> z) & 1u) == 0;
        // Numeric instance suffix well above the per-machine edge counters.
        const std::string label = machine_signals[ma][static_cast<std::size_t>(z)] +
                                  (rising ? "+" : "-") + "/" +
                                  std::to_string(900000 + added_syncs);
        b.arc(pa[ia].name, label);
        b.arc(pb[ib].name, label);
        b.arc(label, pa[qa].name);
        b.arc(label, pb[qb].name);
        ++added_syncs;
    }
    return b.build();
}

}  // namespace stgcc::test
