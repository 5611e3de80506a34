// stgcc -- Signal Transition Graphs.
//
// An Stg is a net system whose transitions carry signal-edge labels
// (z+ / z-), or a dummy label tau.  The verification algorithms in this
// library assume dummy-free STGs (as does the paper; the dummy case is
// delegated to the full technical report) -- checkers reject STGs with
// dummies up front via require_dummy_free().
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "petri/net_system.hpp"
#include "stg/signal.hpp"
#include "util/bitvec.hpp"

namespace stgcc::stg {

/// A binary signal code vector; bit i is the value of signal i.
using Code = BitVec;

class Stg {
public:
    Stg() = default;

    // --- construction -----------------------------------------------------

    SignalId add_signal(std::string name, SignalKind kind);

    /// Add a transition labelled with a signal edge.  `name` is the net-level
    /// transition name (e.g. "dsr+" or "dsr+/1") and must be unique.
    petri::TransitionId add_transition(std::string name, Label label);

    /// Add a dummy (tau-labelled) transition.
    petri::TransitionId add_dummy_transition(std::string name);

    petri::PlaceId add_place(std::string name) { return sys_.net().add_place(std::move(name)); }
    void add_arc_pt(petri::PlaceId p, petri::TransitionId t) { sys_.net().add_arc_pt(p, t); }
    void add_arc_tp(petri::TransitionId t, petri::PlaceId p) { sys_.net().add_arc_tp(t, p); }
    void set_initial_marking(petri::Marking m) { sys_.set_initial_marking(std::move(m)); }

    void set_name(std::string name) { name_ = std::move(name); }

    // --- access -----------------------------------------------------------

    [[nodiscard]] const std::string& name() const noexcept { return name_; }
    [[nodiscard]] const petri::NetSystem& system() const noexcept { return sys_; }
    [[nodiscard]] const petri::Net& net() const noexcept { return sys_.net(); }

    [[nodiscard]] std::size_t num_signals() const noexcept { return signal_names_.size(); }
    [[nodiscard]] const std::string& signal_name(SignalId z) const {
        STGCC_REQUIRE(z < num_signals());
        return signal_names_[z];
    }
    [[nodiscard]] SignalKind signal_kind(SignalId z) const {
        STGCC_REQUIRE(z < num_signals());
        return signal_kinds_[z];
    }
    [[nodiscard]] SignalId find_signal(std::string_view name) const;

    /// Signals driven by the circuit (outputs + internals), ascending.
    [[nodiscard]] std::vector<SignalId> circuit_driven_signals() const;

    [[nodiscard]] bool is_dummy(petri::TransitionId t) const {
        STGCC_REQUIRE(t < labels_.size());
        return !labels_[t].has_value();
    }
    [[nodiscard]] Label label(petri::TransitionId t) const {
        STGCC_REQUIRE(t < labels_.size());
        STGCC_REQUIRE(labels_[t].has_value());
        return *labels_[t];
    }
    [[nodiscard]] bool has_dummies() const;

    /// Throw ModelError, naming the dummies, when the STG contains any.
    void require_dummy_free() const;

    /// Human-readable label text, e.g. "dsr+" or "tau".
    [[nodiscard]] std::string label_text(petri::TransitionId t) const;

    // --- semantics helpers --------------------------------------------------

    /// Signal change vector of a firing sequence: per-signal difference
    /// between the number of rising and falling edges.
    [[nodiscard]] std::vector<int> change_vector(
        const std::vector<petri::TransitionId>& sequence) const;

    /// Apply one labelled transition to a code; throws ModelError when the
    /// edge is inconsistent with the current value (z+ while z=1 etc.).
    [[nodiscard]] Code code_after(const Code& code, petri::TransitionId t) const;

    /// The set of enabled circuit-driven signals Out(M), as a bit vector over
    /// signal ids.
    [[nodiscard]] BitVec out_signals(const petri::Marking& m) const;

    /// True when some transition of signal z is enabled at m.
    [[nodiscard]] bool signal_enabled(const petri::Marking& m, SignalId z) const;

    /// Boolean next-state function Nxt_z(M) (paper, section 6).  `code` must
    /// be the code of marking m.
    [[nodiscard]] bool nxt(const petri::Marking& m, const Code& code, SignalId z) const;

    /// Render a firing sequence as labels, e.g. "dsr+ lds+ ldtack+".
    [[nodiscard]] std::string sequence_text(
        const std::vector<petri::TransitionId>& sequence) const;

private:
    petri::NetSystem sys_;
    std::string name_ = "stg";
    std::vector<std::string> signal_names_;
    std::vector<SignalKind> signal_kinds_;
    std::unordered_map<std::string, SignalId> signal_index_;
    std::vector<std::optional<Label>> labels_;  // per transition
};

}  // namespace stgcc::stg
