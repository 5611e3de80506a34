#include "stg/stg.hpp"

namespace stgcc::stg {

SignalId Stg::add_signal(std::string name, SignalKind kind) {
    STGCC_REQUIRE(!name.empty());
    STGCC_REQUIRE(signal_index_.find(name) == signal_index_.end());
    const SignalId id = static_cast<SignalId>(signal_names_.size());
    signal_index_.emplace(name, id);
    signal_names_.push_back(std::move(name));
    signal_kinds_.push_back(kind);
    return id;
}

petri::TransitionId Stg::add_transition(std::string name, Label label) {
    STGCC_REQUIRE(label.signal < num_signals());
    const petri::TransitionId t = sys_.net().add_transition(std::move(name));
    labels_.emplace_back(label);
    return t;
}

petri::TransitionId Stg::add_dummy_transition(std::string name) {
    const petri::TransitionId t = sys_.net().add_transition(std::move(name));
    labels_.emplace_back(std::nullopt);
    return t;
}

SignalId Stg::find_signal(std::string_view name) const {
    auto it = signal_index_.find(std::string(name));
    return it == signal_index_.end() ? kNoSignal : it->second;
}

std::vector<SignalId> Stg::circuit_driven_signals() const {
    std::vector<SignalId> out;
    for (SignalId z = 0; z < num_signals(); ++z)
        if (is_circuit_driven(signal_kinds_[z])) out.push_back(z);
    return out;
}

bool Stg::has_dummies() const {
    for (const auto& l : labels_)
        if (!l.has_value()) return true;
    return false;
}

void Stg::require_dummy_free() const {
    if (!has_dummies()) return;
    std::string names;
    for (petri::TransitionId t = 0; t < net().num_transitions(); ++t) {
        if (!is_dummy(t)) continue;
        if (!names.empty()) names += ", ";
        names += net().transition_name(t);
    }
    throw ModelError("STG '" + name_ + "' contains dummy transitions (" +
                     names +
                     "); the coding-conflict checkers require a dummy-free "
                     "STG");
}

std::string Stg::label_text(petri::TransitionId t) const {
    if (is_dummy(t)) return "tau";
    const Label l = label(t);
    return signal_names_[l.signal] + polarity_char(l.polarity);
}

std::vector<int> Stg::change_vector(
    const std::vector<petri::TransitionId>& sequence) const {
    std::vector<int> v(num_signals(), 0);
    for (petri::TransitionId t : sequence) {
        if (is_dummy(t)) continue;
        const Label l = label(t);
        v[l.signal] += l.delta();
    }
    return v;
}

Code Stg::code_after(const Code& code, petri::TransitionId t) const {
    STGCC_REQUIRE(code.size() == num_signals());
    if (is_dummy(t)) return code;
    const Label l = label(t);
    const bool cur = code.test(l.signal);
    const bool rising = l.polarity == Polarity::Rising;
    if (cur == rising)
        throw ModelError("inconsistent edge " + label_text(t) + ": signal " +
                         signal_names_[l.signal] + " already has value " +
                         (cur ? "1" : "0"));
    Code next = code;
    next.assign_bit(l.signal, rising);
    return next;
}

BitVec Stg::out_signals(const petri::Marking& m) const {
    BitVec out(num_signals());
    for (petri::TransitionId t = 0; t < net().num_transitions(); ++t) {
        if (is_dummy(t)) continue;
        const Label l = label(t);
        if (!is_circuit_driven(signal_kinds_[l.signal])) continue;
        if (out.test(l.signal)) continue;
        if (sys_.enabled(m, t)) out.set(l.signal);
    }
    return out;
}

bool Stg::signal_enabled(const petri::Marking& m, SignalId z) const {
    for (petri::TransitionId t = 0; t < net().num_transitions(); ++t) {
        if (is_dummy(t) || label(t).signal != z) continue;
        if (sys_.enabled(m, t)) return true;
    }
    return false;
}

bool Stg::nxt(const petri::Marking& m, const Code& code, SignalId z) const {
    STGCC_REQUIRE(code.size() == num_signals());
    const bool value = code.test(z);
    // Nxt flips the current value exactly when an edge of z is enabled;
    // by consistency only the value-compatible edge can be enabled.
    return signal_enabled(m, z) ? !value : value;
}

std::string Stg::sequence_text(
    const std::vector<petri::TransitionId>& sequence) const {
    std::string out;
    for (std::size_t i = 0; i < sequence.size(); ++i) {
        if (i) out += ' ';
        out += label_text(sequence[i]);
    }
    return out;
}

}  // namespace stgcc::stg
