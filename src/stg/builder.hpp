// stgcc -- convenient construction of STGs.
//
// StgBuilder offers the textual conventions of the ASTG interchange format:
// transitions are referred to by edge text ("dsr+", "lds-/1"), places are
// either declared explicitly or created implicitly between two transitions
// (the `<t1,t2>` places of .g files).  The builder is used by the .g parser,
// the benchmark generators, tests and examples.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "stg/stg.hpp"

namespace stgcc::stg {

class StgBuilder {
public:
    explicit StgBuilder(std::string model_name = "stg");

    // --- signal declarations ------------------------------------------------
    StgBuilder& input(const std::string& name) { return signal(name, SignalKind::Input); }
    StgBuilder& output(const std::string& name) { return signal(name, SignalKind::Output); }
    StgBuilder& internal(const std::string& name) { return signal(name, SignalKind::Internal); }
    StgBuilder& signal(const std::string& name, SignalKind kind);

    /// Declare a dummy "signal" name; bare occurrences of this name (with an
    /// optional /k instance suffix) denote tau-labelled transitions.
    StgBuilder& dummy(const std::string& name);

    // --- structure ------------------------------------------------------------

    /// Declare an explicit place with an initial token count.
    StgBuilder& place(const std::string& name, std::uint32_t tokens = 0);

    /// Add an arc between two nodes.  Each endpoint is either a declared
    /// place name or transition edge text ("a+", "a-/2", or a declared dummy
    /// name).  Transition->transition arcs create the implicit place
    /// "<from,to>" in between; transition endpoints are created on first use.
    StgBuilder& arc(const std::string& from, const std::string& to);

    /// Chain of arcs: arc(n0,n1), arc(n1,n2), ...
    StgBuilder& chain(const std::vector<std::string>& nodes);

    /// Put `count` tokens on the implicit place between two transitions
    /// (the `<t1,t2>` entries of a .g .marking line).  The place must exist.
    StgBuilder& token_between(const std::string& from, const std::string& to,
                              std::uint32_t count = 1);

    /// Set the token count of a declared place.  Like token_between, at
    /// most once per place: a second call for the same place, through
    /// either, is a ModelError naming it.
    StgBuilder& tokens(const std::string& place_name, std::uint32_t count);

    /// Finish; validates that every referenced transition's signal exists and
    /// that every transition has at least one input and one output place.
    [[nodiscard]] Stg build();

private:
    enum class NodeKind { Place, Transition };
    struct Node {
        NodeKind kind;
        std::uint32_t id;  // PlaceId or TransitionId
    };

    Node resolve(const std::string& text);
    petri::TransitionId transition_for(const std::string& text);
    petri::PlaceId implicit_place(const std::string& from, const std::string& to,
                                  bool create);
    void mark(petri::PlaceId p, std::uint32_t count);

    Stg stg_;
    std::unordered_map<std::string, petri::PlaceId> places_;
    std::unordered_map<std::string, petri::TransitionId> transitions_;
    std::unordered_map<std::string, bool> dummies_;
    std::vector<std::uint32_t> init_tokens_;  // per place
    std::vector<bool> marked_;                // per place: tokens()/token_between() done
    bool built_ = false;
};

}  // namespace stgcc::stg
