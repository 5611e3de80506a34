// stgcc -- the shared semantic result-cache tier ("stgcore",
// docs/CACHING.md): the canonical hash of the checked net, and name-based
// (de)serialization of VerificationReport.
//
// The "stgcore" cache tier keys a *pre-translation* report -- witnesses
// still expressed on the checked net (the contracted one when the input had
// dummies) -- by that net's canonical hash.  Two different inputs that
// check the same net (rotated spellings, or dummy nets that contract to
// one net) then share one entry; each input decodes the stored report
// against its *own* copy of the checked net and translates the witnesses
// through its own witness map, so the rendered output is always faithful
// to that input.  Transitions and places are therefore addressed by name
// (names are part of the canonical text, so equal hashes imply equal name
// sets); codes and signal sets are bit strings over SignalId (signal order
// is likewise canonical).  Volatile data -- solver stats and jobs -- is
// deliberately not encoded; decoded reports carry zeroed stats, matching
// the volatile-key stripping of every byte-compare consumer.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/verifier.hpp"

namespace stgcc::core {

/// Deterministic canonical text of an STG (signals, places with markings,
/// transitions with labels, sorted arc lists) -- two STGs with equal
/// canonical text are structurally identical, names included.
[[nodiscard]] std::string canonical_text(const stg::Stg& stg);

/// FNV-1a hash of canonical_text: the key of the "stgcore" tier.
[[nodiscard]] std::uint64_t semantic_hash(const stg::Stg& stg);

/// Schema version embedded in every payload; bump on layout change (a
/// mismatch decodes as nullopt, i.e. a cache miss).
inline constexpr std::int64_t kReportCodecVersion = 1;

/// Serialize the non-volatile part of `report`.  `checked` is the net the
/// checks ran on (the contracted net when the input had dummies; the
/// report's witnesses must still refer to it).
[[nodiscard]] obs::Json encode_report(const VerificationReport& report,
                                      const stg::Stg& checked);

/// Rebuild a report from `payload` against this input's own checked net.
/// nullopt on any version/name/shape mismatch (treated as a cache miss).
/// artifacts is null and stats are zero in the result; reduced_stg is the
/// caller's.
[[nodiscard]] std::optional<VerificationReport> decode_report(
    const obs::Json& payload, const stg::Stg& checked);

}  // namespace stgcc::core
