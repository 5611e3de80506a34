// stgcc -- name-based (de)serialization of VerificationReport for the
// shared semantic result-cache tier (docs/CACHING.md).
//
// The "stgcore" cache tier keys a *pre-translation* report -- witnesses
// still expressed on the reduced net -- by the reduced net's canonical
// hash.  Two different inputs that reduce to the same net then share one
// entry; each input decodes the stored report against its *own* copy of
// the reduced net and translates the witnesses through its own witness
// chain, so the rendered output is always faithful to that input.
// Transitions and places are therefore addressed by name (names are part
// of the canonical text, so equal hashes imply equal name sets); codes and
// signal sets are bit strings over SignalId (signal order is likewise
// canonical).  Volatile data -- solver stats and jobs -- is deliberately
// not encoded; decoded reports carry zeroed stats, matching the
// volatile-key stripping of every byte-compare consumer.
#pragma once

#include <optional>

#include "core/verifier.hpp"

namespace stgcc::core {

/// Schema version embedded in every payload; bump on layout change (a
/// mismatch decodes as nullopt, i.e. a cache miss).
inline constexpr std::int64_t kReportCodecVersion = 1;

/// Serialize the non-volatile part of `report`.  `checked` is the net the
/// checks ran on (the reduced net; the report's witnesses must still refer
/// to it -- encode before translate_report).
[[nodiscard]] obs::Json encode_report(const VerificationReport& report,
                                      const stg::Stg& checked);

/// Rebuild a report from `payload` against this input's own reduced net.
/// nullopt on any version/name/shape mismatch (treated as a cache miss).
/// artifacts is null and stats are zero in the result; reduction
/// bookkeeping (reduced_stg, summary) is the caller's.
[[nodiscard]] std::optional<VerificationReport> decode_report(
    const obs::Json& payload, const stg::Stg& checked);

}  // namespace stgcc::core
