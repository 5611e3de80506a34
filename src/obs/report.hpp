// stgcc -- machine-readable report plumbing shared by `stgcheck` and the
// bench harness.
//
// A report is an obs::Json document with a small fixed envelope
// ({"tool", "schema_version", ...payload}).  Benches write
// `BENCH_<name>.json` files (into $STGCC_BENCH_JSON_DIR or the working
// directory) so the perf trajectory is trackable across PRs; `stgcheck
// --json` writes a verification report including the metrics snapshot.
#pragma once

#include <string>

#include "obs/json.hpp"

namespace stgcc::obs {

inline constexpr int kReportSchemaVersion = 4;

/// Wrap `payload` members into the standard report envelope.
[[nodiscard]] Json make_report(const std::string& tool, Json payload);

/// Write the tracer's Chrome trace-event JSON to `path`.  Returns false on
/// IO failure.
bool write_chrome_trace(const std::string& path);

/// Write `BENCH_<name>.json` with the standard envelope.  The directory is
/// $STGCC_BENCH_JSON_DIR when set, else the current working directory.
/// Returns the path written, or an empty string on IO failure.
std::string write_bench_report(const std::string& name, Json payload);

}  // namespace stgcc::obs
