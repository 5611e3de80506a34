// stgcc -- the command-line flags stgcheck and stgbatch share.
//
// Both front ends verify STGs with the same checker options, the same
// result cache and the same stgd client, so those flags are parsed here,
// once: one spelling, one validation (bad numbers exit 2), one set of
// --help lines and one $STGCC_CACHE_DIR resolution.  Each tool declares only its own flags (ToolFlag).
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "svc/protocol.hpp"

namespace stgcc::svc {

/// The shared flags, parsed and validated.
struct CliOptions {
    const char* input = nullptr;  ///< the positional argument (last wins)
    /// --no-normalcy, --deadlock, --no-cache (use_cache).
    CheckOptions check;
    unsigned jobs = 0;             ///< --jobs N (0 = hardware concurrency)
    /// Result-cache root: --cache-dir, else $STGCC_CACHE_DIR; "" (no result
    /// cache) under --no-cache.
    std::string cache_dir;
    const char* connect = nullptr;  ///< --connect EP (null = run locally)
    std::uint64_t deadline_ms = 0;  ///< --deadline-ms D (0 = none)
    const char* json = nullptr;     ///< --json FILE
    const char* trace = nullptr;    ///< --trace FILE
};

/// One tool-specific flag: a switch setting `*on`, or, when `arg` names a
/// value ("FILE"), `--flag VALUE` storing into `*value`.
struct ToolFlag {
    const char* name;  ///< "--persistency"
    const char* help;  ///< help text; '\n' continues on an indented line
    bool* on = nullptr;
    const char** value = nullptr;
    const char* arg = nullptr;
};

/// What a tool adds around the shared flags.
struct CliTool {
    const char* usage;          ///< "usage: ..." line plus description
    const char* missing_input;  ///< error when no positional argument
    std::vector<ToolFlag> flags;
    const char* exit_codes;     ///< closing "exit codes: ..." text
};

void print_usage(std::ostream& out, const CliTool& tool);

/// A whole-argument unsigned decimal flag value: one or more digits and
/// nothing else, at most `max`.  False after reporting "bad FLAG value:
/// TEXT" on stderr.
[[nodiscard]] bool parse_flag_number(const char* flag, const char* text,
                                     std::uint64_t& value,
                                     std::uint64_t max = UINT64_MAX);

/// The result-cache root: `flag` when given, else $STGCC_CACHE_DIR, else
/// "" (no result cache).
[[nodiscard]] std::string resolve_cache_dir(const char* flag);

/// Parse argv into `out`.  nullopt = go ahead; otherwise the process exit
/// code to return right away: 0 after --help (usage on stdout), 2 on a
/// usage error (message on stderr).
[[nodiscard]] std::optional<int> parse_cli(int argc, char** argv,
                                           const CliTool& tool,
                                           CliOptions& out);

}  // namespace stgcc::svc
