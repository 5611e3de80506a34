// stgcc -- the one command-line parser of stgcheck, stgbatch, stgd, stgprof
// and stgtop.
//
// Each tool declares its flags as a table (CliTool) and parses argv with
// parse_args; --help is printed from the same table, so the help and the
// parser cannot drift apart.  One rule holds in every tool: a value flag
// takes the next argument, whatever it looks like; a value flag in last
// position ("FLAG needs a value"), an unknown flag ("unknown option: X"
// plus usage) and a malformed number ("bad FLAG value: X") exit 2.
// Checks on what a value means (an endpoint, a log level) stay with the
// tool, applied to the parsed text.
//
// The flags stgcheck and stgbatch share -- checker options, the result
// cache and the stgd client -- are parse_cli's table, with one
// $STGCC_CACHE_DIR resolution.
#pragma once

#include <cstdint>
#include <optional>
#include <ostream>
#include <string>
#include <variant>
#include <vector>

#include "svc/protocol.hpp"

namespace stgcc::svc {

/// The flags stgcheck and stgbatch share, parsed and validated.
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

/// An unsigned decimal flag value, at most `max` (parse_flag_number).
struct FlagNumber {
    std::uint64_t* value;
    std::uint64_t max = UINT64_MAX;
};

/// One flag; its target says what it takes.  A `bool*` is a switch that
/// sets it.  The others take the next argument: a `const char**` keeps the
/// last one given, a vector keeps each one, a FlagNumber reads a number.
struct ToolFlag {
    const char* name;  ///< "--persistency"
    const char* help;  ///< help text; '\n' continues on an indented line
    std::variant<bool*, const char**, std::vector<const char*>*, FlagNumber>
        target;
    const char* arg = nullptr;  ///< "FILE" in the help; null for a switch
};

/// A tool's command line.
struct CliTool {
    const char* usage;  ///< "usage: ..." line plus description
    /// When set, the error for a command line without a positional argument.
    const char* missing_input;
    std::vector<ToolFlag> flags;
    const char* exit_codes;  ///< closing "exit codes: ..." text
    /// Receives the positional arguments; null = each one is an unknown
    /// option.
    std::vector<const char*>* positionals = nullptr;
};

void print_usage(std::ostream& out, const CliTool& tool);

/// Parse argv through `tool`'s table into the flags' targets.  nullopt = go
/// ahead; otherwise the process exit code to return right away: 0 after
/// -h / --help (usage on stdout), 2 on a usage error (message on stderr).
[[nodiscard]] std::optional<int> parse_args(int argc, char** argv,
                                            const CliTool& tool);

/// A whole-argument unsigned decimal flag value: one or more digits and
/// nothing else, at most `max`.  False after reporting "bad FLAG value:
/// TEXT" on stderr.
[[nodiscard]] bool parse_flag_number(const char* flag, const char* text,
                                     std::uint64_t& value,
                                     std::uint64_t max = UINT64_MAX);

/// The result-cache root: `flag` when given, else $STGCC_CACHE_DIR, else
/// "" (no result cache).
[[nodiscard]] std::string resolve_cache_dir(const char* flag);

/// parse_args over the shared flags followed by `tool`'s own (`tool` gives
/// the usage, own flags, exit codes and missing-input error; it collects no
/// positionals itself).  Same return contract as parse_args.
[[nodiscard]] std::optional<int> parse_cli(int argc, char** argv,
                                           const CliTool& tool,
                                           CliOptions& out);

}  // namespace stgcc::svc
