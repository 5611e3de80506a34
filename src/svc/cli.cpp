#include "svc/cli.hpp"

#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <iostream>

#include "sched/parallel.hpp"
#include "util/decimal.hpp"

namespace stgcc::svc {

namespace {

constexpr const char* kSharedHelp[][2] = {
    {"--jobs N", "worker threads (default: hardware concurrency;\n"
                 "1 = serial; verdicts are identical at any N)"},
    {"--no-normalcy", "skip the normalcy check"},
    {"--deadlock", "also run the deadlock check (section 5)"},
    {"--json FILE", "write a machine-readable JSON report"},
    {"--trace FILE", "write a Chrome trace-event JSON (chrome://tracing)"},
    {"--cache-dir DIR", "on-disk result cache (docs/CACHING.md; default:\n"
                        "$STGCC_CACHE_DIR; unset = no result cache)"},
    {"--no-cache", "disable the result caches (verdicts are unchanged)"},
    {"--connect EP", "verify through a running stgd at EP (unix:/path or\n"
                     "host:port; docs/SERVICE.md); output and exit codes\n"
                     "match a local run"},
    {"--deadline-ms D", "per-request deadline (--connect only)"},
    {"-h, --help", "print this help"},
};

void print_flag(std::ostream& out, const std::string& flag, const char* help) {
    out << "  " << std::left << std::setw(20) << flag;
    for (; *help; ++help) {
        out << *help;
        if (*help == '\n') out << std::string(22, ' ');
    }
    out << "\n";
}

}  // namespace

bool parse_flag_number(const char* flag, const char* text,
                       std::uint64_t& value, std::uint64_t max) {
    if (const auto parsed = util::parse_decimal(text, max)) {
        value = *parsed;
        return true;
    }
    std::cerr << "bad " << flag << " value: " << text << "\n";
    return false;
}

std::string resolve_cache_dir(const char* flag) {
    if (flag) return flag;
    const char* env = std::getenv("STGCC_CACHE_DIR");
    return env ? env : "";
}

void print_usage(std::ostream& out, const CliTool& tool) {
    out << tool.usage << "\noptions:\n";
    for (const auto& [flag, help] : kSharedHelp) print_flag(out, flag, help);
    if (!tool.flags.empty()) {
        out << "\n";
        for (const ToolFlag& f : tool.flags)
            print_flag(out,
                       f.arg ? std::string(f.name) + " " + f.arg : f.name,
                       f.help);
    }
    out << "\n" << tool.exit_codes;
}

std::optional<int> parse_cli(int argc, char** argv, const CliTool& tool,
                             CliOptions& out) {
    if (argc < 2) {
        print_usage(std::cerr, tool);
        return 2;
    }
    const char* cache_dir = nullptr;
    for (int i = 1; i < argc; ++i) {
        const char* a = argv[i];
        // Value flags take the next argument, whatever it looks like; a
        // value flag in last position is an unknown option.
        const bool has_value = i + 1 < argc;
        const auto is = [&](const char* flag) { return !std::strcmp(a, flag); };
        const auto value_flag = [&](const char* flag) {
            return has_value && is(flag);
        };
        const ToolFlag* own = nullptr;
        for (const ToolFlag& f : tool.flags)
            if (is(f.name) && (f.on || has_value)) own = &f;
        std::uint64_t number = 0;
        if (is("-h") || is("--help")) {
            print_usage(std::cout, tool);
            return 0;
        } else if (is("--no-normalcy")) {
            out.check.normalcy = false;
        } else if (is("--deadlock")) {
            out.check.deadlock = true;
        } else if (is("--no-cache")) {
            out.check.use_cache = false;
        } else if (value_flag("--jobs")) {
            if (!parse_flag_number("--jobs", argv[++i], number,
                                   sched::Executor::kMaxJobs))
                return 2;
            out.jobs = static_cast<unsigned>(number);
        } else if (value_flag("--deadline-ms")) {
            if (!parse_flag_number("--deadline-ms", argv[++i], out.deadline_ms))
                return 2;
        } else if (value_flag("--cache-dir")) {
            cache_dir = argv[++i];
        } else if (value_flag("--connect")) {
            out.connect = argv[++i];
        } else if (value_flag("--json")) {
            out.json = argv[++i];
        } else if (value_flag("--trace")) {
            out.trace = argv[++i];
        } else if (own) {
            if (own->on)
                *own->on = true;
            else
                *own->value = argv[++i];
        } else if (a[0] != '-') {
            out.input = a;
        } else {
            std::cerr << "unknown option: " << a << "\n";
            print_usage(std::cerr, tool);
            return 2;
        }
    }
    if (!out.input) {
        std::cerr << tool.missing_input << "\n";
        return 2;
    }
    if (out.check.use_cache) out.cache_dir = resolve_cache_dir(cache_dir);
    return std::nullopt;
}

}  // namespace stgcc::svc
