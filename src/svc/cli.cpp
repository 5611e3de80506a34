#include "svc/cli.hpp"

#include <algorithm>
#include <cstdlib>
#include <iomanip>
#include <iostream>
#include <string_view>

#include "sched/parallel.hpp"
#include "util/decimal.hpp"

namespace stgcc::svc {

namespace {

void print_flag(std::ostream& out, const std::string& flag, const char* help) {
    out << "  " << std::left << std::setw(20) << flag;
    if (flag.size() >= 20) out << "\n" << std::string(22, ' ');
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
    for (const ToolFlag& f : tool.flags)
        print_flag(out, f.arg ? std::string(f.name) + " " + f.arg : f.name,
                   f.help);
    print_flag(out, "-h, --help", "print this help");
    out << "\n" << tool.exit_codes;
}

std::optional<int> parse_args(int argc, char** argv, const CliTool& tool) {
    for (int i = 1; i < argc; ++i) {
        const std::string_view a = argv[i];
        if (a == "-h" || a == "--help") {
            print_usage(std::cout, tool);
            return 0;
        }
        if (!a.starts_with('-') && tool.positionals) {
            tool.positionals->push_back(argv[i]);
            continue;
        }
        const auto flag =
            std::find_if(tool.flags.begin(), tool.flags.end(),
                         [&](const ToolFlag& f) { return a == f.name; });
        if (flag == tool.flags.end()) {
            std::cerr << "unknown option: " << a << "\n";
            print_usage(std::cerr, tool);
            return 2;
        }
        if (bool* const* on = std::get_if<bool*>(&flag->target)) {
            **on = true;
            continue;
        }
        // A value flag takes the next argument, whatever it looks like.
        if (i + 1 == argc) {
            std::cerr << a << " needs a value\n";
            return 2;
        }
        const char* text = argv[++i];
        if (const char** const* value = std::get_if<const char**>(&flag->target))
            **value = text;
        else if (const auto* values =
                     std::get_if<std::vector<const char*>*>(&flag->target))
            (*values)->push_back(text);
        else if (const FlagNumber& n = std::get<FlagNumber>(flag->target);
                 !parse_flag_number(flag->name, text, *n.value, n.max))
            return 2;
    }
    if (tool.missing_input && tool.positionals->empty()) {
        std::cerr << tool.missing_input << "\n";
        print_usage(std::cerr, tool);
        return 2;
    }
    return std::nullopt;
}

std::optional<int> parse_cli(int argc, char** argv, const CliTool& tool,
                             CliOptions& out) {
    bool no_normalcy = false, no_cache = false;
    std::uint64_t jobs = out.jobs;
    const char* cache_dir = nullptr;
    std::vector<const char*> inputs;
    CliTool shared = tool;
    shared.positionals = &inputs;
    shared.flags = {
        {"--jobs",
         "worker threads (default: hardware concurrency;\n"
         "1 = serial; verdicts are identical at any N)",
         FlagNumber{&jobs, sched::Executor::kMaxJobs}, "N"},
        {"--no-normalcy", "skip the normalcy check", &no_normalcy},
        {"--deadlock", "also run the deadlock check (section 5)",
         &out.check.deadlock},
        {"--json", "write a machine-readable JSON report", &out.json, "FILE"},
        {"--trace", "write a Chrome trace-event JSON (chrome://tracing)",
         &out.trace, "FILE"},
        {"--cache-dir",
         "on-disk result cache (docs/CACHING.md; default:\n"
         "$STGCC_CACHE_DIR; unset = no result cache)",
         &cache_dir, "DIR"},
        {"--no-cache", "disable the result caches (verdicts are unchanged)",
         &no_cache},
        {"--connect",
         "verify through a running stgd at EP (unix:/path or\n"
         "host:port; docs/SERVICE.md); output and exit codes\n"
         "match a local run",
         &out.connect, "EP"},
        {"--deadline-ms", "per-request deadline (--connect only)",
         FlagNumber{&out.deadline_ms}, "D"},
    };
    shared.flags.insert(shared.flags.end(), tool.flags.begin(),
                        tool.flags.end());
    if (const auto rc = parse_args(argc, argv, shared)) return rc;
    out.input = inputs.back();
    out.jobs = static_cast<unsigned>(jobs);
    if (no_normalcy) out.check.normalcy = false;
    if (no_cache) out.check.use_cache = false;
    if (out.check.use_cache) out.cache_dir = resolve_cache_dir(cache_dir);
    return std::nullopt;
}

}  // namespace stgcc::svc
