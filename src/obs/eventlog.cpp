#include "obs/eventlog.hpp"

#include <chrono>
#include <cstdio>
#include <random>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace stgcc::obs {

const char* log_level_name(LogLevel level) noexcept {
    switch (level) {
        case LogLevel::Debug: return "debug";
        case LogLevel::Info: return "info";
        case LogLevel::Warn: return "warn";
        case LogLevel::Error: return "error";
    }
    return "info";
}

bool parse_log_level(std::string_view text, LogLevel& out) {
    if (text == "debug") out = LogLevel::Debug;
    else if (text == "info") out = LogLevel::Info;
    else if (text == "warn") out = LogLevel::Warn;
    else if (text == "error") out = LogLevel::Error;
    else return false;
    return true;
}

EventLog::EventLog(std::string path, LogLevel min_level,
                   std::uint64_t max_bytes)
    : path_(std::move(path)), min_level_(min_level), max_bytes_(max_bytes) {
    if (max_bytes_ == 0) max_bytes_ = 1;  // rotate every record; never divide
    if (path_.empty()) return;
    // Resume an existing file's size so rotation accounting survives a
    // daemon restart pointing at the same path.
    if (std::FILE* f = std::fopen(path_.c_str(), "rb")) {
        std::fseek(f, 0, SEEK_END);
        const long size = std::ftell(f);
        if (size > 0) bytes_ = static_cast<std::uint64_t>(size);
        std::fclose(f);
    }
}

bool EventLog::write(LogLevel level, std::string_view event, Json fields) {
    if (!should_log(level)) return false;
    const auto now = std::chrono::system_clock::now().time_since_epoch();
    const auto ts_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(now).count();
    Json record = Json::object()
                      .set("ts_ms", static_cast<std::int64_t>(ts_ms))
                      .set("level", log_level_name(level))
                      .set("event", std::string(event))
                      .merge(fields);
    std::string line = record.dump();
    line += '\n';

    std::lock_guard<std::mutex> lock(mu_);
    if (bytes_ > 0 && bytes_ + line.size() > max_bytes_) {
        // Rotate: the live file becomes <path>.1 (clobbering the previous
        // rotation) and the next open starts fresh.
        const std::string rotated = path_ + ".1";
        std::remove(rotated.c_str());
        std::rename(path_.c_str(), rotated.c_str());
        bytes_ = 0;
    }
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    if (!f) return false;
    const std::size_t n = std::fwrite(line.data(), 1, line.size(), f);
    std::fclose(f);
    if (n != line.size()) return false;
    bytes_ += line.size();
    ++records_;
    return true;
}

std::uint64_t EventLog::records_written() const noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
}

std::string generate_trace_id() {
    thread_local std::mt19937_64 rng = [] {
        std::random_device rd;
        std::seed_seq seed{
            rd(), rd(),
            static_cast<unsigned>(
                std::chrono::steady_clock::now().time_since_epoch().count()),
#if defined(__unix__) || defined(__APPLE__)
            static_cast<unsigned>(::getpid()),
#endif
            static_cast<unsigned>(std::hash<std::thread::id>{}(
                std::this_thread::get_id()))};
        return std::mt19937_64(seed);
    }();
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(rng()));
    return std::string(buf, 16);
}

bool plausible_trace_id(std::string_view id) noexcept {
    if (id.empty() || id.size() > 64) return false;
    for (const char c : id) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_' || c == '.' ||
                        c == '-';
        if (!ok) return false;
    }
    return true;
}

}  // namespace stgcc::obs
