#include "cache/result_cache.hpp"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>

#ifdef _WIN32
#include <process.h>
#else
#include <unistd.h>
#endif

#include "obs/metrics.hpp"

namespace stgcc::cache {

namespace fs = std::filesystem;

std::uint64_t fnv1a64(std::string_view bytes) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::optional<std::string> read_file_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    if (in.bad()) return std::nullopt;
    return std::move(buf).str();
}

namespace {

std::string hex64(std::uint64_t v) {
    static const char* digits = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i, v >>= 4) out[i] = digits[v & 0xf];
    return out;
}

}  // namespace

ResultCache::ResultCache(std::string dir) : dir_(std::move(dir)) {}

std::string ResultCache::entry_path(std::string_view tool,
                                    std::uint64_t content_hash,
                                    const std::string& options) const {
    // Options are hashed into the file name (they may contain '/' etc.) but
    // stored verbatim inside the entry, where load() compares them exactly.
    return (fs::path(dir_) /
            (std::string(tool) + "-" + hex64(content_hash) + "-" +
             hex64(fnv1a64(options)) + ".json"))
        .string();
}

std::optional<obs::Json> ResultCache::load(std::string_view tool,
                                           std::uint64_t content_hash,
                                           const std::string& options) const {
    if (!enabled()) return std::nullopt;
    const std::string path = entry_path(tool, content_hash, options);
    const auto bytes = read_file_bytes(path);
    if (!bytes) {
        obs::counter("cache.result.misses").add();
        return std::nullopt;
    }
    auto parsed = obs::Json::parse(*bytes);
    const obs::Json* value = nullptr;
    if (parsed && parsed->kind() == obs::Json::Kind::Object) {
        const obs::Json* version = parsed->find("cache_version");
        const obs::Json* hash = parsed->find("content_hash");
        const obs::Json* opts = parsed->find("options");
        value = parsed->find("value");
        if (!version || version->as_int() != kFormatVersion || !hash ||
            hash->as_string() != hex64(content_hash) || !opts ||
            opts->as_string() != options)
            value = nullptr;
    }
    if (!value) {
        // Truncated, corrupted or stale-format entry: evict and recompute.
        std::error_code ec;
        fs::remove(path, ec);
        obs::counter("cache.result.evicted").add();
        obs::counter("cache.result.misses").add();
        return std::nullopt;
    }
    obs::counter("cache.result.hits").add();
    return *value;
}

bool ResultCache::store(std::string_view tool, std::uint64_t content_hash,
                        const std::string& options, obs::Json value) const {
    if (!enabled()) return false;
    std::error_code ec;
    fs::create_directories(dir_, ec);
    obs::Json entry = obs::Json::object()
                          .set("cache_version", kFormatVersion)
                          .set("content_hash", hex64(content_hash))
                          .set("options", options)
                          .set("value", std::move(value));
    const std::string path = entry_path(tool, content_hash, options);
    // Atomic publish: write a writer-unique temp file, then rename over the
    // final name.  Readers either see the old entry, the new one, or none.
    // The temp name carries pid *and* a process-wide sequence number: two
    // threads of one process must never interleave writes into one temp
    // file (that was how racing writers could corrupt an entry).  Racing
    // writers of one key publish identical deterministic bytes, so the
    // last rename wins with nothing lost.
    static std::atomic<std::uint64_t> temp_seq{0};
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid()) + "." +
        std::to_string(temp_seq.fetch_add(1, std::memory_order_relaxed));
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) return false;
        out << entry.dump(2) << "\n";
        if (!out) {
            out.close();
            fs::remove(tmp, ec);
            return false;
        }
    }
    fs::rename(tmp, path, ec);
    if (ec) {
        fs::remove(tmp, ec);
        return false;
    }
    obs::counter("cache.result.stores").add();
    return true;
}

}  // namespace stgcc::cache
