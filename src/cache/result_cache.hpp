// stgcc -- tier-3 cache: on-disk verification-result cache (docs/CACHING.md).
//
// `stgcheck`, `stgbatch` and `stgd` re-verify the same corpora over and
// over (CI, nightly property fleets, regression sweeps).  This cache keys a
// finished verification result by
//   * the FNV-1a 64 hash of the model file's raw bytes (content-addressed:
//     renaming or touching the file does not invalidate, editing it does),
//   * an options signature string (the checker options that can change the
//     result -- normalcy / deadlock / persistency -- plus the
//     checker version; deliberately NOT --jobs, which the determinism
//     contract of docs/PARALLELISM.md guarantees result-neutral),
//   * the cache format version.
//
// An entry is one pretty-printed JSON file
//   { "cache_version": N, "content_hash": "...", "options": "...",
//     "value": <payload> }
// filed under a tool tag ("verdict" for the rendered verdict all three
// front ends share, core/verdict.hpp) and written atomically (writer-unique
// temp file + rename): concurrent writers of the same key -- daemon worker
// threads of `stgd`, or two processes racing on a shared cache dir -- can
// never interleave bytes into one temp file, and since every writer of a
// key publishes the identical deterministic payload, whichever rename
// lands last leaves a whole entry.  Once the writes finish, the directory
// holds the entries and nothing else.
// load() re-validates all three key fields against the request; any
// mismatch, truncation or parse error counts as a miss, the offending
// entry is evicted (deleted), and the caller recomputes -- a corrupted
// cache can cost time, never correctness.
//
// Counters: cache.result.{hits,misses,stores,evicted}.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace stgcc::cache {

/// FNV-1a 64-bit hash of a byte string.
[[nodiscard]] std::uint64_t fnv1a64(std::string_view bytes);

/// Read a whole file into a string; nullopt when unreadable.
[[nodiscard]] std::optional<std::string> read_file_bytes(
    const std::string& path);

class ResultCache {
public:
    /// Bump when the meaning of cached payloads changes.
    static constexpr std::int64_t kFormatVersion = 3;

    /// `dir` is the cache root; created on first store.  An empty dir
    /// disables the cache (load always misses, store is a no-op), so
    /// callers can thread one object through unconditionally.
    explicit ResultCache(std::string dir);

    [[nodiscard]] bool enabled() const noexcept { return !dir_.empty(); }
    [[nodiscard]] const std::string& dir() const noexcept { return dir_; }

    /// Entry file path for a key (for tests and diagnostics).
    [[nodiscard]] std::string entry_path(std::string_view tool,
                                         std::uint64_t content_hash,
                                         const std::string& options) const;

    /// Look up the payload stored for (tool, content hash, options).
    /// Validates version and both key fields; invalid entries are deleted
    /// and reported as misses.
    [[nodiscard]] std::optional<obs::Json> load(std::string_view tool,
                                                std::uint64_t content_hash,
                                                const std::string& options) const;

    /// Store a payload (atomic write).  Returns false on IO failure --
    /// callers ignore the result except in tests; a failed store only
    /// forfeits future hits.
    bool store(std::string_view tool, std::uint64_t content_hash,
               const std::string& options, obs::Json value) const;

private:
    std::string dir_;
};

}  // namespace stgcc::cache
