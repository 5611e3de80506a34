// Memory-layout tests (docs/MEMORY.md): reports stay byte-identical at any
// jobs value, the arena gauges are populated, and the arena refuses
// oversized requests.
#include <gtest/gtest.h>

#include <cstdint>
#include <new>
#include <string>

#include "cache/prefix_artifacts.hpp"
#include "core/verifier.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"
#include "util/arena.hpp"

namespace stgcc::unf {
namespace {

TEST(LayoutWorkspace, ReportsByteIdenticalAcrossJobsWithPooling) {
    // Every solver instance owns its search state, so jobs=8 runs many
    // instances side by side; the canonical report surface must not move.
    for (unsigned seed : {11u, 29u}) {
        test::RandomStgConfig cfg;
        cfg.machines = 3;
        cfg.sync_transitions = 1;
        const stg::Stg model = test::random_stg(seed, cfg);
        core::VerifyOptions serial;
        serial.jobs = 1;
        core::VerifyOptions parallel;
        parallel.jobs = 8;
        EXPECT_EQ(core::format_report(model, core::verify_stg(model, serial)),
                  core::format_report(model, core::verify_stg(model, parallel)))
            << "seed " << seed;
    }
}

TEST(LayoutMetrics, ArenaGaugesAreRegisteredAndPopulated) {
    const stg::Stg model = test::tiny_handshake();
    const cache::PrefixArtifacts artifacts(model);
    // Building the artifacts refreshes the mem.* gauges from the
    // process-wide arena accounting; both must exist in the registry and be
    // non-zero while the artifacts are alive.
    EXPECT_GT(obs::gauge("mem.arena_bytes").value(), 0);
    EXPECT_GT(obs::gauge("mem.arena_peak_bytes").value(), 0);
    EXPECT_GE(util::Arena::process_peak_bytes(),
              util::Arena::process_live_bytes());
}

TEST(LayoutArena, OversizedArrayThrowsInsteadOfWrapping) {
    // n * sizeof(T) overflows size_t here; unchecked, it wraps to an 8-byte
    // block that the caller would index as a huge array.
    util::Arena arena;
    const std::size_t n = SIZE_MAX / sizeof(std::uint64_t) + 2;
    EXPECT_THROW((void)arena.alloc_array<std::uint64_t>(n),
                 std::bad_array_new_length);
    EXPECT_THROW((void)arena.alloc_bytes(SIZE_MAX), std::bad_alloc);
    EXPECT_EQ(arena.bytes_allocated(), 0u);
    // The arena stays usable after a refused request.
    const std::uint64_t* ok = arena.alloc_array<std::uint64_t>(4);
    ASSERT_NE(ok, nullptr);
    EXPECT_EQ(ok[3], 0u);
}

}  // namespace
}  // namespace stgcc::unf
