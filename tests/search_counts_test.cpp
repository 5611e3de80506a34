// Pins the shape of the Unf-compatible search tree and the kernel's work in
// it: the number of search nodes, leaf-predicate evaluations, committed
// variable assignments (propagations) and the deepest node of the USC, CSC
// and normalcy checks of every model in models/, verified serially (jobs 1)
// with default options.  All four are deterministic, so any change to the
// branching order, the Theorem 1 closure, the interval pruning or the
// first-difference enumeration shows up here even when every verdict and
// witness survives.  Kernel rewrites must leave this table untouched: then
// ns/node is the only number that moves.
//
// Regenerate only after an intended change to the search itself with
//   STGCC_UPDATE_GOLDEN=1 ./build/tests/stgcc_tests --gtest_filter='SearchCounts*'
// and review the diff like any other code change.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/verifier.hpp"
#include "obs/json.hpp"
#include "stg/astg.hpp"

namespace stgcc {
namespace {

namespace fs = std::filesystem;

const fs::path& table_path() {
    static const fs::path p = fs::path(STGCC_GOLDEN_DIR) / "search_counts.json";
    return p;
}

bool update_mode() {
    const char* env = std::getenv("STGCC_UPDATE_GOLDEN");
    return env && *env && std::string(env) != "0";
}

std::vector<fs::path> model_files() {
    std::vector<fs::path> files;
    std::error_code ec;
    for (const auto& entry : fs::directory_iterator(STGCC_MODELS_DIR, ec))
        if (entry.is_regular_file() && entry.path().extension() == ".g")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

obs::Json counts(const stg::CheckStats& s) {
    return obs::Json::object()
        .set("search_nodes", s.search_nodes)
        .set("leaves", s.leaves)
        .set("propagations", s.propagations)
        .set("max_depth", s.max_depth);
}

/// One row per model: {"usc": {...}, "csc": {...}, "normalcy": {...}}.
obs::Json measure(const fs::path& file) {
    const stg::Stg model = stg::load_astg_file(file.string());
    const core::VerificationReport r = core::verify_stg(model, core::VerifyOptions{});
    return obs::Json::object()
        .set("usc", counts(r.usc.stats))
        .set("csc", counts(r.csc.stats))
        .set("normalcy", counts(r.normalcy.stats));
}

TEST(SearchCounts, MatchPinnedTable) {
    const auto files = model_files();
    ASSERT_FALSE(files.empty()) << "no .g files under " STGCC_MODELS_DIR;

    if (update_mode()) {
        obs::Json table = obs::Json::object();
        for (const fs::path& f : files)
            table.set(f.stem().string(), measure(f));
        std::ofstream out(table_path(), std::ios::binary | std::ios::trunc);
        out << table.dump(2) << "\n";
        ASSERT_TRUE(out.good()) << "cannot write " << table_path();
        return;
    }

    std::ifstream in(table_path(), std::ios::binary);
    ASSERT_TRUE(in.good()) << table_path() << " missing";
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    const auto table = obs::Json::parse(text);
    ASSERT_TRUE(table.has_value()) << table_path() << " is not valid JSON";
    ASSERT_EQ(table->size(), files.size())
        << "the pinned table and models/ list different models";

    for (const fs::path& f : files) {
        const std::string name = f.stem().string();
        const obs::Json* want = table->find(name);
        ASSERT_NE(want, nullptr) << name << " missing from " << table_path();
        const obs::Json got = measure(f);
        for (const char* check : {"usc", "csc", "normalcy"})
            for (const char* field :
                 {"search_nodes", "leaves", "propagations", "max_depth"}) {
                const obs::Json* w = want->find(check);
                ASSERT_NE(w, nullptr) << name << "." << check;
                ASSERT_NE(w->find(field), nullptr)
                    << name << "." << check << "." << field;
                EXPECT_EQ(got.find(check)->find(field)->as_uint(),
                          w->find(field)->as_uint())
                    << name << " " << check << " " << field;
            }
    }
}

}  // namespace
}  // namespace stgcc
