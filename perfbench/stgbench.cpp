// stgcc benchmark program.  One command, two workloads:
//
//   exhaustive  the six conflict-free counterflow rows, four streams of
//               stgcheck-equivalent verdicts at jobs 1
//   corpus      all corpus models per pass on one shared Executor(4), the
//               way `stgbatch --jobs 4` verifies them
//
// Every verdict is checked against the explicit state-graph oracle
// (oracle.json), rendered reports must be byte-identical across passes,
// streams and the offline path, and the deterministic counts (prefix sizes,
// search nodes, ...) must repeat exactly across streams and across runs of
// one build.  With --trace 1 the program times its own calls into each
// module instead and reports per-layer metrics, the service path included:
// a fresh stgd driven over a Unix socket by four clients with a seeded
// fresh / recheck / repeat request mix on the non-counterflow models.
// NOTES.md explains the workloads and metrics.

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cache/prefix_artifacts.hpp"
#include "core/checkers.hpp"
#include "core/verifier.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "sched/parallel.hpp"
#include "stg/astg.hpp"
#include "stg/state_checks.hpp"
#include "stg/state_graph.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "unfolding/unfolder.hpp"
#include "util/arena.hpp"

extern char** environ;

namespace {

namespace fs = std::filesystem;
using namespace stgcc;
using obs::Json;

/// Streams, pool width and client connections: the reference host has
/// four cores, and saturating all of them keeps it in its steady state.
constexpr unsigned kWidth = 4;
/// Set-up is repeated this often per run and its median reported.  One
/// set-up is a process start of a few ms whose single times vary up to 5x;
/// medians of 9 still moved 3.1-4.2 ms between back-to-back blocks on the
/// reference host, so a run takes many more (about 0.5 s in all).
constexpr int kSetupRepeats = 81;

// ---------------------------------------------------------------- timing

std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double to_ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// Linear-interpolation quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double geomean(const std::vector<double>& v) {
    double log_sum = 0.0;
    for (double x : v) log_sum += std::log(x);
    return v.empty() ? 0.0 : std::exp(log_sum / static_cast<double>(v.size()));
}

/// Peak resident set (VmHWM) of this process, in MiB; 0 when unreadable.
double process_peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

// ------------------------------------------------------------ bookkeeping

/// Operation and invariant accounting of one run.  A failed operation (a
/// wrong verdict, an error, a non-ok response) counts against `failed`; a
/// broken invariant (byte identity, count determinism) makes the run
/// incorrect without being an operation of its own.
class Outcome {
public:
    void attempt(std::uint64_t n = 1) { attempted_ += n; }
    void fail(const std::string& what) {
        ++failed_;
        note(what);
    }
    void violate(const std::string& what) {
        violations_.fetch_add(1);
        note(what);
    }
    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }
    [[nodiscard]] bool correct() const {
        return failed_ == 0 && violations_ == 0 && attempted_ > 0;
    }

private:
    void note(const std::string& what) {
        std::lock_guard<std::mutex> lock(mu_);
        if (++notes_ <= 20) std::cerr << "stgbench: " << what << "\n";
    }

    std::atomic<std::uint64_t> attempted_{0}, failed_{0}, violations_{0};
    std::mutex mu_;
    int notes_ = 0;  // guarded by mu_
};

Outcome g_outcome;

// ----------------------------------------------------------------- models

struct Model {
    std::string file;  ///< file name inside models/
    std::string text;
};

std::string read_file(const fs::path& p) {
    std::ifstream in(p, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + p.string());
    std::ostringstream s;
    s << in.rdbuf();
    return s.str();
}

/// Conflict-free counterflow rows, heaviest first (CF-ASYM-B's USC search
/// dominates); the exhaustive streams dispense them in this fixed order.
const std::vector<std::string> kCfRows = {
    "cf_asym_b_csc.g", "cf_sym_d_csc.g", "cf_sym_c_csc.g",
    "cf_asym_a_csc.g", "cf_sym_b_csc.g", "cf_sym_a_csc.g"};

bool is_cf_row(const std::string& f) {
    return std::find(kCfRows.begin(), kCfRows.end(), f) != kCfRows.end();
}

/// Which models of the corpus directory a model set holds.
enum class ModelSet {
    CfRows,  ///< the exhaustive workload, in kCfRows order
    All,     ///< the corpus workload, sorted by file name
    NonCf,   ///< the service traffic of the traced run, sorted by file name
};

/// The models of `set`, in dispatch order.
std::vector<Model> load_models(const fs::path& dir, ModelSet set) {
    std::vector<std::string> files;
    if (set == ModelSet::CfRows) {
        files = kCfRows;
    } else {
        for (const auto& e : fs::directory_iterator(dir))
            if (e.path().extension() == ".g")
                files.push_back(e.path().filename().string());
        std::sort(files.begin(), files.end());
        if (set == ModelSet::NonCf)
            files.erase(std::remove_if(files.begin(), files.end(), is_cf_row),
                        files.end());
    }
    std::vector<Model> out;
    for (const std::string& f : files) out.push_back({f, read_file(dir / f)});
    return out;
}

// ----------------------------------------------------------------- oracle

/// "pn" p- and n-normal, "p", "n", or "-" (not normal).
std::string normalcy_code(bool p, bool n) {
    return p && n ? "pn" : p ? "p" : n ? "n" : "-";
}

/// Expected verdicts of one model, from the explicit state-graph checkers.
struct Expected {
    bool usc = true, csc = true, normal = true;
    std::map<std::string, std::string> signals;  ///< name -> normalcy_code
};

using Oracle = std::map<std::string, Expected>;

Json sg_verdicts(const stg::Stg& stg) {
    const stg::StateGraph sg(stg);
    const auto usc = stg::check_usc_sg(sg);
    const auto csc = stg::check_csc_sg(sg);
    const auto nrm = stg::check_normalcy_sg(sg);
    Json signals = Json::object();
    for (const auto& sn : nrm.per_signal)
        signals.set(stg.signal_name(sn.signal),
                    normalcy_code(sn.p_normal, sn.n_normal));
    return Json::object()
        .set("consistent", sg.consistent())
        .set("usc", usc.holds)
        .set("csc", csc.holds)
        .set("normalcy", nrm.normal)
        .set("signals", std::move(signals));
}

Json derive_oracle(const std::vector<Model>& models) {
    Json entries = Json::object();
    for (const Model& m : models)
        entries.set(m.file, sg_verdicts(stg::parse_astg_string(m.text)));
    return Json::object()
        .set("source", "stg::check_usc_sg, check_csc_sg, check_normalcy_sg")
        .set("models", std::move(entries));
}

/// Member `key` of `j`; throws naming `what` when it is missing.
const Json& member(const Json* j, const char* key, const std::string& what) {
    const Json* v = j ? j->find(key) : nullptr;
    if (!v) throw std::runtime_error(what + " has no \"" + key + "\"");
    return *v;
}

Oracle parse_oracle(const Json& j) {
    Oracle out;
    const Json& models = member(&j, "models", "oracle");
    for (std::size_t i = 0; i < models.size(); ++i) {
        const auto& [file, v] = models.member(i);
        Expected e;
        e.usc = member(&v, "usc", file).as_bool();
        e.csc = member(&v, "csc", file).as_bool();
        e.normal = member(&v, "normalcy", file).as_bool();
        const Json* s = &member(&v, "signals", file);
        for (std::size_t k = 0; k < s->size(); ++k)
            e.signals[s->member(k).first] = s->member(k).second.as_string();
        out[file] = std::move(e);
    }
    return out;
}

/// Empty when `r` agrees with the oracle, else what differs.
std::string verdict_error(const Expected& e, const stg::Stg& stg,
                          const core::VerificationReport& r) {
    if (!r.consistent) return "reported inconsistent";
    if (r.usc.holds != e.usc) return "USC verdict differs from the oracle";
    if (r.csc.holds != e.csc) return "CSC verdict differs from the oracle";
    if (!r.normalcy_checked) return "";
    if (r.normalcy.normal != e.normal)
        return "normalcy verdict differs from the oracle";
    if (r.normalcy.per_signal.size() != e.signals.size())
        return "normalcy signal set differs from the oracle";
    for (const auto& sn : r.normalcy.per_signal) {
        const auto it = e.signals.find(stg.signal_name(sn.signal));
        if (it == e.signals.end() ||
            it->second != normalcy_code(sn.p_normal, sn.n_normal))
            return "normalcy of " + stg.signal_name(sn.signal) +
                   " differs from the oracle";
    }
    return "";
}

// ------------------------------------------------------ determinism ledger

/// Deterministic counts per model and mode, compared across the streams of
/// a run and, through a file next to the build, across runs of one build.
/// The file is named after a hash of this executable, which links the
/// library statically: a rebuild after a change to the search starts a new
/// ledger instead of failing against the counts of the old code.
class Ledger {
public:
    explicit Ledger(const fs::path& state_dir)
        : path_(state_dir / ("perfbench-counts-" + build_id() + ".json")) {
        std::ifstream in(path_);
        if (!in) return;
        std::ostringstream s;
        s << in.rdbuf();
        if (const auto j = Json::parse(s.str()))
            for (std::size_t i = 0; i < j->size(); ++i)
                seen_[j->member(i).first] = j->member(i).second.as_string();
    }

    void agree(const std::string& key, const std::string& counts) {
        std::lock_guard<std::mutex> lock(mu_);
        const auto [it, fresh] = seen_.emplace(key, counts);
        if (!fresh && it->second != counts)
            g_outcome.violate("deterministic counts of " + key + " changed: " +
                              it->second + " vs " + counts);
    }

    void save() const {
        std::lock_guard<std::mutex> lock(mu_);
        Json j = Json::object();
        for (const auto& [k, v] : seen_) j.set(k, v);
        const fs::path tmp = path_.string() + ".tmp";
        std::ofstream(tmp) << j.dump(1) << "\n";
        fs::rename(tmp, path_);
    }

private:
    static std::string build_id() {
        char hex[17];
        std::snprintf(hex, sizeof hex, "%016zx",
                      std::hash<std::string>{}(read_file("/proc/self/exe")));
        return hex;
    }

    fs::path path_;
    mutable std::mutex mu_;
    std::map<std::string, std::string> seen_;  // guarded by mu_
};

std::string prefix_counts(std::uint64_t events, std::uint64_t conditions,
                          std::uint64_t cutoffs) {
    return "E=" + std::to_string(events) + " B=" + std::to_string(conditions) +
           " cut=" + std::to_string(cutoffs);
}

std::string search_counts(const stg::CheckStats& s) {
    return std::to_string(s.search_nodes) + "/" +
           std::to_string(s.propagations) + "/" + std::to_string(s.leaves);
}

/// All counts of a jobs-1 verdict: prefix sizes, nodes/propagations/leaves
/// per check, the USC=>CSC certificate and the learned-clause funnel.
std::string full_counts(const core::VerificationReport& r) {
    return prefix_counts(r.prefix.events, r.prefix.conditions,
                         r.prefix.cutoffs) +
           " usc=" + search_counts(r.usc.stats) +
           " csc=" + search_counts(r.csc.stats) +
           " norm=" + search_counts(r.normalcy.stats) +
           " cert=" + (r.artifacts->clauses().usc_holds() ? "1" : "0") +
           " rec=" + std::to_string(r.cuts.recorded) +
           " pruned=" + std::to_string(r.cuts.pruned_nodes);
}

// ----------------------------------------------------------- span tracing

/// In-memory span log of the traced run, written out as Chrome trace
/// events at exit (the format stgprof and Perfetto read).
class SpanLog {
public:
    struct Rec {
        const char* name;
        std::uint32_t tid;
        std::int64_t start, end;
        std::string model;
    };

    void add(const char* name, std::int64_t start, std::int64_t end,
             const std::string& model) {
        static std::atomic<std::uint32_t> next_tid{0};
        thread_local const std::uint32_t tid = ++next_tid;
        std::lock_guard<std::mutex> lock(mu_);
        recs_.push_back({name, tid, start, end, model});
    }

    void write(const fs::path& path) const {
        std::lock_guard<std::mutex> lock(mu_);
        std::int64_t epoch = recs_.empty() ? 0 : recs_.front().start;
        for (const Rec& r : recs_) epoch = std::min(epoch, r.start);
        std::ofstream out(path);
        out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
        char buf[160];
        for (std::size_t i = 0; i < recs_.size(); ++i) {
            const Rec& r = recs_[i];
            std::snprintf(buf, sizeof buf,
                          "{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\","
                          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,",
                          r.name, static_cast<double>(r.start - epoch) / 1e3,
                          static_cast<double>(r.end - r.start) / 1e3, r.tid);
            out << buf << "\"args\":{\"model\":\"" << Json::escape(r.model)
                << "\"}}" << (i + 1 < recs_.size() ? ",\n" : "\n");
        }
        out << "]}\n";
    }

private:
    mutable std::mutex mu_;
    std::vector<Rec> recs_;  // guarded by mu_
};

SpanLog g_spans;

/// Times one call into a module and logs it as a span.  Returns the
/// elapsed nanoseconds.
template <class F>
std::int64_t timed(const char* name, const std::string& model, F&& f) {
    const std::int64_t t0 = now_ns();
    f();
    const std::int64_t t1 = now_ns();
    g_spans.add(name, t0, t1, model);
    return t1 - t0;
}

// ---------------------------------------------------------------- verdicts

/// The options a user gets: normalcy on, reductions off, learned clauses
/// and the USC=>CSC certificate on.
core::VerifyOptions default_options(bool normalcy = true) {
    core::VerifyOptions o;
    o.check_normalcy = normalcy;
    return o;
}

/// First rendering of each key; later renderings must match it byte for
/// byte (across passes, streams, jobs values and the daemon).
class ReportBook {
public:
    void agree(const std::string& key, const std::string& report) {
        std::lock_guard<std::mutex> lock(mu_);
        const auto [it, fresh] = first_.emplace(key, report);
        if (!fresh && it->second != report)
            g_outcome.violate("report of " + key + " is not byte-identical");
    }
    [[nodiscard]] std::map<std::string, std::string> entries() const {
        std::lock_guard<std::mutex> lock(mu_);
        return first_;
    }

private:
    mutable std::mutex mu_;
    std::map<std::string, std::string> first_;  // guarded by mu_
};

struct Bench {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    fs::path root = ".";
    fs::path state_dir = ".bench_build";
    std::string stgd;

    std::vector<Model> models;
    Oracle oracle;
    std::unique_ptr<Ledger> ledger;
    ReportBook reports;
};

/// Check a finished verdict: oracle, byte identity, counts.  `full` when
/// the verdict ran at jobs 1, where every count is deterministic.
void audit(Bench& b, const Model& m, const stg::Stg& stg,
           const core::VerificationReport& r, const std::string& report,
           bool full) {
    const std::string err = verdict_error(b.oracle.at(m.file), stg, r);
    if (!err.empty()) g_outcome.fail(m.file + ": " + err);
    b.reports.agree(m.file + "|normalcy=1", report);
    b.ledger->agree(m.file + "|prefix",
                    prefix_counts(r.prefix.events, r.prefix.conditions,
                                  r.prefix.cutoffs));
    if (full) b.ledger->agree(m.file + "|jobs1", full_counts(r));
}

/// What `stgcheck --jobs 1` does without process start: parse, verify,
/// render.  Returns the elapsed nanoseconds of the verdict.
std::int64_t stgcheck_verdict(Bench& b, const Model& m) {
    const std::int64_t t0 = now_ns();
    try {
        const stg::Stg stg = stg::parse_astg_string(m.text);
        const core::VerificationReport r = core::verify_stg(stg, default_options());
        const std::string report = core::format_report(stg, r);
        const std::int64_t t1 = now_ns();
        audit(b, m, stg, r, report, /*full=*/true);
        return t1 - t0;
    } catch (const std::exception& e) {
        g_outcome.fail(m.file + ": " + e.what());
        return now_ns() - t0;
    }
}

// ------------------------------------------------------- child processes

/// Start `argv[0]` with stdout on /dev/null; throws when it cannot start.
pid_t spawn(const std::vector<std::string>& args) {
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, "/dev/null", O_WRONLY, 0);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot start " + args[0]);
    return pid;
}

// ----------------------------------------------------------- the daemon

/// One stgd child process on a Unix socket inside the state directory.
class Daemon {
public:
    Daemon(const std::string& stgd, const fs::path& state_dir) {
        static int serial = 0;
        sock_ = (state_dir / ("stgd-" + std::to_string(::getpid()) + "-" +
                              std::to_string(serial++) + ".sock"))
                    .string();
        endpoint_ = "unix:" + sock_;
        fs::remove(sock_);
        pid_ = spawn({stgd, "--listen", endpoint_, "--jobs", std::to_string(kWidth),
                      "--quiet"});
        const std::int64_t give_up = now_ns() + 20'000'000'000;
        while (!ping()) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("stgd exited during start-up");
            }
            if (now_ns() > give_up) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                pid_ = -1;
                throw std::runtime_error("stgd never answered ping");
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    }
    ~Daemon() { stop(); }
    Daemon(const Daemon&) = delete;
    Daemon& operator=(const Daemon&) = delete;

    [[nodiscard]] const std::string& endpoint() const { return endpoint_; }

    [[nodiscard]] std::optional<Json> call(const Json& req) const {
        svc::Client c;
        std::string err;
        if (!c.connect(endpoint_, err)) return std::nullopt;
        return c.call(req, err);
    }

    /// Graceful drain, then reap; SIGKILL if it does not exit in time.
    void stop() {
        if (pid_ <= 0) return;
        (void)call(Json::object().set("op", "shutdown").set("id", 0));
        int status = 0;
        const std::int64_t give_up = now_ns() + 10'000'000'000;
        while (::waitpid(pid_, &status, WNOHANG) == 0) {
            if (now_ns() > give_up) {
                ::kill(pid_, SIGKILL);
                ::waitpid(pid_, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        pid_ = -1;
        fs::remove(sock_);
    }

private:
    bool ping() const {
        const auto r = call(Json::object().set("op", "ping").set("id", 0));
        return r && svc::response_ok(*r);
    }

    pid_t pid_ = -1;
    std::string sock_, endpoint_;
};

// ------------------------------------------------------ the service mix

enum class Kind { Fresh, Recheck, Repeat };
const char* kind_name(Kind k) {
    return k == Kind::Fresh ? "fresh" : k == Kind::Recheck ? "recheck" : "repeat";
}

struct Request {
    std::size_t model = 0;
    Kind kind = Kind::Fresh;
    std::string text;
    bool normalcy = true;
};

/// One client sequence: every model once as a fresh revision (a seeded
/// comment line, so every resident tier misses); a quarter of them
/// re-checked right after with normalcy off (a revision this client sent,
/// different options: a prefix-bundle hit); and as many exact re-sends of
/// earlier requests of the sequence (in-memory verdict hits).  The shares
/// (2/3 fresh, 1/6 recheck, 1/6 repeat) are an assumption; see NOTES.md.
std::vector<Request> make_sequence(std::mt19937_64& rng,
                                   const std::vector<Model>& models,
                                   unsigned client, std::uint64_t seq) {
    std::vector<std::size_t> order(models.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(), rng);
    const std::size_t quarter = std::max<std::size_t>(1, models.size() / 4);
    std::vector<bool> recheck(models.size(), false);
    for (std::size_t i = 0; i < quarter; ++i) recheck[order[i]] = true;
    std::shuffle(order.begin(), order.end(), rng);

    std::vector<Request> out;
    for (std::size_t idx : order) {
        Request fresh;
        fresh.model = idx;
        fresh.text = "# revision " + std::to_string(client) + "." +
                     std::to_string(seq) + "." + std::to_string(rng() % 1000000) +
                     "\n" + models[idx].text;
        out.push_back(fresh);
        if (recheck[idx]) {
            Request r = fresh;
            r.kind = Kind::Recheck;
            r.normalcy = false;
            out.push_back(std::move(r));
        }
    }
    for (std::size_t i = 0; i < quarter; ++i) {
        const std::size_t at = 1 + rng() % out.size();
        std::size_t src = rng() % at;
        while (out[src].kind == Kind::Repeat) --src;  // out[0] is fresh
        Request r = out[src];
        r.kind = Kind::Repeat;
        out.insert(out.begin() + static_cast<std::ptrdiff_t>(at), std::move(r));
    }
    return out;
}

struct Sample {
    Kind kind;
    double ms;         ///< submission to parsed response
    double server_ms;  ///< the response's own "seconds"
    double bytes;      ///< serialised response size
};

/// Check one check-op response against the oracle, the first rendering of
/// the same (model, options) and the prefix-size ledger.
void audit_response(Bench& b, const Model& m, const Request& rq,
                    const std::optional<Json>& resp) {
    if (!resp) return g_outcome.fail(m.file + ": no response");
    if (!svc::response_ok(*resp))
        return g_outcome.fail(m.file + ": " + svc::response_error(*resp));
    const Json* json = resp->find("json");
    const Json* results = json ? json->find("results") : nullptr;
    const Json* report = resp->find("report");
    if (!results || !report) return g_outcome.fail(m.file + ": malformed response");
    const Expected& e = b.oracle.at(m.file);
    const auto holds = [&](const char* check, const char* key) {
        const Json* c = results->find(check);
        const Json* v = c ? c->find(key) : nullptr;
        return v && v->as_bool();
    };
    const Json* consistent = results->find("consistent");
    if (!consistent || !consistent->as_bool() || holds("usc", "holds") != e.usc ||
        holds("csc", "holds") != e.csc ||
        (rq.normalcy && holds("normalcy", "normal") != e.normal) ||
        (!rq.normalcy && results->find("normalcy")))
        g_outcome.fail(m.file + ": served verdict differs from the oracle");
    b.reports.agree(m.file + "|normalcy=" + (rq.normalcy ? "1" : "0"),
                    report->as_string());
    const Json* p = json->find("prefix");
    const Json* events = p ? p->find("events") : nullptr;
    const Json* conditions = p ? p->find("conditions") : nullptr;
    const Json* cutoffs = p ? p->find("cutoffs") : nullptr;
    if (!events || !conditions || !cutoffs)
        return g_outcome.fail(m.file + ": response has no prefix sizes");
    b.ledger->agree(m.file + "|prefix",
                    prefix_counts(events->as_uint(), conditions->as_uint(),
                                  cutoffs->as_uint()));
}

/// Drive `d` with kWidth closed-loop clients sending requests on `models`
/// until `seconds` have passed, each finishing its current sequence.
/// Returns the samples of whole sequences.
std::vector<Sample> drive_service(Bench& b, const std::vector<Model>& models,
                                  const Daemon& d, double seconds) {
    std::vector<std::vector<Sample>> per_client(kWidth);
    std::vector<std::thread> clients;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (unsigned c = 0; c < kWidth; ++c) {
        clients.emplace_back([&, c] {
            std::mt19937_64 rng(b.seed * 0x9E3779B97F4A7C15ULL + c + 1);
            svc::Client client;
            std::string err;
            if (!client.connect(d.endpoint(), err))
                return g_outcome.fail("cannot connect: " + err);
            std::int64_t id = 0;
            for (std::uint64_t seq = 0; seq == 0 || now_ns() < deadline; ++seq) {
                for (const Request& rq : make_sequence(rng, models, c, seq)) {
                    const Model& m = models[rq.model];
                    Json req = Json::object()
                                   .set("op", "check")
                                   .set("id", ++id)
                                   .set("file", m.file)
                                   .set("model", rq.text)
                                   .set("options", Json::object().set(
                                                       "normalcy", rq.normalcy));
                    const std::int64_t s0 = now_ns();
                    const auto resp = client.call(req, err);
                    const std::int64_t s1 = now_ns();
                    g_outcome.attempt();
                    g_spans.add(kind_name(rq.kind), s0, s1, m.file);
                    const Json* secs = resp ? resp->find("seconds") : nullptr;
                    per_client[c].push_back(
                        {rq.kind, to_ms(s1 - s0),
                         secs ? secs->as_double() * 1e3 : 0.0,
                         resp ? static_cast<double>(resp->dump().size()) : 0.0});
                    audit_response(b, m, rq, resp);
                    if (!resp) return;
                }
            }
        });
    }
    for (auto& t : clients) t.join();
    std::vector<Sample> all;
    for (auto& v : per_client) all.insert(all.end(), v.begin(), v.end());
    return all;
}

/// stgd's reports of `models` must equal the offline format_report of the
/// same text.
void audit_offline_reports(Bench& b, const std::vector<Model>& models) {
    const auto served = b.reports.entries();
    for (const Model& m : models)
        for (const bool normalcy : {true, false}) {
            const std::string key =
                m.file + "|normalcy=" + (normalcy ? "1" : "0");
            const auto it = served.find(key);
            if (it == served.end()) continue;
            const stg::Stg stg = stg::parse_astg_string(m.text);
            const auto r = core::verify_stg(stg, default_options(normalcy));
            const std::string err = verdict_error(b.oracle.at(m.file), stg, r);
            if (!err.empty()) g_outcome.fail(m.file + " (offline): " + err);
            if (core::format_report(stg, r) != it->second)
                g_outcome.violate("served report of " + key +
                                  " differs from the offline rendering");
        }
}

// ----------------------------------------------------------------- set-up

/// The one-time work every run starts with: read and parse the workload's
/// models and load the oracle.
void load_inputs(Bench& b) {
    b.models = load_models(b.root / "models", b.workload == "exhaustive"
                                                  ? ModelSet::CfRows
                                                  : ModelSet::All);
    for (const Model& m : b.models) (void)stg::parse_astg_string(m.text);
    const auto oracle = Json::parse(read_file(b.root / "perfbench" / "oracle.json"));
    if (!oracle) throw std::runtime_error("oracle.json does not parse");
    b.oracle = parse_oracle(*oracle);
    for (const Model& m : b.models)
        if (!b.oracle.count(m.file))
            throw std::runtime_error("oracle has no entry for " + m.file);
}

/// The one-time work of an offline run, as a fresh process pays it: exec
/// and dynamic loading, load_inputs, and for corpus starting the pool.
/// Median seconds over kSetupRepeats child processes (`--setup-probe`).
double probe_setup(const Bench& b) {
    const std::string self = fs::read_symlink("/proc/self/exe").string();
    std::vector<double> s;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const std::int64_t t0 = now_ns();
        const pid_t pid = spawn({self, "--setup-probe", "--workload", b.workload,
                                 "--root", b.root.string(), "--state-dir",
                                 b.state_dir.string()});
        int status = 0;
        ::waitpid(pid, &status, 0);
        s.push_back(to_ms(now_ns() - t0) / 1e3);
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
            throw std::runtime_error("set-up probe failed");
    }
    return median(s);
}

// -------------------------------------------------------------- workloads

using Metrics = std::vector<std::pair<std::string, std::pair<double, std::string>>>;

/// Latency samples of one run: `units` holds each unit's verdict times
/// (a unit is a model, or the whole pass in corpus); the percentiles are
/// taken over `spread`.
struct Latencies {
    std::vector<std::vector<double>> units;
    std::vector<double> spread;

    explicit Latencies(std::size_t n) : units(n) {}
    /// Geometric mean over units of each unit's mean time.  The reference
    /// host (NOTES.md, "Host noise profile") drifts between a fast and a
    /// slow speed mode for seconds at a time; a median flips between the
    /// modes where a mean weighs them by their share (IQR/median over ten
    /// exhaustive runs there: 0.135 with medians, 0.069 with means).
    [[nodiscard]] double geomean_of_means() const {
        std::vector<double> means;
        for (const auto& v : units) {
            double sum = 0;
            for (double x : v) sum += x;
            if (!v.empty()) means.push_back(sum / static_cast<double>(v.size()));
        }
        return geomean(means);
    }
};

void latency_metrics(Metrics& out, const Latencies& lat, double verdicts,
                     std::int64_t time_ns) {
    out.push_back({"verdicts_per_s", {verdicts / (to_ms(time_ns) / 1e3), "1/s"}});
    out.push_back({"verdict_ms_geomean", {lat.geomean_of_means(), "ms"}});
    out.push_back({"verdict_ms_p50", {quantile(lat.spread, 0.5), "ms"}});
    out.push_back({"verdict_ms_p90", {quantile(lat.spread, 0.9), "ms"}});
    std::cout << verdicts << " verdicts; " << lat.spread.size()
              << " percentile samples; median ms (n) per unit:";
    for (const auto& v : lat.units)
        std::cout << " " << median(v) << " (" << v.size() << ")";
    std::cout << "\n";
}

/// Four streams take single verdicts from one fixed-order queue of whole
/// passes; once time is up no new pass is opened, and every opened pass
/// is finished, so the count covers whole passes only.  The rate is taken
/// over the streams' busy time: after the last pass opens, streams that
/// find the queue closed go idle while the others finish (up to one
/// CF-ASYM-B verdict), and that stopping tail is not the program's.  The
/// percentiles are over passes, of the summed time of a pass's six
/// verdicts (one stgcheck sweep over the rows): pooled per-verdict
/// percentiles straddle models that differ in cost by 10-1000x.
Metrics exhaustive(Bench& b) {
    Metrics out;
    out.push_back({"setup_s", {probe_setup(b), "s"}});
    load_inputs(b);
    const std::size_t n = b.models.size();
    std::mutex mu;
    std::size_t next = 0;     // guarded by mu
    bool closed = false;      // guarded by mu
    Latencies lat(n);         // guarded by mu
    std::vector<double> pass_ms;  // guarded by mu
    std::int64_t busy_ns = 0; // guarded by mu
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(b.seconds * 1e9);
    std::vector<std::thread> streams;
    for (unsigned s = 0; s < kWidth; ++s) {
        streams.emplace_back([&] {
            for (;;) {
                std::size_t item;
                {
                    std::lock_guard<std::mutex> lock(mu);
                    if (!closed && next % n == 0 && next > 0 && now_ns() >= deadline)
                        closed = true;
                    if (closed) break;
                    item = next++;
                }
                const std::int64_t ns = stgcheck_verdict(b, b.models[item % n]);
                g_outcome.attempt();
                std::lock_guard<std::mutex> lock(mu);
                lat.units[item % n].push_back(to_ms(ns));
                if (pass_ms.size() <= item / n) pass_ms.resize(item / n + 1);
                pass_ms[item / n] += to_ms(ns);
                busy_ns += ns;
            }
        });
    }
    for (auto& t : streams) t.join();
    lat.spread = pass_ms;
    latency_metrics(out, lat, static_cast<double>(pass_ms.size() * n),
                    busy_ns / kWidth);
    out.push_back({"peak_rss_mb", {process_peak_rss_mb(), "MiB"}});
    return out;
}

/// One stgbatch-style pass: parallel_for over the manifest on the shared
/// executor, verify_stg(stg, opts, ex) per model.  `ms[i]` receives model
/// i's time from the start of its task to its rendered report.
void corpus_pass(Bench& b, sched::Executor& ex, std::vector<double>& ms) {
    sched::parallel_for(ex, b.models.size(), [&](std::size_t i) {
        const Model& m = b.models[i];
        const std::int64_t t0 = now_ns();
        try {
            const stg::Stg stg = stg::parse_astg_string(m.text);
            const auto r = core::verify_stg(stg, default_options(), ex);
            const std::string report = core::format_report(stg, r);
            ms[i] = to_ms(now_ns() - t0);
            audit(b, m, stg, r, report, /*full=*/false);
        } catch (const std::exception& e) {
            g_outcome.fail(m.file + ": " + e.what());
        }
    });
    g_outcome.attempt(b.models.size());
}

Metrics corpus(Bench& b) {
    Metrics out;
    out.push_back({"setup_s", {probe_setup(b), "s"}});
    load_inputs(b);
    sched::Executor ex(kWidth);
    // A CI user waits for the whole pass.  Per-row times from submission
    // mostly measure the order in which the pool happens to start the rows
    // (IQR/median 0.37-0.40 over five runs on the reference host), so the
    // latency figures of this workload are taken over pass makespans.
    Latencies lat(1);
    std::vector<double> ms(b.models.size());
    const std::int64_t t0 = now_ns();
    const std::int64_t deadline = t0 + static_cast<std::int64_t>(b.seconds * 1e9);
    do {
        const std::int64_t p0 = now_ns();
        corpus_pass(b, ex, ms);
        lat.units[0].push_back(to_ms(now_ns() - p0));
    } while (now_ns() < deadline);
    lat.spread = lat.units[0];
    latency_metrics(out, lat,
                    static_cast<double>(lat.spread.size() * b.models.size()),
                    now_ns() - t0);
    out.push_back({"peak_rss_mb", {process_peak_rss_mb(), "MiB"}});
    return out;
}

// -------------------------------------------------------- traced attribution

/// Per-layer times of one decomposed verdict, in ms.
struct Layers {
    double parse = 0, unfold = 0, artifacts = 0, usc = 0, csc = 0,
           normalcy = 0, render = 0, verdict = 0;
    bool certificate = false;  ///< CSC answered by the USC=>CSC certificate
};

/// verify_stg + format_report at jobs 1, recomposed from each module's
/// public calls so every layer is timed by the benchmark itself.  The report
/// must equal the monolithic one byte for byte.
Layers layered_verdict(Bench& b, const Model& m, core::VerificationReport& r,
                       std::string& report) {
    Layers t;
    const core::VerifyOptions opts = default_options();
    const std::int64_t v0 = now_ns();
    std::optional<stg::Stg> stg;
    std::optional<unf::Prefix> prefix;
    t.parse = to_ms(timed("stg.parse", m.file,
                          [&] { stg.emplace(stg::parse_astg_string(m.text)); }));
    t.unfold = to_ms(timed("unfolding.unfold", m.file, [&] {
        prefix.emplace(unf::unfold(stg->system(), opts.unfold));
    }));
    t.artifacts = to_ms(timed("cache.artifacts", m.file, [&] {
        r.artifacts =
            std::make_shared<const cache::PrefixArtifacts>(*stg, std::move(*prefix));
    }));
    const cache::PrefixArtifacts& art = *r.artifacts;
    r.prefix = {art.prefix().num_conditions(), art.prefix().num_events(),
                art.prefix().num_cutoffs()};
    r.consistent = art.consistency().consistent;
    r.initial_code = art.consistency().initial_code;
    sched::Executor serial(1);
    const core::UnfoldingChecker checker(r.artifacts);
    t.usc = to_ms(timed("core.usc", m.file,
                        [&] { r.usc = checker.check_usc(opts.search); }));
    t.csc = to_ms(timed("core.csc", m.file,
                        [&] { r.csc = checker.check_csc(opts.search, serial); }));
    r.normalcy_checked = true;
    t.normalcy = to_ms(timed("core.normalcy", m.file, [&] {
        r.normalcy = checker.check_normalcy(opts.search, serial);
    }));
    r.cuts = art.clauses().efficacy();
    t.render = to_ms(timed("core.render", m.file,
                           [&] { report = core::format_report(*stg, r); }));
    const std::int64_t v1 = now_ns();
    g_spans.add("verdict", v0, v1, m.file);
    t.verdict = to_ms(v1 - v0);
    const std::string err = verdict_error(b.oracle.at(m.file), *stg, r);
    if (!err.empty()) g_outcome.fail(m.file + " (layered): " + err);
    b.reports.agree(m.file + "|normalcy=1", report);
    b.ledger->agree(m.file + "|jobs1", full_counts(r));
    t.certificate = art.clauses().usc_holds();
    // The artifacts reference *stg; release them before it goes.
    r.artifacts.reset();
    return t;
}

/// Running sums of medians over models.
double sum_of_medians(const std::vector<std::vector<double>>& per_model) {
    double s = 0;
    for (const auto& v : per_model) s += median(v);
    return s;
}

Metrics traced(Bench& b) {
    Metrics out;
    const auto put = [&](const std::string& name, double v, const char* unit) {
        out.push_back({name, {v, unit}});
    };
    load_inputs(b);
    const std::size_t n = b.models.size();
    const double budget = b.seconds;

    // A. Layer attribution at jobs 1: alternate the monolithic verdict
    // (untraced) and the decomposed one (spans) per model.
    std::vector<std::vector<double>> plain(n), verdict(n), parse(n), unfold(n),
        artifacts(n), usc(n), csc(n), normalcy(n), render(n);
    std::uint64_t events = 0, conditions = 0, usc_nodes = 0, usc_props = 0,
                  csc_nodes = 0, norm_nodes = 0, leaves = 0, certs = 0,
                  recorded = 0, pruned = 0;
    double covered = 0, spanned = 0;
    const std::int64_t a0 = now_ns();
    for (int round = 0;
         round < 3 || (round < 200 && to_ms(now_ns() - a0) < 400 * budget);
         ++round) {
        for (std::size_t i = 0; i < n; ++i) {
            const Model& m = b.models[i];
            plain[i].push_back(to_ms(stgcheck_verdict(b, m)));
            core::VerificationReport r;
            std::string report;
            const Layers t = layered_verdict(b, m, r, report);
            g_outcome.attempt(2);
            verdict[i].push_back(t.verdict);
            parse[i].push_back(t.parse);
            unfold[i].push_back(t.unfold);
            artifacts[i].push_back(t.artifacts);
            usc[i].push_back(t.usc);
            csc[i].push_back(t.csc);
            normalcy[i].push_back(t.normalcy);
            render[i].push_back(t.render);
            spanned += t.verdict;
            covered += t.parse + t.unfold + t.artifacts + t.usc + t.csc +
                       t.normalcy + t.render;
            if (round > 0) continue;
            events += r.prefix.events;
            conditions += r.prefix.conditions;
            usc_nodes += r.usc.stats.search_nodes;
            usc_props += r.usc.stats.propagations;
            csc_nodes += r.csc.stats.search_nodes;
            norm_nodes += r.normalcy.stats.search_nodes;
            leaves += r.usc.stats.leaves + r.csc.stats.leaves +
                      r.normalcy.stats.leaves;
            certs += t.certificate ? 1 : 0;
            recorded += r.cuts.recorded;
            pruned += r.cuts.pruned_nodes;
        }
    }
    const double usc_ms = sum_of_medians(usc), norm_ms = sum_of_medians(normalcy);
    put("stg.parse_ms", sum_of_medians(parse), "ms");
    put("unfolding.unfold_ms", sum_of_medians(unfold), "ms");
    put("cache.artifacts_ms", sum_of_medians(artifacts), "ms");
    put("core.render_ms", sum_of_medians(render), "ms");
    put("unfolding.events", static_cast<double>(events), "count");
    put("unfolding.conditions", static_cast<double>(conditions), "count");
    put("core.usc.ms", usc_ms, "ms");
    put("core.usc.nodes", static_cast<double>(usc_nodes), "count");
    put("core.usc.propagations", static_cast<double>(usc_props), "count");
    put("core.usc.ns_per_node",
        usc_nodes ? usc_ms * 1e6 / static_cast<double>(usc_nodes) : 0.0, "ns");
    put("core.normalcy.ms", norm_ms, "ms");
    put("core.normalcy.nodes", static_cast<double>(norm_nodes), "count");
    put("core.normalcy.ns_per_node",
        norm_nodes ? norm_ms * 1e6 / static_cast<double>(norm_nodes) : 0.0, "ns");
    put("core.leaves", static_cast<double>(leaves), "count");
    put("core.csc.ms", sum_of_medians(csc), "ms");
    put("core.csc.nodes", static_cast<double>(csc_nodes), "count");
    put("cache.certificates", static_cast<double>(certs), "count");
    put("cache.clauses.recorded", static_cast<double>(recorded), "count");
    put("cache.clauses.pruned_nodes", static_cast<double>(pruned), "count");
    const double plain_ms = sum_of_medians(plain);
    put("obs.trace_overhead", sum_of_medians(verdict) / plain_ms - 1.0, "ratio");
    put("unattributed_share", (spanned - covered) / spanned, "ratio");

    // B. Bound share: the solver splits off its bounding time only while
    // the program's own observability is on, so this is a separate pass.
    {
        obs::set_enabled(true);
        double bound = 0, total = 0;
        for (const Model& m : b.models) {
            const stg::Stg stg = stg::parse_astg_string(m.text);
            const auto r = core::verify_stg(stg, default_options());
            for (const stg::CheckStats* s :
                 {&r.usc.stats, &r.csc.stats, &r.normalcy.stats}) {
                bound += s->bound_seconds;
                total += s->seconds;
            }
        }
        obs::set_enabled(false);
        obs::Tracer::instance().clear();
        put("core.bound_share", total > 0 ? bound / total : 0.0, "ratio");
    }

    // C. The explicit state-graph baseline (Pfy in the paper's Table 1):
    // build the state graph and check USC and CSC, against the same two
    // checks on the unfolding (unfold + artifacts + USC + CSC).
    {
        std::vector<std::vector<double>> sg(n);
        for (int rep = 0; rep < 3; ++rep)
            for (std::size_t i = 0; i < n; ++i) {
                const Model& m = b.models[i];
                const stg::Stg stg = stg::parse_astg_string(m.text);
                bool usc_holds = false, csc_holds = false;
                sg[i].push_back(to_ms(timed("stg.state_graph", m.file, [&] {
                    const stg::StateGraph graph(stg);
                    usc_holds = stg::check_usc_sg(graph).holds;
                    csc_holds = stg::check_csc_sg(graph).holds;
                })));
                const Expected& e = b.oracle.at(m.file);
                if (usc_holds != e.usc || csc_holds != e.csc)
                    g_outcome.violate(m.file +
                                      ": state-graph verdict differs from the oracle");
            }
        const double sg_ms = sum_of_medians(sg);
        const double clp_ms = sum_of_medians(unfold) + sum_of_medians(artifacts) +
                              usc_ms + sum_of_medians(csc);
        put("stg.state_graph_ms", sg_ms, "ms");
        put("core.clp_over_pfy", clp_ms / sg_ms, "ratio");
    }
    put("mem.arena_peak_mb",
        static_cast<double>(util::Arena::process_peak_bytes()) / (1 << 20), "MiB");

    // D. Scheduler attribution at jobs 4 from the pool's own tallies.
    {
        sched::Executor ex(kWidth);
        std::vector<double> eff, crit, ratio, qdelay, park, steals, own(n);
        const std::int64_t d0 = now_ns();
        for (int pass = 0;
             pass < 3 || (pass < 200 && to_ms(now_ns() - d0) < 200 * budget);
             ++pass) {
            const auto s0 = ex.pool()->stats();
            const std::int64_t t0 = now_ns();
            corpus_pass(b, ex, own);
            const double wall = to_ms(now_ns() - t0);
            const auto s1 = ex.pool()->stats();
            g_spans.add("sched.pass", t0, t0 + static_cast<std::int64_t>(wall * 1e6),
                        "");
            const double slowest = *std::max_element(own.begin(), own.end());
            eff.push_back(to_ms(static_cast<std::int64_t>(s1.busy_ns - s0.busy_ns)) /
                          (kWidth * wall));
            crit.push_back(slowest);
            ratio.push_back(wall / slowest);
            const auto tasks = static_cast<double>(s1.executed - s0.executed);
            qdelay.push_back(tasks > 0 ? to_ms(static_cast<std::int64_t>(
                                             s1.queue_delay_ns - s0.queue_delay_ns)) /
                                             tasks
                                       : 0.0);
            park.push_back(to_ms(static_cast<std::int64_t>(s1.park_ns - s0.park_ns)));
            steals.push_back(static_cast<double>(s1.stolen - s0.stolen));
        }
        put("sched.efficiency", median(eff), "ratio");
        put("sched.critical_path_ms", median(crit), "ms");
        put("sched.makespan_over_critical", median(ratio), "ratio");
        put("sched.queue_delay_ms", median(qdelay), "ms");
        put("sched.park_ms", median(park), "ms");
        put("sched.steals", median(steals), "count");
    }

    // E. The service path: a fresh stgd serving the request mix on the
    // non-counterflow models, whatever the workload, so parse, unfold,
    // framing and the cache tiers dominate rather than CF searches.
    {
        const std::vector<Model> models =
            load_models(b.root / "models", ModelSet::NonCf);
        for (const Model& m : models)
            if (!b.oracle.count(m.file))
                throw std::runtime_error("oracle has no entry for " + m.file);
        Daemon d(b.stgd, b.state_dir);
        const auto samples = drive_service(b, models, d, 0.3 * budget);
        const auto stats = d.call(Json::object().set("op", "stats").set("id", 0));
        d.stop();
        audit_offline_reports(b, models);
        std::vector<double> rtt, server, overhead, bytes, by_kind[3];
        for (const Sample& s : samples) {
            rtt.push_back(s.ms);
            server.push_back(s.server_ms);
            overhead.push_back(s.ms - s.server_ms);
            bytes.push_back(s.bytes);
            by_kind[static_cast<int>(s.kind)].push_back(s.ms);
        }
        put("svc.rtt_ms_p50", median(rtt), "ms");
        put("svc.server_ms_p50", median(server), "ms");
        put("svc.overhead_ms_p50", median(overhead), "ms");
        double mean_bytes = 0;
        for (double x : bytes) mean_bytes += x;
        put("svc.response_kb", bytes.empty() ? 0.0 : mean_bytes / bytes.size() / 1024,
            "KiB");
        put("svc.fresh_ms_p50", median(by_kind[0]), "ms");
        put("svc.recheck_ms_p50", median(by_kind[1]), "ms");
        put("svc.repeat_ms_p50", median(by_kind[2]), "ms");
        const auto find = [&](std::initializer_list<const char*> path) -> double {
            const Json* j = stats ? &*stats : nullptr;
            for (const char* k : path) j = j ? j->find(k) : nullptr;
            return j ? j->as_double() : 0.0;
        };
        put("svc.admission_wait_ms_p90",
            find({"metrics", "histograms", "svc.admission_wait_ns", "p90"}) / 1e6,
            "ms");
        const double bh = find({"metrics", "counters", "svc.bundle.hits"});
        const double bm = find({"metrics", "counters", "svc.bundle.misses"});
        const double mh = find({"cache", "memory_hits"});
        const double mm = find({"cache", "misses"});
        put("cache.bundle_hit_share", bh + bm > 0 ? bh / (bh + bm) : 0.0, "ratio");
        put("cache.memory_hit_share", mh + mm > 0 ? mh / (mh + mm) : 0.0, "ratio");
        if (!stats) g_outcome.fail("stats op failed");
    }

    g_spans.write(b.state_dir / ("trace-" + b.workload + "-" +
                                 std::to_string(b.seed) + ".json"));
    return out;
}

// ------------------------------------------------------------------- main

void print_result(const Metrics& metrics) {
    Json m = Json::object();
    for (const auto& [name, vu] : metrics)
        m.set(name, Json::object().set("value", vu.first).set("unit", vu.second));
    std::cout << Json::object()
                     .set("correct", g_outcome.correct())
                     .set("attempted", g_outcome.attempted())
                     .set("failed", g_outcome.failed())
                     .set("metrics", std::move(m))
                     .dump()
              << std::endl;
}

int usage() {
    std::cerr << "usage: stgbench --workload exhaustive|corpus --seed N\n"
                 "                --seconds S --trace 0|1 --stgd PATH\n"
                 "                [--root DIR] [--state-dir DIR]\n"
                 "       stgbench --setup-probe --workload W [--root DIR]\n"
                 "                [--state-dir DIR]\n"
                 "       stgbench --derive-oracle FILE --models DIR [--write]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    ::signal(SIGPIPE, SIG_IGN);
    // The tools read a result-cache directory from the environment by
    // default; a leftover one would turn a run into a cache replay.
    ::unsetenv("STGCC_CACHE_DIR");
    Bench b;
    std::string derive, models_dir;
    bool write = false, probe = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has = i + 1 < argc;
        if (a == "--workload" && has) b.workload = argv[++i];
        else if (a == "--seed" && has) b.seed = std::strtoull(argv[++i], nullptr, 10);
        else if (a == "--seconds" && has) b.seconds = std::strtod(argv[++i], nullptr);
        else if (a == "--trace" && has) b.trace = std::string(argv[++i]) == "1";
        else if (a == "--root" && has) b.root = argv[++i];
        else if (a == "--state-dir" && has) b.state_dir = argv[++i];
        else if (a == "--stgd" && has) b.stgd = argv[++i];
        else if (a == "--derive-oracle" && has) derive = argv[++i];
        else if (a == "--models" && has) models_dir = argv[++i];
        else if (a == "--write") write = true;
        else if (a == "--setup-probe") probe = true;
        else return usage();
    }
    try {
        if (!derive.empty()) {
            // The benchmark's own test: re-derive the committed oracle.
            const Json fresh = derive_oracle(load_models(models_dir, ModelSet::All));
            if (write) return obs::save_json(derive, fresh, 1) ? 0 : 1;
            const auto committed = Json::parse(read_file(derive));
            if (committed && committed->dump() == fresh.dump()) return 0;
            std::cerr << "oracle mismatch; state-graph verdicts are:\n"
                      << fresh.dump(1) << "\n";
            return 1;
        }
        if (b.workload != "exhaustive" && b.workload != "corpus") return usage();
        if (!probe && (b.seconds <= 0 || b.stgd.empty())) return usage();
        fs::create_directories(b.state_dir);
        if (probe) {
            load_inputs(b);
            if (b.workload == "corpus") sched::Executor ex(kWidth);
            return 0;
        }
        b.ledger = std::make_unique<Ledger>(b.state_dir);
        Metrics metrics = b.trace                      ? traced(b)
                          : b.workload == "exhaustive" ? exhaustive(b)
                                                       : corpus(b);
        if (g_outcome.correct()) b.ledger->save();
        print_result(metrics);
        return g_outcome.correct() ? 0 : 1;
    } catch (const std::exception& e) {
        std::cerr << "stgbench: " << e.what() << "\n";
        return 1;
    }
}
