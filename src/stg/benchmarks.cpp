#include "stg/benchmarks.hpp"

#include "stg/builder.hpp"

namespace stgcc::stg::bench {

namespace {
std::string idx(const std::string& base, int i) { return base + std::to_string(i); }
}  // namespace

Stg vme_bus() {
    StgBuilder b("vme-bus");
    b.input("dsr").input("ldtack");
    b.output("dtack").output("lds").output("d");
    b.arc("dsr+", "lds+");
    b.arc("lds+", "ldtack+");
    b.arc("ldtack+", "d+");
    b.arc("d+", "dtack+");
    b.arc("dtack+", "dsr-");
    b.arc("dsr-", "d-");
    b.arc("d-", "dtack-");
    b.arc("d-", "lds-");
    b.arc("lds-", "ldtack-");
    b.arc("dtack-", "dsr+");
    b.arc("ldtack-", "lds+");
    b.token_between("dtack-", "dsr+");
    b.token_between("ldtack-", "lds+");
    return b.build();
}

Stg vme_bus_csc_resolved() {
    StgBuilder b("vme-bus-csc");
    b.input("dsr").input("ldtack");
    b.output("dtack").output("lds").output("d");
    b.internal("csc");
    // Arcs follow the paper's implementation equations: csc = dsr (csc +
    // !ldtack) (csc+ after dsr+ with ldtack low, csc- after dsr-),
    // d = ldtack csc (d- driven by csc-), dtack = d, lds = d + csc.
    b.arc("dsr+", "csc+");
    b.arc("ldtack-", "csc+");
    b.arc("csc+", "lds+");
    b.arc("lds+", "ldtack+");
    b.arc("ldtack+", "d+");
    b.arc("d+", "dtack+");
    b.arc("dtack+", "dsr-");
    b.arc("dsr-", "csc-");
    b.arc("csc-", "d-");
    b.arc("d-", "dtack-");
    b.arc("d-", "lds-");
    b.arc("lds-", "ldtack-");
    b.arc("dtack-", "dsr+");
    b.token_between("dtack-", "dsr+");
    b.token_between("ldtack-", "csc+");
    return b.build();
}

Stg parallel_handshakes(int n) {
    STGCC_REQUIRE(n >= 1);
    StgBuilder b("par-" + std::to_string(n));
    for (int i = 1; i <= n; ++i) {
        b.input(idx("r", i)).output(idx("a", i));
        b.arc(idx("r", i) + "+", idx("a", i) + "+");
        b.arc(idx("a", i) + "+", idx("r", i) + "-");
        b.arc(idx("r", i) + "-", idx("a", i) + "-");
        b.arc(idx("a", i) + "-", idx("r", i) + "+");
        b.token_between(idx("a", i) + "-", idx("r", i) + "+");
    }
    return b.build();
}

Stg handshake_pipeline(int n) {
    STGCC_REQUIRE(n >= 1);
    StgBuilder b("pipe-" + std::to_string(n));
    for (int i = 1; i <= n; ++i) {
        if (i == 1)
            b.input(idx("r", i));
        else
            b.internal(idx("r", i));
        b.output(idx("a", i));
    }
    for (int i = 1; i <= n; ++i) {
        b.arc(idx("r", i) + "+", idx("a", i) + "+");
        b.arc(idx("a", i) + "+", idx("r", i) + "-");
        b.arc(idx("r", i) + "-", idx("a", i) + "-");
        b.arc(idx("a", i) + "-", idx("r", i) + "+");
        b.token_between(idx("a", i) + "-", idx("r", i) + "+");
    }
    for (int i = 1; i < n; ++i) {
        // Stage i's ack launches stage i+1's request; stage i+1's ack
        // releases stage i's next request (slack-1 backpressure).
        b.arc(idx("a", i) + "+", idx("r", i + 1) + "+");
        b.arc(idx("a", i + 1) + "+", idx("r", i) + "+");
        b.token_between(idx("a", i + 1) + "+", idx("r", i) + "+");
    }
    return b.build();
}

Stg sequential_handshakes(int n) {
    STGCC_REQUIRE(n >= 1);
    StgBuilder b("seq-" + std::to_string(n));
    for (int i = 1; i <= n; ++i) b.input(idx("r", i)).output(idx("a", i));
    for (int i = 1; i <= n; ++i) {
        b.arc(idx("r", i) + "+", idx("a", i) + "+");
        b.arc(idx("a", i) + "+", idx("r", i) + "-");
        b.arc(idx("r", i) + "-", idx("a", i) + "-");
        const std::string next = idx("r", i == n ? 1 : i + 1) + "+";
        b.arc(idx("a", i) + "-", next);
    }
    b.token_between(idx("a", n) + "-", "r1+");
    return b.build();
}

Stg johnson_counter(int k) {
    STGCC_REQUIRE(k >= 1);
    StgBuilder b("johnson-" + std::to_string(k));
    for (int i = 1; i <= k; ++i) {
        if (i == 1)
            b.input(idx("z", i));
        else
            b.output(idx("z", i));
    }
    std::vector<std::string> cycle;
    for (int i = 1; i <= k; ++i) cycle.push_back(idx("z", i) + "+");
    for (int i = 1; i <= k; ++i) cycle.push_back(idx("z", i) + "-");
    for (std::size_t i = 0; i < cycle.size(); ++i)
        b.arc(cycle[i], cycle[(i + 1) % cycle.size()]);
    b.token_between(cycle.back(), cycle.front());
    return b.build();
}

Stg phase_envelope(int rounds) {
    STGCC_REQUIRE(rounds >= 1);
    StgBuilder b("envelope-" + std::to_string(rounds));
    b.input("env").output("a").output("b");
    // env+ ; rounds x (a+ b+ a- b-) ; env- ; rounds x (a+ b+ a- b-) ; repeat.
    std::vector<std::string> cycle;
    auto round = [&](int j, const char* phase) {
        cycle.push_back("a+/" + std::string(phase) + std::to_string(j));
        cycle.push_back("b+/" + std::string(phase) + std::to_string(j));
        cycle.push_back("a-/" + std::string(phase) + std::to_string(j));
        cycle.push_back("b-/" + std::string(phase) + std::to_string(j));
    };
    cycle.push_back("env+");
    for (int j = 1; j <= rounds; ++j) round(j, "1");
    cycle.push_back("env-");
    for (int j = 1; j <= rounds; ++j) round(j, "2");
    for (std::size_t i = 0; i < cycle.size(); ++i)
        b.arc(cycle[i], cycle[(i + 1) % cycle.size()]);
    b.token_between(cycle.back(), cycle.front());
    return b.build();
}

Stg token_ring(int stations) {
    STGCC_REQUIRE(stations >= 1);
    StgBuilder b("ring-" + std::to_string(stations));
    for (int i = 1; i <= stations; ++i) {
        b.input(idx("req", i)).input(idx("skip", i));
        b.output(idx("gnt", i)).output(idx("rr", i));
    }
    for (int i = 1; i <= stations; ++i) {
        // Free choice at the token place: the environment either requests
        // service or lets the token pass.
        b.place(idx("tok", i), i == 1 ? 1 : 0);
        b.place(idx("done", i), 0);
    }
    for (int i = 1; i <= stations; ++i) {
        // Serve branch: req+ gnt+ req- gnt-.
        b.arc(idx("tok", i), idx("req", i) + "+");
        b.arc(idx("req", i) + "+", idx("gnt", i) + "+");
        b.arc(idx("gnt", i) + "+", idx("req", i) + "-");
        b.arc(idx("req", i) + "-", idx("gnt", i) + "-");
        b.arc(idx("gnt", i) + "-", idx("done", i));
        // Skip branch: skip+ skip-.
        b.arc(idx("tok", i), idx("skip", i) + "+");
        b.arc(idx("skip", i) + "+", idx("skip", i) + "-");
        b.arc(idx("skip", i) + "-", idx("done", i));
        // Pass the token on the ring output.
        b.arc(idx("done", i), idx("rr", i) + "+");
        b.arc(idx("rr", i) + "+", idx("rr", i) + "-");
        const int next = i == stations ? 1 : i + 1;
        b.arc(idx("rr", i) + "-", idx("tok", next));
    }
    return b.build();
}

Stg duplex_channel(int data_bits, bool coded_direction, bool power_control) {
    STGCC_REQUIRE(data_bits >= 1);
    StgBuilder b(std::string("duplex-") + std::to_string(data_bits) +
                 (coded_direction ? "-coded" : "") + (power_control ? "-pc" : ""));
    b.input("asr").input("bsr");
    for (int j = 1; j <= data_bits; ++j) {
        b.output(idx("ad", j)).input(idx("bk", j));  // A -> B data / ack
        b.output(idx("bd", j)).input(idx("ak", j));  // B -> A data / ack
    }
    if (coded_direction) b.internal("dir");
    if (power_control) b.output("apc").output("bpc");
    b.place("chan_a", 1);
    b.place("chan_b", 0);

    auto side = [&](const char* sr, const char* data, const char* ack,
                    const std::string& from_chan, const std::string& to_chan,
                    const std::string& turnaround, const char* pc) {
        const std::string srp = std::string(sr) + "+";
        const std::string srm = std::string(sr) + "-";
        // Data burst: rising chain then falling chain over the data bits,
        // optionally wrapped in a power-control handshake (the "-MTR" /
        // "-MOD" modified protocol variants).
        std::vector<std::string> chain;
        if (power_control) chain.push_back(std::string(pc) + "+");
        for (int j = 1; j <= data_bits; ++j) {
            chain.push_back(idx(data, j) + "+");
            chain.push_back(idx(ack, j) + "+");
        }
        if (coded_direction) {
            // Resolved protocol: the direction toggle *and* the request's
            // return-to-zero both fire while the data signals are high, so
            // every state around them carries a data bit in its code and no
            // window clashes with an idle phase; a new request must wait for
            // the full completion of the falling burst.
            chain.push_back(turnaround);
            chain.push_back(srm);
        }
        for (int j = 1; j <= data_bits; ++j) {
            chain.push_back(idx(data, j) + "-");
            chain.push_back(idx(ack, j) + "-");
        }
        if (power_control) chain.push_back(std::string(pc) + "-");
        b.arc(srp, chain.front());
        b.arc(from_chan, chain.front());
        for (std::size_t i = 0; i + 1 < chain.size(); ++i)
            b.arc(chain[i], chain[i + 1]);
        if (coded_direction) {
            b.arc(chain.back(), srp);
            b.token_between(chain.back(), srp);
            b.arc(chain.back(), to_chan);
        } else {
            // Unresolved protocol: the request closes the transaction and
            // the channel turns around with every signal back at zero -- the
            // direction is invisible in the code (the classic conflict).
            b.arc(chain.back(), srm);
            b.arc(srm, to_chan);
            b.arc(srm, srp);
            b.token_between(srm, srp);
        }
    };
    side("asr", "ad", "bk", "chan_a", "chan_b", "dir+", "apc");
    side("bsr", "bd", "ak", "chan_b", "chan_a", "dir-", "bpc");
    return b.build();
}

namespace {

/// Emit the Muller C-element arcs for a chain of stage signals
/// prev -> s1 -> ... -> sn -> next:  s_i = C(s_{i-1}, !s_{i+1}).
/// The initially marked places reflect all-zero initial signal values.
void muller_chain(StgBuilder& b, const std::vector<std::string>& chain) {
    for (std::size_t i = 1; i + 1 < chain.size(); ++i) {
        b.arc(chain[i - 1] + "+", chain[i] + "+");
        b.arc(chain[i + 1] + "-", chain[i] + "+");
        b.token_between(chain[i + 1] + "-", chain[i] + "+");
        b.arc(chain[i - 1] + "-", chain[i] + "-");
        b.arc(chain[i + 1] + "+", chain[i] + "-");
    }
    // Consumer end: the last signal simply follows its predecessor.
    const std::string& last = chain.back();
    const std::string& prev = chain[chain.size() - 2];
    b.arc(prev + "+", last + "+");
    b.arc(prev + "-", last + "-");
}

}  // namespace

Stg muller_pipeline(int n) {
    STGCC_REQUIRE(n >= 1);
    StgBuilder b("muller-" + std::to_string(n));
    auto c = [](int i) {
        std::string name = "c";
        name += std::to_string(i);
        return name;
    };
    b.input(c(0));
    for (int i = 1; i <= n; ++i) b.output(c(i));
    b.input(c(n + 1));
    std::vector<std::string> chain;
    for (int i = 0; i <= n + 1; ++i) chain.push_back(c(i));
    muller_chain(b, chain);
    // Producer environment: c0 toggles against stage 1's acknowledgement.
    b.arc(c(1) + "-", c(0) + "+");
    b.token_between(c(1) + "-", c(0) + "+");
    b.arc(c(1) + "+", c(0) + "-");
    return b.build();
}

Stg counterflow(int stages, bool symmetric) {
    STGCC_REQUIRE(stages >= 1);
    StgBuilder b(std::string("cf-") + (symmetric ? "sym-" : "asym-") +
                 std::to_string(stages));
    // Two flows leave a common source r: the "instruction" flow f1..fn and
    // the counter-directed "result" flow g1..gm (m == n when symmetric);
    // both are Muller C-element chains ending in an always-ready sink input.
    const int m = symmetric ? stages : (stages + 1) / 2;
    b.input("r");
    for (int i = 1; i <= stages; ++i) b.output(idx("f", i));
    b.input("fs");  // forward sink
    for (int i = 1; i <= m; ++i) b.output(idx("g", i));
    b.input("gs");  // counterflow sink
    std::vector<std::string> f{"r"}, g{"r"};
    for (int i = 1; i <= stages; ++i) f.push_back(idx("f", i));
    f.push_back("fs");
    for (int i = 1; i <= m; ++i) g.push_back(idx("g", i));
    g.push_back("gs");
    muller_chain(b, f);
    muller_chain(b, g);
    // The source toggles once both first stages have acknowledged.
    b.arc("f1-", "r+");
    b.token_between("f1-", "r+");
    b.arc("f1+", "r-");
    b.arc("g1-", "r+");
    b.token_between("g1-", "r+");
    b.arc("g1+", "r-");
    return b.build();
}

Stg mutex_arbiter(int clients) {
    STGCC_REQUIRE(clients >= 1);
    StgBuilder b("mutex-" + std::to_string(clients));
    b.place("mutex", 1);
    for (int i = 1; i <= clients; ++i) {
        b.input(idx("r", i)).output(idx("g", i));
        // r+ (request) ; g+ takes the mutex ; r- ; g- releases it.
        b.arc(idx("r", i) + "+", idx("g", i) + "+");
        b.arc("mutex", idx("g", i) + "+");
        b.arc(idx("g", i) + "+", idx("r", i) + "-");
        b.arc(idx("r", i) + "-", idx("g", i) + "-");
        b.arc(idx("g", i) + "-", "mutex");
        b.arc(idx("g", i) + "-", idx("r", i) + "+");
        b.token_between(idx("g", i) + "-", idx("r", i) + "+");
    }
    return b.build();
}

std::vector<NamedBenchmark> table1_suite() {
    std::vector<NamedBenchmark> suite;
    suite.push_back({"LAZYRING", token_ring(2), false});
    suite.push_back({"RING", token_ring(4), false});
    suite.push_back({"DUP-4PH-A", duplex_channel(1, false, false), false});
    suite.push_back({"DUP-4PH-B", duplex_channel(2, false, false), false});
    suite.push_back({"DUP-4PH-MTR-A", duplex_channel(1, false, true), false});
    suite.push_back({"DUP-4PH-MTR-B", duplex_channel(2, false, true), false});
    suite.push_back({"DUP-MOD-A", duplex_channel(3, false, false), false});
    suite.push_back({"DUP-MOD-B", duplex_channel(3, false, true), false});
    suite.push_back({"DUP-MOD-C", duplex_channel(4, false, true), false});
    suite.push_back({"CF-SYM-A-CSC", counterflow(2, true), true});
    suite.push_back({"CF-SYM-B-CSC", counterflow(3, true), true});
    suite.push_back({"CF-SYM-C-CSC", counterflow(4, true), true});
    suite.push_back({"CF-SYM-D-CSC", counterflow(5, true), true});
    suite.push_back({"CF-ASYM-A-CSC", counterflow(5, false), true});
    suite.push_back({"CF-ASYM-B-CSC", counterflow(7, false), true});
    return suite;
}

}  // namespace stgcc::stg::bench
