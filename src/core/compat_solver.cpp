#include "core/compat_solver.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace stgcc::core {

namespace {

/// The search levels of this thread's solves.  The stack grows to the
/// deepest 0-branch chain a solve reaches and is kept for the thread's next
/// solve, so a thread that runs many (the subtrees of a split USC search,
/// the CSC instances, a batch) allocates it once.  A stack larger than
/// kKeptLevelWords is released when its solve ends: it grows with the
/// square of the prefix (3 MiB on a 150-stage sequential handshake), and a
/// long-lived worker should not hold the deepest search it ever ran.  One
/// solve at a time may use it: `busy` guards against a nested one.
struct LevelStack {
    std::vector<BitSpan::Word> words;
    bool busy = false;
};

/// 64 KiB; every shipped model's stack fits (26 KiB on CF-ASYM-B).
constexpr std::size_t kKeptLevelWords = std::size_t{1} << 13;

thread_local LevelStack t_levels;

}  // namespace

CompatSolver::CompatSolver(const CodingProblem& problem, SearchOptions opts)
    : problem_(&problem), opts_(opts) {}

/// The widths of one kernel instantiation and the level offsets they give:
/// compile-time constants when NW is nonzero, so the word loops of the
/// kernel unroll and the offsets fold.
template <std::size_t NW>
struct CompatSolver::Widths {
    std::size_t nw, npw, ncw;                   ///< words per plane, place set, code
    std::size_t places_at, code_at, bounds_at;  ///< in a level
    explicit Widths(const CompatSolver& s)
        : nw(NW ? NW : s.nw_),
          npw(NW ? 1 : s.npw_),
          ncw(NW ? 1 : s.ncw_),
          places_at(4 * nw),
          code_at(places_at + 2 * npw),
          bounds_at(code_at + 2 * ncw) {
        STGCC_ASSERT(nw == s.nw_ && npw == s.npw_ && ncw == s.ncw_);
    }
};

template <std::size_t NW>
bool CompatSolver::bound_signal(stg::SignalId z) {
    // D_z = sum_e delta(e) (x'_e - x''_e): rising events weigh +1 on x' and
    // -1 on x'', falling events the opposite.  Its bounds over the
    // unassigned variables are carried in the level (carry_fresh()).
    const Widths<NW> width(*this);
    const std::size_t nw = width.nw;
    const Word packed = state_[width.bounds_at + z];
    const std::int64_t min_sum =
        static_cast<std::int64_t>(packed & 0xffffffffu) - kBias;
    const std::int64_t max_sum = static_cast<std::int64_t>(packed >> 32) - kBias;
    bool feasible = true;
    switch (relation_) {
        case CodeRelation::Equal: feasible = min_sum <= 0 && max_sum >= 0; break;
        case CodeRelation::LessEq: feasible = min_sum <= 0; break;
        case CodeRelation::GreaterEq: feasible = max_sum >= 0; break;
    }
    if (!feasible) {
        // An interval infeasibility proof: the relation on D_z can no
        // longer be satisfied, pruning the whole subtree.
        ++signal_prunes_;
        return false;
    }

    // Unit-style forcing when the relation pins D_z to an extreme: every
    // unassigned variable of z takes the value that keeps D_z there (max:
    // coefficient +1 -> 1, -1 -> 0; min: the opposite).
    const bool force_max = max_sum == 0 && relation_ != CodeRelation::LessEq;
    const bool force_min = min_sum == 0 && relation_ != CodeRelation::GreaterEq;
    if (!force_max && !force_min) return true;
    const Word* r = problem_->rising(z).words();
    const Word* f = problem_->falling(z).words();
    const Word* o0 = state_ + plane(0, 1) * nw;
    const Word* z0 = state_ + plane(0, 0) * nw;
    const Word* o1 = state_ + plane(1, 1) * nw;
    const Word* z1 = state_ + plane(1, 0) * nw;
    const int up = force_max ? 1 : 0;  // value of the +1 variables
    Word* rise0 = want_.data() + plane(0, up) * nw;
    Word* fall0 = want_.data() + plane(0, 1 - up) * nw;
    Word* fall1 = want_.data() + plane(1, up) * nw;
    Word* rise1 = want_.data() + plane(1, 1 - up) * nw;
    for (std::size_t w = 0; w < nw; ++w) {
        const Word free0 = ~(o0[w] | z0[w]);
        const Word free1 = ~(o1[w] | z1[w]);
        rise0[w] |= r[w] & free0;
        fall0[w] |= f[w] & free0;
        fall1[w] |= f[w] & free1;
        rise1[w] |= r[w] & free1;
    }
    return true;
}

template <std::size_t NW>
std::size_t CompatSolver::carry_fresh() {
    // Each fresh variable shrinks the interval of its signal's D_z by one
    // at one end: min rises when its coefficient is +1 and its value 1, or
    // -1 and 0; otherwise max falls.  The coefficient is +1 for a rising
    // event on x' or a falling one on x''.  Each fresh 1-bit of a side also
    // XORs its event's place flow into that side's place set and flips its
    // signal in that side's code.  The words are overwritten in place: the
    // level is a copy that backtracking drops.
    const Widths<NW> width(*this);
    const std::size_t nw = width.nw;
    const std::size_t npw = width.npw;
    Word* const state = state_;
    const Word* const fresh = fresh_.data();
    const Word* const rise = problem_->rising_events().words();
    Word* const bounds = state + width.bounds_at;
    Word* const touched = touched_.data();
    std::size_t committed = 0;
    for (std::size_t w = 0; w < nw; ++w) {
        const Word f0 = fresh[plane(0, 1) * nw + w];
        const Word f1 = fresh[plane(0, 0) * nw + w];
        const Word f2 = fresh[plane(1, 1) * nw + w];
        const Word f3 = fresh[plane(1, 0) * nw + w];
        Word bits = f0 | f1 | f2 | f3;
        if (bits == 0) continue;
        const Word r = rise[w];
        // Per side: the fresh bits that raise min; the rest lower max.
        const Word min_up0 = (f0 & r) | (f1 & ~r);
        const Word min_up1 = (f2 & ~r) | (f3 & r);
        const Word any0 = f0 | f1;
        const Word any1 = f2 | f3;
        while (bits) {
            const unsigned b = static_cast<unsigned>(std::countr_zero(bits));
            bits &= bits - 1;
            const std::size_t e = w * kWordBits + b;
            const stg::SignalId z = problem_->signal(e);
            touched[z / kWordBits] |= Word{1} << (z % kWordBits);
            const Word n = ((any0 >> b) & 1) + ((any1 >> b) & 1);
            const Word up = ((min_up0 >> b) & 1) + ((min_up1 >> b) & 1);
            bounds[z] += up - ((n - up) << 32);
            committed += n;
            for (int s = 0; s < 2; ++s) {
                if (!(((s == 0 ? f0 : f2) >> b) & 1)) continue;
                Word* places = state + width.places_at + s * npw;
                Word* code = state + width.code_at + s * width.ncw;
                const Word* flow = problem_->place_flow(e).words();
                for (std::size_t i = 0; i < npw; ++i) places[i] ^= flow[i];
                code[z / kWordBits] ^= Word{1} << (z % kWordBits);
            }
        }
    }
    return committed;
}

template <std::size_t NW>
bool CompatSolver::assign(int side, std::size_t idx, int value) {
    // Propagation in rounds over whole words.  A round closes the newly
    // wanted bits under Theorem 1, checks the result against the planes,
    // commits what is fresh, and derives the next round's wants from the
    // fresh bits: the first-difference and section 7 links and the
    // interval forcing of every touched signal.  Every rule is monotone, so
    // the rounds reach the same fixpoint (or the same failure) as any
    // one-variable-at-a-time order would.
    //
    // The scratch words are addressed through locals: they are
    // std::uint64_t like the size fields, so member reads inside the loops
    // would be reloaded after every store.
    const Widths<NW> width(*this);
    const std::size_t nw = width.nw;
    const unf::Prefix& prefix = problem_->prefix();
    Word* const planes = state_;
    Word* const want = want_.data();
    Word* const fresh = fresh_.data();
    const Word* const below = below_.data();
    std::fill(want, want + 4 * nw, Word{0});
    want[plane(side, value) * nw + idx / kWordBits] |= Word{1} << (idx % kWordBits);
    while (true) {
        // Theorem 1 closure (MCC): x(e)=1 forces predecessors to 1 and
        // conflicters to 0; x(e)=0 forces successors to 0.  The prefix rows
        // are transitively closed and conflict is inherited by successors,
        // so one OR of the rows of the newly wanted bits closes the round:
        // the bits a row adds need no rows of their own.  [e] and the
        // successor row also hold e itself, already wanted at that value;
        // the cut-offs a conflict or successor row holds are pinned to 0.
        for (std::size_t i = 0; i < 4 * nw; ++i) fresh[i] = want[i] & ~planes[i];
        for (int s = 0; s < 2; ++s) {
            Word* w1 = want + plane(s, 1) * nw;
            Word* w0 = want + plane(s, 0) * nw;
            const Word* f1 = fresh + plane(s, 1) * nw;
            const Word* f0 = fresh + plane(s, 0) * nw;
            for (std::size_t fw = 0; fw < nw; ++fw) {
                for (Word bits = f1[fw]; bits; bits &= bits - 1) {
                    const std::size_t e =
                        fw * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
                    const Word* pred = prefix.local_config(e).words();
                    const Word* conf = prefix.conflicts(e).words();
                    for (std::size_t w = 0; w < nw; ++w) {
                        w1[w] |= pred[w];
                        w0[w] |= conf[w];
                    }
                }
                for (Word bits = f0[fw]; bits; bits &= bits - 1) {
                    const std::size_t e =
                        fw * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
                    const Word* succ = prefix.successors(e).words();
                    for (std::size_t w = 0; w < nw; ++w) w0[w] |= succ[w];
                }
            }
        }

        Word any = 0;
        for (int s = 0; s < 2; ++s) {
            const Word* w1 = want + plane(s, 1) * nw;
            const Word* w0 = want + plane(s, 0) * nw;
            const Word* ones = planes + plane(s, 1) * nw;
            const Word* zeros = planes + plane(s, 0) * nw;
            Word* f1 = fresh + plane(s, 1) * nw;
            Word* f0 = fresh + plane(s, 0) * nw;
            for (std::size_t w = 0; w < nw; ++w) {
                if ((w1[w] & (zeros[w] | w0[w])) | (w0[w] & ones[w])) {
                    // Closure contradiction (Theorem 1 forcing clash).
                    ++closure_prunes_;
                    return false;
                }
                f1[w] = w1[w] & ~ones[w];
                f0[w] = w0[w] & ~zeros[w];
                any |= f1[w] | f0[w];
            }
        }
        if (any == 0) return true;

        // Commit the fresh bits and carry the intervals, place sets and
        // codes along.
        for (std::size_t i = 0; i < 4 * nw; ++i) {
            want[i] = 0;
            planes[i] |= fresh[i];
        }
        stats_.propagations += carry_fresh<NW>();

        // First-difference linking: below index d the two vectors are equal.
        for (int s = 0; s < 2; ++s) {
            const Word* f1 = fresh + plane(s, 1) * nw;
            const Word* f0 = fresh + plane(s, 0) * nw;
            Word* o1 = want + plane(1 - s, 1) * nw;
            Word* o0 = want + plane(1 - s, 0) * nw;
            for (std::size_t w = 0; w < nw; ++w) {
                o1[w] |= f1[w] & below[w];
                o0[w] |= f0[w] & below[w];
            }
        }
        // Section 7 optimisation: restrict to C' subset C'' (x'_e <= x''_e).
        if (conflict_free_mode_) {
            const Word* ones0 = fresh + plane(0, 1) * nw;
            const Word* zeros1 = fresh + plane(1, 0) * nw;
            Word* want_ones1 = want + plane(1, 1) * nw;
            Word* want_zeros0 = want + plane(0, 0) * nw;
            for (std::size_t w = 0; w < nw; ++w) {
                want_ones1[w] |= ones0[w];
                want_zeros0[w] |= zeros1[w];
            }
        }

        // Interval pruning for every signal with a freshly assigned
        // variable (marked by carry_fresh()), in ascending signal order;
        // the first infeasible one fails the round.
        Word* const touched = touched_.data();
        bool feasible = true;
        for (std::size_t i = 0; i < width.ncw; ++i) {
            for (Word bits = touched[i]; bits && feasible; bits &= bits - 1)
                feasible = bound_signal<NW>(static_cast<stg::SignalId>(
                    i * kWordBits + static_cast<std::size_t>(std::countr_zero(bits))));
            touched[i] = 0;
        }
        if (!feasible) return false;
    }
}

void CompatSolver::descend(std::size_t level) {
    const std::size_t n = level_words_;
    if (levels_->size() < (level + 2) * n) levels_->resize((level + 2) * n);
    Word* const from = levels_->data() + level * n;
    std::copy_n(from, n, from + n);
    state_ = from + n;
}

template <std::size_t NW>
bool CompatSolver::dfs(const PairPredicate& accept, std::size_t level,
                       std::size_t depth, std::size_t reachable_at) {
    if (++stats_.search_nodes > opts_.max_nodes)
        throw ModelError("CompatSolver: node limit exceeded (" +
                         std::to_string(opts_.max_nodes) + ")");
    if (depth > stats_.max_depth) stats_.max_depth = depth;
    // Cooperative cancellation: poll every kCancelPollMask+1 nodes, then
    // unwind the whole search (returning false never records a witness).
    if (opts_.cancel.cancellable() &&
        (stats_.search_nodes & kCancelPollMask) == 0 &&
        opts_.cancel.cancelled())
        cancelled_ = true;
    if (cancelled_) return false;

    // Branch on the highest index not assigned on both sides, x' before x''
    // at equal index.  Events are numbered in the adequate order, so the
    // highest open event has the largest local configuration: x(e) = 1
    // fixes all of [e] and its conflict set in one step (Theorem 1).
    // Cut-offs are assigned from the start, never open.  Bits at and above
    // q in the last word are padding, never assigned.
    const Widths<NW> width(*this);
    const std::size_t nw = width.nw;
    const std::size_t q = problem_->size();
    const Word* o0 = state_ + plane(0, 1) * nw;
    const Word* z0 = state_ + plane(0, 0) * nw;
    const Word* o1 = state_ + plane(1, 1) * nw;
    const Word* z1 = state_ + plane(1, 0) * nw;
    const Word tail = q % kWordBits ? (Word{1} << (q % kWordBits)) - 1 : ~Word{0};
    std::size_t idx = q;
    for (std::size_t w = nw; w-- > 0;) {
        Word open = ~((o0[w] | z0[w]) & (o1[w] | z1[w]));
        if (w + 1 == nw) open &= tail;
        if (open == 0) continue;
        idx = w * kWordBits + kWordBits - 1 -
              static_cast<std::size_t>(std::countl_zero(open));
        break;
    }
    const auto view = [&](int s) {
        return LeafView{
            BitSpan(state_ + plane(s, 1) * nw, q),
            BitSpan(state_ + width.places_at + s * width.npw,
                    problem_->initial_places().size()),
            BitSpan(state_ + width.code_at + s * width.ncw,
                    problem_->initial_code().size())};
    };
    if (idx >= q) {
        ++stats_.leaves;
        const LeafView a = view(0), b = view(1);
        if (!accept(a, b)) return false;
        outcome_.found = true;
        outcome_.ca = BitVec(a.config);
        outcome_.cb = BitVec(b.config);
        return true;
    }
    if (side_test_ && reachable_at != stats_.leaves) {
        // A side with no open variable left is the same in every leaf
        // below, so the side test is asked about it.  Its answer changes
        // only at leaves (a normalcy pass closes flags there, inside the
        // subtree), so a true answer higher up this path holds until the
        // next leaf: reachable_at is the leaf count it was given at.  At
        // most one side is finished, else this node would be a leaf.
        for (int s = 0; s < 2; ++s) {
            const Word* ones = s == 0 ? o0 : o1;
            const Word* zeros = s == 0 ? z0 : z1;
            Word open = 0;
            for (std::size_t w = 0; w < nw; ++w)
                open |= ~(ones[w] | zeros[w]) & (w + 1 == nw ? tail : ~Word{0});
            if (open != 0) continue;
            if (!(*side_test_)(s, view(s))) {
                ++side_prunes_;
                return false;
            }
            reachable_at = stats_.leaves;
            break;
        }
    }
    const Word bit = Word{1} << (idx % kWordBits);
    const std::size_t w = idx / kWordBits;
    const int side = ((o0[w] | z0[w]) & bit) ? 1 : 0;

    // Value 0 on a copy of this level one up; value 1, the last branch, on
    // this level itself, which nothing reads after it.
    descend(level);
    if (timed_assign<NW>(side, idx, 0) &&
        dfs<NW>(accept, level + 1, depth + 1, reachable_at))
        return true;
    resume(level);
    return timed_assign<NW>(side, idx, 1) &&
           dfs<NW>(accept, level, depth + 1, reachable_at);
}

template <std::size_t NW>
bool CompatSolver::timed_assign(int side, std::size_t idx, int value) {
    // Branch-vs-bound attribution: time spent inside assign() (closure +
    // interval propagation) is the "bound" share of a solve; everything
    // else in dfs() is branching.  Only measured while a trace is recording
    // -- two clock reads per search node is too much for an untraced run.
    if (!obs::enabled()) return assign<NW>(side, idx, value);
    Stopwatch w;
    const bool ok = assign<NW>(side, idx, value);
    bound_ns_ += w.nanos();
    return ok;
}

template <std::size_t NW>
void CompatSolver::search(const PairPredicate& accept, std::size_t first,
                          std::size_t last) {
    // Outer loop over the first index d where the two vectors differ; a
    // cut-off is 0 on both sides, so it is never the first difference.
    const BitSpan cutoffs = problem_->cutoffs();
    for (std::size_t j = 0; j < first; ++j)
        below_[j / kWordBits] |= Word{1} << (j % kWordBits);
    for (std::size_t d = first; d < last && !outcome_.found && !cancelled_; ++d) {
        // Indices below d are linked equal on both sides.
        if (d > 0)
            below_[(d - 1) / kWordBits] |= Word{1} << ((d - 1) % kWordBits);
        if (cutoffs.test(d)) continue;
        // Each subtree starts on a copy of level 0, the state before d.
        descend(0);
        if (timed_assign<NW>(0, d, 0) && timed_assign<NW>(1, d, 1))
            (void)dfs<NW>(accept, 1, 0, kNotAsked);
    }
}

namespace {

const char* relation_name(CodeRelation r) {
    switch (r) {
        case CodeRelation::Equal: return "equal";
        case CodeRelation::LessEq: return "less_eq";
        case CodeRelation::GreaterEq: return "greater_eq";
    }
    return "?";
}

}  // namespace

void CompatSolver::run(CodeRelation relation, const PairPredicate& accept,
                       const SideTest& side_test, std::size_t first,
                       std::size_t last) {
    relation_ = relation;
    side_test_ = side_test ? &side_test : nullptr;
    conflict_free_mode_ = opts_.use_conflict_free_optimisation &&
                          problem_->dynamically_conflict_free();
    const std::size_t q = problem_->size();
    const BitSpan m0 = problem_->initial_places();
    const BitSpan v0 = problem_->initial_code();
    const std::size_t nz = v0.size();
    nw_ = (q + kWordBits - 1) / kWordBits;
    npw_ = m0.num_words();
    ncw_ = v0.num_words();
    const Widths<0> width(*this);
    // Level 0 of this thread's level stack, which no other solve on the
    // thread may be using.
    STGCC_ASSERT(!t_levels.busy);
    t_levels.busy = true;
    struct Release {
        ~Release() {
            if (t_levels.words.capacity() > kKeptLevelWords)
                std::vector<Word>().swap(t_levels.words);
            t_levels.busy = false;
        }
    } release;
    levels_ = &t_levels.words;
    level_words_ = width.bounds_at + nz;
    if (levels_->size() < level_words_) levels_->resize(level_words_);
    resume(0);
    std::fill_n(state_, level_words_, Word{0});
    // Eq. 3: the cut-off variables of both sides are 0 from the start.
    for (int s = 0; s < 2; ++s)
        std::copy_n(problem_->cutoffs().words(), nw_, state_ + plane(s, 0) * nw_);
    for (int s = 0; s < 2; ++s) {
        std::copy_n(m0.words(), npw_, state_ + width.places_at + s * npw_);
        std::copy_n(v0.words(), ncw_, state_ + width.code_at + s * ncw_);
    }
    // D_z has |R_z| + |F_z| variables with coefficient +1 (rising on x',
    // falling on x'') and as many with -1, so with nothing assigned it
    // ranges over +-(|R_z| + |F_z|).
    for (stg::SignalId z = 0; z < nz; ++z) {
        const auto n = static_cast<std::int64_t>(problem_->rising(z).count() +
                                                 problem_->falling(z).count());
        state_[width.bounds_at + z] = pack(-n, n);
    }
    want_.assign(4 * nw_, Word{0});
    fresh_.assign(4 * nw_, Word{0});
    below_.assign(nw_, Word{0});
    touched_.assign(ncw_, Word{0});
    stats_ = stg::CheckStats{};
    outcome_ = SearchOutcome{};
    bound_ns_ = 0;
    signal_prunes_ = closure_prunes_ = side_prunes_ = 0;

    cancelled_ = false;
    if (npw_ == 1 && ncw_ == 1 && nw_ == 1)
        search<1>(accept, first, last);
    else if (npw_ == 1 && ncw_ == 1 && nw_ == 2)
        search<2>(accept, first, last);
    else
        search<0>(accept, first, last);
    outcome_.cancelled = cancelled_;
    outcome_.stats = stats_;
    outcome_.stats.bound_seconds = static_cast<double>(bound_ns_) / 1e9;
}

SearchOutcome CompatSolver::solve(CodeRelation relation,
                                  const PairPredicate& accept,
                                  const SideTest& side_test) {
    obs::Span span("compat.solve");
    run(relation, accept, side_test, 0, problem_->size());
    outcome_.stats.seconds = span.seconds();
    publish(span);
    return outcome_;
}

SearchOutcome CompatSolver::solve(CodeRelation relation,
                                  const PairPredicate& accept,
                                  sched::Executor& ex) {
    if (!ex.parallel()) return solve(relation, accept);
    obs::Span span("compat.solve");
    std::vector<std::size_t> firsts;  // the subtrees: every non-cut-off d
    const BitSpan cutoffs = problem_->cutoffs();
    for (std::size_t d = 0; d < problem_->size(); ++d)
        if (!cutoffs.test(d)) firsts.push_back(d);

    // What each subtree's solver leaves behind for the fold below.
    struct Subtree {
        stg::CheckStats stats;
        std::uint64_t bound_ns = 0, signal_prunes = 0, closure_prunes = 0;
        bool cancelled = false;
    };
    std::vector<Subtree> subtrees(firsts.size());
    auto hit = sched::find_first<SearchOutcome>(
        ex, firsts.size(),
        [&](std::size_t i, const sched::CancellationToken& token)
            -> std::optional<SearchOutcome> {
            SearchOptions local = opts_;
            // The early-stop token must not drop the caller's token: either
            // cancels this subtree.  A subtree polls first at its 1024th
            // node, and most have fewer, so the token is also read here.
            local.cancel = sched::CancellationToken::combine(opts_.cancel, token);
            if (local.cancel.cancelled()) {
                subtrees[i].cancelled = true;
                return std::nullopt;
            }
            CompatSolver sub(*problem_, local);
            sub.run(relation, accept, {}, firsts[i], firsts[i] + 1);
            subtrees[i] = {sub.stats_, sub.bound_ns_, sub.signal_prunes_,
                           sub.closure_prunes_, sub.cancelled_};
            if (!sub.outcome_.found) return std::nullopt;
            return std::move(sub.outcome_);
        });

    // Fold the subtrees up to the winner, which ran to completion at every
    // jobs value; the cancelled ones above it depend on the schedule.  Only
    // opts.cancel can cut a subtree at or below the winner, and then the
    // search reads cancelled with no witness, as a cut serial run does.
    relation_ = relation;
    conflict_free_mode_ = opts_.use_conflict_free_optimisation &&
                          problem_->dynamically_conflict_free();
    stats_ = stg::CheckStats{};
    bound_ns_ = signal_prunes_ = closure_prunes_ = side_prunes_ = 0;
    cancelled_ = false;
    const std::size_t counted = hit ? hit->index + 1 : firsts.size();
    for (std::size_t i = 0; i < counted; ++i) {
        stats_.add(subtrees[i].stats);
        bound_ns_ += subtrees[i].bound_ns;
        signal_prunes_ += subtrees[i].signal_prunes;
        closure_prunes_ += subtrees[i].closure_prunes;
        cancelled_ = cancelled_ || subtrees[i].cancelled;
    }
    // Each subtree had the whole node budget; the serial run stops once the
    // nodes up to its last leaf exceed it, which is this sum.
    if (stats_.search_nodes > opts_.max_nodes)
        throw ModelError("CompatSolver: node limit exceeded (" +
                         std::to_string(opts_.max_nodes) + ")");
    outcome_ = hit && !cancelled_ ? std::move(hit->value) : SearchOutcome{};
    outcome_.cancelled = cancelled_;
    outcome_.stats = stats_;
    outcome_.stats.seconds = span.seconds();
    outcome_.stats.bound_seconds = static_cast<double>(bound_ns_) / 1e9;
    publish(span);
    span.attr("subtrees", firsts.size());
    return outcome_;
}

void CompatSolver::publish(obs::Span& span) const {
    obs::counter("compat.solves").add();
    obs::counter("compat.nodes").add(stats_.search_nodes);
    obs::counter("compat.leaves").add(stats_.leaves);
    obs::counter("compat.signal_prunes").add(signal_prunes_);
    obs::counter("compat.closure_prunes").add(closure_prunes_);
    obs::counter("compat.side_prunes").add(side_prunes_);
    span.attr("relation", relation_name(relation_));
    span.attr("vars", 2 * problem_->size());
    span.attr("conflict_free_mode", conflict_free_mode_);
    span.attr("nodes", stats_.search_nodes);
    span.attr("leaves", stats_.leaves);
    span.attr("propagations", stats_.propagations);
    span.attr("max_depth", stats_.max_depth);
    span.attr("bound_ns", bound_ns_);
    span.attr("side_prunes", side_prunes_);
    span.attr("found", outcome_.found);
    if (cancelled_) span.attr("cancelled", true);
}

}  // namespace stgcc::core
