/// Tests for src/locality/: the reuse-distance engine (its per-reference and
/// bulk paths cross-checked against a brute-force LRU stack simulation), the
/// derived analytics (histograms, working set, per-level slicing, the
/// closed-form run fold), and the LocalitySink's count/cost agreement with
/// hmm::Machine.

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "algos/fft_direct.hpp"
#include "check/per_word_locality.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_shard.hpp"
#include "core/hmm_simulator.hpp"
#include "core/naive_hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "hmm/machine.hpp"
#include "locality/profile.hpp"
#include "locality/reuse_distance.hpp"
#include "locality/sink.hpp"
#include "report/json.hpp"
#include "report/metrics.hpp"
#include "trace/aggregate.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"

namespace dbsp::locality {
namespace {

TEST(ReuseDistance, FirstTouchesAreCold) {
    ReuseDistanceProfiler prof;
    for (Addr x = 0; x < 100; ++x) {
        const auto e = prof.record(x);
        EXPECT_TRUE(e.cold);
    }
    EXPECT_EQ(prof.accesses(), 100u);
    EXPECT_EQ(prof.distinct_addresses(), 100u);
}

TEST(ReuseDistance, RepeatedSingleAddressIsDistanceZero) {
    ReuseDistanceProfiler prof;
    EXPECT_TRUE(prof.record(42).cold);
    for (int i = 0; i < 50; ++i) {
        const auto e = prof.record(42);
        EXPECT_FALSE(e.cold);
        EXPECT_EQ(e.distance, 0u);
        EXPECT_EQ(e.time, 1u);
    }
    EXPECT_EQ(prof.distinct_addresses(), 1u);
}

TEST(ReuseDistance, CyclicStreamHasDistanceKMinusOne) {
    constexpr std::uint64_t k = 12;
    ReuseDistanceProfiler prof;
    for (std::uint64_t i = 0; i < 5 * k; ++i) {
        const auto e = prof.record(i % k);
        if (i < k) {
            EXPECT_TRUE(e.cold);
        } else {
            EXPECT_FALSE(e.cold);
            EXPECT_EQ(e.distance, k - 1);
            EXPECT_EQ(e.time, k);
        }
    }
}

/// Brute-force LRU stack: distance = position from the top (0-based) of the
/// previous touch; move-to-front afterwards.
struct StackSim {
    std::vector<Addr> stack;

    ReuseDistanceProfiler::Event touch(Addr x) {
        const auto it = std::find(stack.begin(), stack.end(), x);
        if (it == stack.end()) {
            stack.insert(stack.begin(), x);
            return {true, 0, 0};
        }
        const auto depth = static_cast<std::uint64_t>(it - stack.begin());
        stack.erase(it);
        stack.insert(stack.begin(), x);
        return {false, depth, 0};
    }
};

TEST(ReuseDistance, MatchesBruteForceStackSimulation) {
    ReuseDistanceProfiler prof;
    StackSim brute;
    SplitMix64 rng(99);
    for (int i = 0; i < 10000; ++i) {
        // Skewed address distribution so short and long distances both occur.
        const Addr x = rng.next_below(3) == 0 ? rng.next_below(8) : rng.next_below(300);
        const auto got = prof.record(x);
        const auto want = brute.touch(x);
        ASSERT_EQ(got.cold, want.cold) << "access " << i;
        if (!got.cold) {
            ASSERT_EQ(got.distance, want.distance) << "access " << i;
        }
    }
    EXPECT_EQ(prof.distinct_addresses(), brute.stack.size());
}

/// Checks a profiler against the brute-force stack (distances) and a
/// last-touch clock (reuse times), reference by reference.
class BruteForceCheck {
public:
    explicit BruteForceCheck(ReuseDistanceProfiler& prof) : prof_(prof) {}

    /// One record() of \p x; \p op labels a failure.
    void record(Addr x, int op) { check(prof_.record(x), reference(x), op); }

    /// One record_range(), every run it folds expanded per reference.
    void range(Addr begin, Addr end, unsigned touches, int op) {
        Addr x = begin;
        prof_.record_range(begin, end, touches,
                           [&](const ReuseDistanceProfiler::Event& first, std::int64_t step,
                               std::uint64_t cells, unsigned t) {
                               ASSERT_EQ(t, touches);
                               ReuseDistanceProfiler::Event e = first;
                               for (std::uint64_t j = 0; j < cells; ++j, ++x) {
                                   check(e, reference(x), op);
                                   for (unsigned r = 1; r < t; ++r) {
                                       check({false, 0, 1}, reference(x), op);
                                   }
                                   e.time += static_cast<std::uint64_t>(step);
                               }
                           });
        ASSERT_EQ(x, end) << "op " << op;
    }

    /// Every count agrees with the brute force's.
    void expect_totals() const {
        EXPECT_EQ(prof_.accesses(), clock_);
        EXPECT_EQ(prof_.sampled_accesses(), clock_);
        EXPECT_EQ(prof_.distinct_addresses(), brute_.stack.size());
    }

private:
    /// The brute-force event of the next reference to x.
    ReuseDistanceProfiler::Event reference(Addr x) {
        ReuseDistanceProfiler::Event want = brute_.touch(x);
        ++clock_;
        if (!want.cold) want.time = clock_ - last_touch_[x];
        last_touch_[x] = clock_;
        return want;
    }
    static void check(const ReuseDistanceProfiler::Event& got,
                      const ReuseDistanceProfiler::Event& want, int op) {
        ASSERT_EQ(got.cold, want.cold) << "op " << op;
        if (!got.cold) {
            ASSERT_EQ(got.distance, want.distance) << "op " << op;
            ASSERT_EQ(got.time, want.time) << "op " << op;
        }
    }

    ReuseDistanceProfiler& prof_;
    StackSim brute_;
    std::unordered_map<Addr, std::uint64_t> last_touch_;
    std::uint64_t clock_ = 0;
};

TEST(ReuseDistance, RangesMatchBruteForceStackSimulation) {
    // A seeded mix of record() and record_range(), every run the bulk path
    // folds expanded per word and checked event for event against the
    // brute-force stack (distance) and a last-touch clock (time). Re-touched
    // ranges come back in contiguous slot order (the previous range again)
    // and in stranger-interleaved order (cells last touched one at a time
    // between other addresses); some ranges straddle the direct-mapped limit
    // 2^26; and the stream is long enough to renumber the slot space often.
    constexpr Addr kLimit = Addr{1} << 26;
    ReuseDistanceProfiler prof;
    BruteForceCheck brute(prof);
    SplitMix64 rng(16);
    Addr last_begin = 0, last_end = 1;
    for (int op = 0; op < 3000; ++op) {
        const unsigned touches = 1 + static_cast<unsigned>(rng.next_below(4));
        switch (rng.next_below(6)) {
            case 0:  // single words, near and far, skewed to short distances
                for (int i = 0; i < 8; ++i) {
                    const Addr x = rng.next_below(4) == 0 ? kLimit - 8 + rng.next_below(16)
                                                          : rng.next_below(24);
                    brute.record(x, op);
                }
                break;
            case 1:  // a fresh or partly warm range
                last_begin = rng.next_below(400);
                last_end = last_begin + 1 + rng.next_below(48);
                brute.range(last_begin, last_end, touches, op);
                break;
            case 2:  // the previous range again: contiguous previous slots
                brute.range(last_begin, last_end, touches, op);
                break;
            case 3:  // its cells one at a time between strangers, then the range
                for (Addr x = last_begin; x < last_end; ++x) {
                    brute.record(x, op);
                    brute.record(400 + rng.next_below(64), op);
                }
                brute.range(last_begin, last_end, touches, op);
                break;
            case 4:  // the previous range backwards, one word at a time
                for (Addr x = last_end; x-- > last_begin;) brute.record(x, op);
                brute.range(last_begin, last_end, touches, op);
                break;
            case 5: {  // straddling the direct-mapped limit
                const Addr begin = kLimit - 1 - rng.next_below(40);
                brute.range(begin, begin + 2 + rng.next_below(60), touches, op);
                break;
            }
        }
        if (HasFatalFailure()) return;
    }
    brute.expect_totals();
    EXPECT_GE(prof.renumberings(), 8u);
}

TEST(ReuseDistance, ShortRangeBoundariesMatchBruteForceStackSimulation) {
    // A rank query whose slot lies within 1024 slots of the top counts the
    // slots above it directly; a deeper one walks the Fenwick tree over
    // 512-slot blocks. record_range popcounts a gap of up to 1024 slots
    // above the previous warm cell's old slot and asks a rank query past
    // that. Re-referencing an address after k distinct others, for these k,
    // puts the gaps on both sides of both limits and of a block edge. The
    // other brute-force tests touch fewer than 1,000 distinct addresses, so
    // they reach the tree only through dead-slot gaps.
    const std::uint64_t ks[] = {511, 512, 513, 1023, 1024, 1025, 2048};
    constexpr Addr kStrangers = 1 << 20;  // two pools of 2048 addresses from here
    for (const bool renumbered : {false, true}) {
        SCOPED_TRACE(renumbered ? "after a renumbering" : "fresh profiler");
        ReuseDistanceProfiler prof;
        BruteForceCheck brute(prof);
        int op = 0;
        const auto strangers = [&](Addr pool, std::uint64_t k) {
            for (Addr x = pool; x < pool + k; ++x) brute.record(x, op);
        };
        if (renumbered) {
            // 700 live addresses re-referenced until the slot space is
            // compacted once with live slots, which moves every later slot
            // against the block edges.
            const std::uint64_t before = prof.renumberings();
            for (Addr x = 0; prof.renumberings() < before + 2; x = (x + 1) % 700) {
                brute.record(kStrangers + 4096 + x, op);
            }
        }
        Addr a = 0;  // fresh word pairs [a, a + 2)
        for (const std::uint64_t k : ks) {
            for (const unsigned touches : {1u, 2u}) {
                // The top gap: a, k strangers, a again.
                brute.record(a, ++op);
                strangers(kStrangers, k);
                brute.record(a, op);
                // The scan gap: a and a + 1 k + 1 slots apart, then k more
                // strangers above them, then both as one range.
                brute.record(a, ++op);
                strangers(kStrangers, k);
                brute.record(a + 1, op);
                strangers(kStrangers + 2048, k);
                brute.range(a, a + 2, touches, op);
                if (HasFatalFailure()) return;
                a += 2;
            }
        }
        brute.expect_totals();
    }
}

TEST(Profile, LevelCapacityBoundarySlicingIsExact) {
    // A cyclic stream over 2^j addresses reuses at distance 2^j - 1: it hits
    // a memory of capacity 2^j (level j) and misses every smaller one.
    constexpr unsigned j = 4;
    constexpr std::uint64_t k = 1u << j;  // 16 addresses
    ReuseDistanceProfiler prof;
    LocalityProfile profile;
    constexpr std::uint64_t rounds = 8;
    for (std::uint64_t i = 0; i < rounds * k; ++i) profile.note(prof.record(i % k));
    profile.distinct_addresses = prof.distinct_addresses();

    EXPECT_EQ(profile.accesses, rounds * k);
    EXPECT_EQ(profile.cold_misses, k);
    const double finite = static_cast<double>((rounds - 1) * k);
    const double total = static_cast<double>(rounds * k);
    EXPECT_DOUBLE_EQ(profile.hit_fraction(j), finite / total);
    EXPECT_DOUBLE_EQ(profile.hit_fraction(j - 1), 0.0);
    EXPECT_EQ(profile.max_level(), j);
    // Locality score: every finite distance is k - 1.
    EXPECT_NEAR(profile.locality_score(), std::log2(static_cast<double>(k)), 1e-12);
}

TEST(Profile, WorkingSetMatchesDirectDenningSum) {
    ReuseDistanceProfiler prof;
    LocalityProfile profile;
    std::vector<std::uint64_t> reuse_times;  // finite reuse times, in order
    SplitMix64 rng(5);
    constexpr std::uint64_t T = 3000;
    std::uint64_t cold = 0;
    for (std::uint64_t i = 0; i < T; ++i) {
        const auto e = prof.record(rng.next_below(64));
        profile.note(e);
        if (e.cold) {
            ++cold;
        } else {
            reuse_times.push_back(e.time);
        }
    }
    profile.distinct_addresses = prof.distinct_addresses();
    for (unsigned jj = 0; jj <= 12; ++jj) {
        const double tau = std::ldexp(1.0, static_cast<int>(jj));
        double sum = tau * static_cast<double>(cold);
        for (const std::uint64_t r : reuse_times) {
            sum += std::min(static_cast<double>(r), tau);
        }
        const double expected = std::min(sum / static_cast<double>(T),
                                         static_cast<double>(profile.distinct_addresses));
        EXPECT_DOUBLE_EQ(profile.working_set(jj), expected) << "tau 2^" << jj;
    }
}

TEST(Profile, JsonRoundTripCarriesTheAnalytics) {
    ReuseDistanceProfiler prof;
    LocalityProfile profile;
    for (std::uint64_t i = 0; i < 640; ++i) profile.note(prof.record(i % 32));
    profile.distinct_addresses = prof.distinct_addresses();

    const report::Json j = profile.to_json();
    std::string error;
    const auto parsed = report::Json::parse(j.dump(), &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ((*parsed)["schema"].as_string(), "dbsp-locality-v2");
    EXPECT_EQ((*parsed)["mode"].as_string(), "exact");
    EXPECT_DOUBLE_EQ((*parsed)["sample_rate"].as_double(), 1.0);
    EXPECT_DOUBLE_EQ((*parsed)["accesses"].as_double(), 640.0);
    EXPECT_DOUBLE_EQ((*parsed)["sampled_accesses"].as_double(), 640.0);
    EXPECT_DOUBLE_EQ((*parsed)["distinct_addresses"].as_double(), 32.0);
    EXPECT_DOUBLE_EQ((*parsed)["cold_misses"].as_double(), 32.0);
    EXPECT_DOUBLE_EQ((*parsed)["locality_score"].as_double(), profile.locality_score());
    const auto& cdf = (*parsed)["reuse_distance"]["cdf"].items();
    ASSERT_EQ(cdf.size(), profile.max_level() + 1);
    EXPECT_DOUBLE_EQ(cdf.back().as_double(), profile.hit_fraction(profile.max_level()));
    ASSERT_EQ((*parsed)["levels"].size(), profile.max_level() + 1);
    EXPECT_EQ((*parsed)["working_set"]["tau"].size(),
              (*parsed)["working_set"]["w"].size());
}

TEST(Profile, ColdEventsNeverReachTheFiniteHistogramsOrScore) {
    // Regression lock on the cold contract: a first touch's distance and
    // time are *infinite*, so whatever numeric values the event happens to
    // carry must never reach the finite histograms, the reuse-time sums, or
    // the score. (A fold of cold events into the score once produced subtly
    // deflated scores without failing any analytic identity — hence the
    // explicit lock.)
    LocalityProfile profile;
    const ReuseDistanceProfiler::Event cold{true, 123, 7, true};
    profile.note(cold);
    profile.note_run(cold, 41);
    EXPECT_EQ(profile.accesses, 42u);
    EXPECT_EQ(profile.cold_misses, 42u);
    EXPECT_DOUBLE_EQ(profile.locality_score(), 0.0);
    for (unsigned b = 0; b < LocalityProfile::kBuckets; ++b) {
        ASSERT_EQ(profile.distance_count[b], 0u) << "bucket " << b;
        ASSERT_EQ(profile.time_count[b], 0u) << "bucket " << b;
        ASSERT_TRUE(profile.time_sum[b] == 0) << "bucket " << b;
    }
    for (unsigned l = 0; l <= 10; ++l) {
        EXPECT_DOUBLE_EQ(profile.hit_fraction(l), 0.0) << "level " << l;
    }
}

TEST(Profile, NoteRunIsBitIdenticalToRepeatedNote) {
    LocalityProfile runs, singles;
    SplitMix64 rng(31);
    for (int i = 0; i < 300; ++i) {
        ReuseDistanceProfiler::Event e{false, 0, 1, true};
        e.cold = rng.next_below(8) == 0;
        e.sampled = rng.next_below(8) != 0;
        e.distance = rng.next_below(1 << 12);
        e.time = 1 + rng.next_below(1 << 12);
        const std::uint64_t n = 1 + rng.next_below(9);
        runs.note_run(e, n);
        for (std::uint64_t j = 0; j < n; ++j) singles.note(e);
    }
    EXPECT_TRUE(runs.identical(singles));
}

/// The per-reference note() stream of one record_range() run.
void note_per_reference(LocalityProfile& p, const ReuseDistanceProfiler::Event& first,
                        std::int64_t step, std::uint64_t cells, unsigned touches) {
    if (!first.sampled) {
        for (std::uint64_t i = 0; i < cells * touches; ++i) p.note(first);
        return;
    }
    ReuseDistanceProfiler::Event e = first;
    for (std::uint64_t j = 0; j < cells; ++j, e.time += static_cast<std::uint64_t>(step)) {
        p.note(e);
        for (unsigned r = 1; r < touches; ++r) p.note({false, 0, 1});
    }
}

TEST(Profile, NoteCellsIsBitIdenticalToThePerReferenceStream) {
    using Event = ReuseDistanceProfiler::Event;
    for (const bool sampled : {false, true}) {
        LocalityProfile cells, refs;
        cells.set_mode(sampled, 0.25);
        refs.set_mode(sampled, 0.25);
        const auto fold = [&](const Event& first, std::int64_t step, std::uint64_t n,
                              unsigned touches) {
            cells.note_cells(first, step, n, touches);
            note_per_reference(refs, first, step, n, touches);
            ASSERT_TRUE(cells.identical(refs))
                << "d " << first.distance << " time " << first.time << " step " << step
                << " cells " << n << " touches " << touches;
        };
        // Named cases: a negative step; d = 0 with touches > 1; a pending run
        // of d carried in from single notes, then extended with touches = 1
        // and with touches > 1; times crossing the bucket boundary at 64, up
        // and down; cold cells between warm runs.
        fold({false, 9, 40}, -3, 10, 1);
        fold({false, 0, 5}, 2, 7, 3);
        cells.note({false, 6, 3});
        refs.note({false, 6, 3});
        fold({false, 6, 20}, 0, 5, 1);
        fold({false, 6, 20}, 1, 5, 4);
        fold({false, 6, 60}, 3, 10, 2);
        fold({false, 6, 70}, -2, 8, 1);
        fold({true, 0, 0}, 0, 6, 3);
        fold({false, 0, 1}, 0, 4, 1);
        fold({false, 0, 0, false}, 0, 33, 1);
        // A seeded mix, with distances from a small set so runs carry over.
        SplitMix64 rng(sampled ? 61 : 60);
        for (int i = 0; i < 2000 && !HasFatalFailure(); ++i) {
            const std::uint64_t n = 1 + rng.next_below(12);
            const unsigned touches = 1 + static_cast<unsigned>(rng.next_below(4));
            const bool cold = rng.next_below(10) == 0;
            const std::uint64_t d = rng.next_below(4) == 0 ? 0 : rng.next_below(6);
            Event first{cold, d, 1 + rng.next_below(1 << 10), rng.next_below(12) != 0};
            auto step = static_cast<std::int64_t>(rng.next_below(9)) - 4;
            // Keep every time >= 1: a negative step flips when it would not.
            if (step < 0 && first.time <= static_cast<std::uint64_t>(-step) * (n - 1)) {
                step = -step;
            }
            fold(first, step, n, touches);
        }
    }
}

TEST(Profile, Log2TableHoldsTheLibraryBits) {
    // The score reads log2(d + 1) from a table for small d. Every entry must
    // be the bits std::log2 returns at run time (a compile-time fold rounds
    // some differently), or a profile's score would move.
    volatile double one = 1.0;  // keeps the reference call at run time
    for (std::uint64_t d = 0; d < kLog2Entries + 4; ++d) {
        const double want = std::log2(static_cast<double>(d) + one);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(log2_plus1(d)),
                  std::bit_cast<std::uint64_t>(want))
            << "d " << d;
    }
}

/// Drive the same deterministic mix of machine operations (every charged
/// kind: single words, ranges, block ops, charge-only swaps) so two sinks
/// under different options see the identical reference stream. Single words
/// go through the simulators' delivery accessor, folded into its account,
/// which merge() adds to the machine; the traced instantiation also sends
/// each word to the machine's sink.
template <bool Traced>
void drive_machine(hmm::Machine& machine) {
    core::HmmShardAccessor<Traced> words(machine, machine.capacity());
    words.select(0);
    SplitMix64 rng(11);
    std::vector<model::Word> buf(64, 5);
    for (int i = 0; i < 500; ++i) {
        switch (rng.next_below(7)) {
            case 0:
                words.set(rng.next_below(2048), rng.next());
                break;
            case 1:
                (void)words.get(rng.next_below(2048));
                break;
            case 2:
                machine.write_range(rng.next_below(2048 - 64), buf);
                break;
            case 3:
                machine.read_range(rng.next_below(2048 - 32),
                                   std::span<model::Word>(buf.data(), 32));
                break;
            case 4:
                machine.swap_blocks(rng.next_below(512), 1024 + rng.next_below(512), 64);
                break;
            case 5:
                machine.copy_block(rng.next_below(512), 1024 + rng.next_below(512), 32);
                break;
            case 6: {
                const model::Addr a = rng.next_below(512);
                const model::Addr b = 1024 + rng.next_below(512);
                machine.charge_swap_blocks(a, b, 1 + rng.next_below(128));
                break;
            }
        }
    }
    words.merge();
}

TEST(LocalitySink, BatchedAndPerWordPathsAreBitIdentical) {
    // The tentpole's core contract: the O(log n + b) batched engine path and
    // coalescing produce a profile bit-identical to the per-word reference
    // profiler on the same stream (also a fuzz-oracle invariant; this is the
    // deterministic unit-test anchor).
    const auto f = model::AccessFunction::polynomial(0.5);
    LocalitySink fast;
    check::PerWordLocalitySink slow;
    hmm::Machine m_fast(f, 2048), m_slow(f, 2048), untraced(f, 2048);
    m_fast.set_trace(&fast);
    m_slow.set_trace(&slow);
    drive_machine<true>(m_fast);
    drive_machine<true>(m_slow);
    drive_machine<false>(untraced);
    EXPECT_EQ(fast.recorded_accesses(), slow.profile().accesses);
    EXPECT_EQ(fast.recorded_accesses(), m_fast.words_touched());
    EXPECT_TRUE(fast.profile().identical(slow.profile()));
    // The sinks only observe: the traced runs charge the untraced twin's bits.
    EXPECT_EQ(m_fast.cost(), untraced.cost());
    EXPECT_EQ(m_fast.words_touched(), untraced.words_touched());
}

TEST(LocalitySink, TouchLogsAreBitIdenticalToThePerWordProfiler) {
    // Steps hand their touch logs to the sink as one access_log event. Logs
    // with repeated entries, descending and ascending runs, and entries on
    // both sides of a 4,096-entry page edge must profile exactly as the
    // per-word reference does, and as the same words sent one access() each.
    constexpr std::size_t kMu = 96;
    const std::vector<double> prefix(3 * 4096 + kMu + 1, 0.0);  // costs unused
    LocalitySink logged, per_access;
    check::PerWordLocalitySink slow;
    SplitMix64 rng(23);
    std::vector<std::uint32_t> log;
    for (int step = 0; step < 400; ++step) {
        const trace::Addr base = rng.next_below(3) * 4096 + 4096 - kMu / 2;
        log.clear();
        while (log.size() < kMu) {
            const auto i = static_cast<std::uint32_t>(rng.next_below(kMu));
            const std::size_t n = 1 + rng.next_below(6);
            switch (rng.next_below(4)) {
                case 0:  // repeats
                    log.insert(log.end(), n, i);
                    break;
                case 1:  // descending run
                    for (std::uint32_t j = 0; j < n && j <= i; ++j) log.push_back(i - j);
                    break;
                case 2:  // ascending run, coalesced by the sink
                    for (std::uint32_t j = 0; j < n && i + j < kMu; ++j) {
                        log.push_back(i + j);
                    }
                    break;
                default:
                    log.push_back(i);
            }
        }
        logged.access_log(prefix, base, log);
        slow.access_log(prefix, base, log);
        for (const std::uint32_t i : log) per_access.access(base + i, 0.0);
        if (step % 50 == 0) {  // a bulk event between logs flushes the pending run
            logged.access_range(prefix, base, base + 8);
            slow.access_range(prefix, base, base + 8);
            per_access.access_range(prefix, base, base + 8);
        }
    }
    EXPECT_EQ(logged.recorded_accesses(), slow.profile().accesses);
    EXPECT_TRUE(logged.profile().identical(slow.profile()));
    EXPECT_TRUE(logged.profile().identical(per_access.profile()));
}

TEST(LocalitySink, SampledRateOneIsBitIdenticalToExact) {
    const auto f = model::AccessFunction::polynomial(0.5);
    LocalityOptions sampled_opts;
    sampled_opts.mode = LocalityOptions::Mode::kSampled;
    sampled_opts.sample_rate = 1.0;
    LocalitySink exact, sampled(sampled_opts);
    hmm::Machine m_exact(f, 2048), m_sampled(f, 2048);
    m_exact.set_trace(&exact);
    m_sampled.set_trace(&sampled);
    drive_machine<true>(m_exact);
    drive_machine<true>(m_sampled);
    EXPECT_TRUE(exact.profile().identical(sampled.profile()));
}

TEST(LocalitySink, SampledModeStillCountsEveryReference) {
    const auto f = model::AccessFunction::polynomial(0.5);
    LocalityOptions opts;
    opts.mode = LocalityOptions::Mode::kSampled;
    opts.sample_rate = 0.25;
    LocalitySink sink(opts);
    hmm::Machine machine(f, 2048);
    machine.set_trace(&sink);
    drive_machine<true>(machine);
    // The clock is exact in sampled mode; only the distance measurements
    // are subsampled.
    EXPECT_EQ(sink.recorded_accesses(), machine.words_touched());
    EXPECT_GT(sink.sampled_accesses(), 0u);
    EXPECT_LT(sink.sampled_accesses(), sink.recorded_accesses());
    LocalityProfile p = sink.profile();
    EXPECT_EQ(p.accesses, machine.words_touched());
    EXPECT_EQ(p.sampled_accesses, sink.sampled_accesses());
    EXPECT_GT(p.locality_score(), 0.0);
}

/// A mix of every charged operation kind. With a sink attached the
/// simulators send single words through the traced delivery accessor, and
/// that is the contract being tested; the untraced twin runs the untraced
/// accessor instead. Both fold the words into the accessor's account, which
/// merge() adds to the machine.
template <bool Traced>
void every_charge_kind(hmm::Machine& m) {
    core::HmmShardAccessor<Traced> words(m, m.capacity());
    words.select(0);
    words.set(5, 7);
    words.set(900, 1);
    EXPECT_EQ(words.get(5), 7u);
    words.merge();
    std::vector<model::Word> buf(64, 3);
    m.write_range(0, buf);
    m.read_range(32, std::span<model::Word>(buf.data(), 32));
    m.swap_blocks(0, 512, 64);           // 4 * 64 touches
    m.copy_block(0, 256, 32);            // 2 * 32 touches
    m.charge_swap_blocks(100, 600, 25);  // 4 * 25 touches, no data moved
    m.charge(17.0);                      // pure computation: no references
}

TEST(LocalitySink, CountsAndCostsMatchTheMachine) {
    const auto f = model::AccessFunction::polynomial(0.5);
    hmm::Machine machine(f, 1024), untraced(f, 1024);
    LocalitySink sink;
    machine.set_trace(&sink);

    every_charge_kind<true>(machine);
    every_charge_kind<false>(untraced);
    const std::uint64_t expected_refs = 3 + 64 + 32 + 4 * 64 + 2 * 32 + 4 * 25;

    EXPECT_EQ(sink.recorded_accesses(), expected_refs);
    EXPECT_EQ(sink.recorded_accesses(), machine.words_touched());
    EXPECT_EQ(machine.cost(), untraced.cost());  // the sink only observes
    EXPECT_EQ(sink.range_words(), 96u);

    const LocalityProfile p = sink.profile();
    EXPECT_EQ(p.accesses, expected_refs);
    EXPECT_EQ(p.accesses, p.cold_misses + (p.accesses - p.cold_misses));
    EXPECT_GT(p.distinct_addresses, 0u);
}

TEST(LocalitySink, RecursiveSimulationScoresBelowNaive) {
    // The tentpole claim at unit-test scale: the Figure 1 schedule's address
    // stream is more local than the pinned-context baseline's.
    const auto f = model::AccessFunction::polynomial(0.5);
    const std::uint64_t v = 64;
    SplitMix64 rng(3);
    std::vector<std::complex<double>> x(v);
    for (auto& c : x) c = {rng.next_double() - 0.5, rng.next_double() - 0.5};

    algo::FftDirectProgram recursive_prog(x);
    auto smoothed = core::smooth(
        recursive_prog, core::hmm_label_set(f, recursive_prog.context_words(), v));
    LocalitySink recursive_sink;
    core::HmmSimulator::Options rec_opt;
    rec_opt.trace = &recursive_sink;
    const auto rec_res = core::HmmSimulator(f, rec_opt).simulate(*smoothed);

    algo::FftDirectProgram naive_prog(x);
    LocalitySink naive_sink;
    core::NaiveHmmSimulator::Options naive_opt;
    naive_opt.trace = &naive_sink;
    const auto naive_res = core::NaiveHmmSimulator(f, naive_opt).simulate(naive_prog);

    // Exact counts on both legs.
    EXPECT_EQ(recursive_sink.recorded_accesses(), rec_res.words_touched);
    EXPECT_EQ(naive_sink.recorded_accesses(), naive_res.words_touched);

    const double rec_score = recursive_sink.profile().locality_score();
    const double naive_score = naive_sink.profile().locality_score();
    EXPECT_LT(rec_score, naive_score);
}

TEST(LocalitySink, FlatFanOutBesideTheTraceSinksKeepsTheProfile) {
    // dbsp_explore --trace=FILE --locality attaches one flat
    // MultiSink{AggregateSink, ChromeTraceSink, LocalitySink} per leg. Every
    // child must see every event: the profile and reference count equal a
    // LocalitySink-only run's, the aggregate's counts equal the machine's,
    // and the Chrome sink records events.
    const auto f = model::AccessFunction::polynomial(0.5);
    const std::uint64_t v = 32;
    SplitMix64 rng(9);
    std::vector<std::complex<double>> x(v);
    for (auto& c : x) c = {rng.next_double() - 0.5, rng.next_double() - 0.5};
    algo::FftDirectProgram prog(x);
    const std::size_t mu = prog.context_words();

    {
        auto smoothed = core::smooth(prog, core::hmm_label_set(f, mu, v));
        LocalitySink alone;
        core::HmmSimulator::Options options;
        options.trace = &alone;
        const auto plain = core::HmmSimulator(f, options).simulate(*smoothed);

        trace::AggregateSink aggregate;
        trace::ChromeTraceSink chrome("hmm");
        LocalitySink loc;
        trace::MultiSink sinks{&aggregate, &chrome, &loc};
        options.trace = sinks.target();
        const auto res = core::HmmSimulator(f, options).simulate(*smoothed);

        EXPECT_EQ(res.hmm_cost, plain.hmm_cost);
        EXPECT_TRUE(loc.profile().identical(alone.profile()));
        EXPECT_EQ(loc.recorded_accesses(), alone.recorded_accesses());
        EXPECT_EQ(loc.recorded_accesses(), res.words_touched);
        EXPECT_EQ(aggregate.attributed_words(), res.words_touched);
        EXPECT_GT(chrome.event_count(), 0u);
    }
    {
        auto smoothed = core::smooth(prog, core::bt_label_set(f, mu, v));
        LocalitySink alone;
        core::BtSimulator::Options options;
        options.trace = &alone;
        const auto plain = core::BtSimulator(f, options).simulate(*smoothed);

        trace::AggregateSink aggregate;
        trace::ChromeTraceSink chrome("bt");
        LocalitySink loc;
        trace::MultiSink sinks{&aggregate, &chrome, &loc};
        options.trace = sinks.target();
        auto& transfer_words = report::metric_counter("bt.transfer_words");
        const std::uint64_t before = transfer_words.value();
        const auto res = core::BtSimulator(f, options).simulate(*smoothed);
        const std::uint64_t transferred = transfer_words.value() - before;

        EXPECT_EQ(res.bt_cost, plain.bt_cost);
        EXPECT_TRUE(loc.profile().identical(alone.profile()));
        EXPECT_EQ(loc.recorded_accesses(), alone.recorded_accesses());
        EXPECT_EQ(aggregate.block_transfers(), res.block_transfers);
        EXPECT_EQ(aggregate.transfer_volume(), transferred);
        EXPECT_GT(chrome.event_count(), 0u);
    }
}

}  // namespace
}  // namespace dbsp::locality
