/// Tests for src/locality/: the order-statistics treap, the reuse-distance
/// engine (cross-checked against a brute-force LRU stack simulation), the
/// derived analytics (histograms, working set, per-level slicing), and the
/// LocalitySink's count/cost agreement with hmm::Machine.

#include <algorithm>
#include <cmath>
#include <complex>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "algos/fft_direct.hpp"
#include "check/per_word_locality.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/naive_hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "hmm/machine.hpp"
#include "locality/profile.hpp"
#include "locality/reuse_distance.hpp"
#include "locality/reuse_tree.hpp"
#include "locality/sink.hpp"
#include "report/json.hpp"
#include "report/metrics.hpp"
#include "report/trace_bundle.hpp"
#include "util/rng.hpp"

namespace dbsp::locality {
namespace {

TEST(ReuseTree, InsertEraseCountAgainstBruteForce) {
    ReuseTree tree;
    std::set<std::uint64_t> reference;
    SplitMix64 rng(7);
    for (int step = 0; step < 4000; ++step) {
        const std::uint64_t key = rng.next_below(512);
        if (reference.count(key) == 0 && rng.next_below(3) != 0) {
            tree.insert(key);
            reference.insert(key);
        } else if (reference.count(key) != 0) {
            tree.erase(key);
            reference.erase(key);
        }
        ASSERT_EQ(tree.size(), reference.size());
        const std::uint64_t probe = rng.next_below(512);
        const auto greater = static_cast<std::uint64_t>(std::distance(
            reference.upper_bound(probe), reference.end()));
        ASSERT_EQ(tree.count_greater(probe), greater) << "probe " << probe;
    }
    tree.clear();
    EXPECT_EQ(tree.size(), 0u);
    EXPECT_EQ(tree.count_greater(0), 0u);
}

TEST(ReuseTree, EraseAbsentKeyLeavesTheTreeUnchanged) {
    ReuseTree tree;
    tree.insert(10);
    tree.insert(20);
    tree.insert(30);
    tree.erase(15);  // absent, inside the key span
    tree.erase(5);   // absent, below the minimum
    tree.erase(99);  // absent, above the maximum
    EXPECT_EQ(tree.size(), 3u);
    EXPECT_EQ(tree.count_greater(9), 3u);
    EXPECT_EQ(tree.count_greater(10), 2u);
    // erase_ranked on an absent key returns the rank alone, without mutating.
    EXPECT_EQ(tree.erase_ranked(15), 2u);
    EXPECT_EQ(tree.size(), 3u);
    EXPECT_EQ(tree.count_greater(0), 3u);
}

TEST(ReuseTree, NonMonotoneInsertionKeepsExactRanks) {
    // The engine only ever inserts the current (maximal) timestamp, but the
    // structure accepts any unique key; out-of-order inserts force tail
    // flushes and mid-tree splits.
    ReuseTree tree;
    std::set<std::uint64_t> ref;
    for (std::uint64_t k : {100u, 50u, 75u, 25u, 150u, 1u, 125u, 99u, 101u}) {
        tree.insert(k);
        ref.insert(k);
        for (std::uint64_t probe : {0u, 25u, 75u, 100u, 149u, 150u}) {
            ASSERT_EQ(tree.count_greater(probe),
                      static_cast<std::uint64_t>(
                          std::distance(ref.upper_bound(probe), ref.end())))
                << "probe " << probe << " after inserting " << k;
        }
    }
    EXPECT_EQ(tree.size(), ref.size());
}

TEST(ReuseTree, ClearRecyclesNodesThroughTheFreeList) {
    ReuseTree tree;
    for (int round = 0; round < 3; ++round) {
        // Descending inserts defeat the hot tail, so the tree itself holds
        // the nodes that clear() must push onto the free list ...
        for (std::uint64_t k = 200; k > 0; k -= 2) tree.insert(k);
        EXPECT_EQ(tree.size(), 100u);
        EXPECT_EQ(tree.count_greater(100), 50u);
        tree.clear();
        EXPECT_EQ(tree.size(), 0u);
        EXPECT_EQ(tree.count_greater(0), 0u);
        // ... and the rebuild after clear() runs on recycled nodes, which
        // must behave exactly like fresh ones.
        for (std::uint64_t k = 0; k < 64; ++k) tree.insert(k * 3);
        EXPECT_EQ(tree.size(), 64u);
        EXPECT_EQ(tree.count_greater(95), 32u);  // keys 96, 99, ..., 189
        tree.clear();
    }
}

TEST(ReuseTree, CountGreaterAtTheKeyExtremes) {
    ReuseTree tree;
    EXPECT_EQ(tree.count_greater(0), 0u);
    EXPECT_EQ(tree.count_greater(UINT64_MAX), 0u);
    tree.insert(0);
    EXPECT_EQ(tree.count_greater(0), 0u);  // strictly greater
    tree.insert(UINT64_MAX);
    EXPECT_EQ(tree.count_greater(0), 1u);
    EXPECT_EQ(tree.count_greater(UINT64_MAX - 1), 1u);
    EXPECT_EQ(tree.count_greater(UINT64_MAX), 0u);
    tree.erase(0);
    tree.erase(UINT64_MAX);
    EXPECT_EQ(tree.size(), 0u);
    EXPECT_EQ(tree.count_greater(0), 0u);
}

/// Sorted-vector reference model for the batched tree operations — the
/// brute-force oracle the run-compressed treap (and its two rewrites) is
/// cross-checked against.
struct TreeOracle {
    std::vector<std::uint64_t> keys;  // sorted ascending

    std::uint64_t count_greater(std::uint64_t k) const {
        return static_cast<std::uint64_t>(
            keys.end() - std::upper_bound(keys.begin(), keys.end(), k));
    }
    std::uint64_t erase_ranked(std::uint64_t k) {
        const std::uint64_t above = count_greater(k);
        const auto it = std::lower_bound(keys.begin(), keys.end(), k);
        if (it != keys.end() && *it == k) keys.erase(it);
        return above;
    }
    void append_run(std::uint64_t first, std::uint64_t stride, std::uint64_t count) {
        for (std::uint64_t i = 0; i < count; ++i) keys.push_back(first + i * stride);
    }
    bool erase_span_exact(std::uint64_t lo, std::uint64_t hi, std::uint64_t expected,
                          std::uint64_t* above_out) {
        const auto b = std::lower_bound(keys.begin(), keys.end(), lo);
        const auto e = std::upper_bound(keys.begin(), keys.end(), hi);
        if (above_out != nullptr) {
            *above_out = static_cast<std::uint64_t>(keys.end() - e);
        }
        if (static_cast<std::uint64_t>(e - b) != expected) return false;
        keys.erase(b, e);
        return true;
    }
    bool replace_max(std::uint64_t old_key, std::uint64_t new_key) {
        if (keys.empty() || keys.back() != old_key) return false;
        keys.back() = new_key;
        return true;
    }
};

TEST(ReuseTree, BatchedOperationsMatchASortedVectorOracle) {
    ReuseTree tree;
    TreeOracle oracle;
    SplitMix64 rng(2024);
    std::uint64_t clock = 1;  // fresh keys come from here, above every live key
    for (int step = 0; step < 3000; ++step) {
        switch (rng.next_below(5)) {
            case 0: {  // append_run of fresh ascending stamps
                const std::uint64_t stride = 1 + rng.next_below(3);
                const std::uint64_t count = 1 + rng.next_below(16);
                tree.append_run(clock, stride, count);
                oracle.append_run(clock, stride, count);
                clock += stride * count;
                break;
            }
            case 1: {  // erase_ranked of a (frequently absent) key
                const std::uint64_t k = rng.next_below(clock);
                ASSERT_EQ(tree.erase_ranked(k), oracle.erase_ranked(k)) << "step " << step;
                break;
            }
            case 2: {  // erase_span_exact, half the time with a wrong population
                const std::uint64_t lo = rng.next_below(clock);
                const std::uint64_t hi = lo + rng.next_below(64);
                const auto b =
                    std::lower_bound(oracle.keys.begin(), oracle.keys.end(), lo);
                const auto e =
                    std::upper_bound(oracle.keys.begin(), oracle.keys.end(), hi);
                const auto pop = static_cast<std::uint64_t>(e - b);
                const std::uint64_t expected = rng.next_below(2) == 0 ? pop : pop + 1;
                std::uint64_t above_tree = 0, above_oracle = 0;
                const bool rt = tree.erase_span_exact(lo, hi, expected, &above_tree);
                const bool ro = oracle.erase_span_exact(lo, hi, expected, &above_oracle);
                ASSERT_EQ(rt, ro) << "step " << step;
                ASSERT_EQ(above_tree, above_oracle) << "step " << step;
                break;
            }
            case 3: {  // replace_max, hitting and missing
                if (oracle.keys.empty()) break;
                const std::uint64_t old_key =
                    rng.next_below(2) == 0 ? oracle.keys.back() : rng.next_below(clock);
                const std::uint64_t new_key = clock;
                const bool rt = tree.replace_max(old_key, new_key);
                const bool ro = oracle.replace_max(old_key, new_key);
                ASSERT_EQ(rt, ro) << "step " << step;
                if (rt) clock = new_key + 1;
                break;
            }
            case 4: {  // single fresh insert (extends the hot tail)
                tree.insert(clock);
                oracle.keys.push_back(clock);
                ++clock;
                break;
            }
        }
        ASSERT_EQ(tree.size(), oracle.keys.size()) << "step " << step;
        const std::uint64_t probe = rng.next_below(clock + 2);
        ASSERT_EQ(tree.count_greater(probe), oracle.count_greater(probe))
            << "step " << step << " probe " << probe;
    }
}

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

/// Drive the same deterministic mix of traced machine operations (every
/// charged kind: single words, ranges, block ops, charge-only sweeps) so two
/// sinks under different options see the identical reference stream.
void drive_machine(hmm::Machine& machine) {
    SplitMix64 rng(11);
    std::vector<model::Word> buf(64, 5);
    for (int i = 0; i < 500; ++i) {
        switch (rng.next_below(7)) {
            case 0:
                machine.write_traced(rng.next_below(2048), rng.next());
                break;
            case 1:
                (void)machine.read_traced(rng.next_below(2048));
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
                const std::uint64_t begin = rng.next_below(1024);
                machine.charge_range(begin, begin + 1 + rng.next_below(128));
                break;
            }
        }
    }
}

TEST(LocalitySink, BatchedAndPerWordPathsAreBitIdentical) {
    // The tentpole's core contract: the O(log n + b) batched engine path and
    // coalescing produce a profile bit-identical to the per-word reference
    // profiler on the same stream (also a fuzz-oracle invariant; this is the
    // deterministic unit-test anchor).
    const auto f = model::AccessFunction::polynomial(0.5);
    LocalitySink fast;
    check::PerWordLocalitySink slow;
    hmm::Machine m_fast(f, 2048), m_slow(f, 2048);
    m_fast.set_trace(&fast);
    m_slow.set_trace(&slow);
    drive_machine(m_fast);
    drive_machine(m_slow);
    EXPECT_EQ(fast.recorded_accesses(), slow.profile().accesses);
    EXPECT_EQ(fast.recorded_accesses(), m_fast.words_touched());
    EXPECT_TRUE(fast.profile().identical(slow.profile()));
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
    drive_machine(m_exact);
    drive_machine(m_sampled);
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
    drive_machine(machine);
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

TEST(LocalitySink, CountsAndCostsMatchTheMachine) {
    const auto f = model::AccessFunction::polynomial(0.5);
    hmm::Machine machine(f, 1024), untraced(f, 1024);
    LocalitySink sink;
    machine.set_trace(&sink);

    // A mix of every charged operation kind. With a sink attached the
    // simulators route all word traffic through the traced variants, and
    // that is the contract being tested; the untraced machine runs the
    // hook-free read()/write() instead.
    const auto ops = [](hmm::Machine& m, bool traced) {
        if (traced) {
            m.write_traced(5, 7);
            m.write_traced(900, 1);
            EXPECT_EQ(m.read_traced(5), 7u);
        } else {
            m.write(5, 7);
            m.write(900, 1);
            EXPECT_EQ(m.read(5), 7u);
        }
        std::vector<model::Word> buf(64, 3);
        m.write_range(0, buf);
        m.read_range(32, std::span<model::Word>(buf.data(), 32));
        m.swap_blocks(0, 512, 64);  // 4 * 64 touches
        m.copy_block(0, 256, 32);   // 2 * 32 touches
        m.charge_range(100, 200);   // 100 touches
        m.charge(17.0);             // pure computation: no references
    };
    ops(machine, true);
    ops(untraced, false);
    const std::uint64_t expected_refs = 3 + 64 + 32 + 4 * 64 + 2 * 32 + 100;

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

TEST(LocalitySink, NestedFanOutBesideATraceBundleKeepsTheProfile) {
    // dbsp_explore --trace --locality attaches MultiSink{bundle sink,
    // LocalitySink}, where the bundle's sink is itself a MultiSink over an
    // AggregateSink and a ChromeTraceSink. Every leaf must see every event:
    // the profile equals a LocalitySink-only run's, and the aggregate's
    // counts equal the machine's.
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

        report::TraceBundle bundle("hmm", /*with_chrome=*/true);
        LocalitySink loc;
        trace::MultiSink nested{bundle.sink(), &loc};
        options.trace = &nested;
        const auto res = core::HmmSimulator(f, options).simulate(*smoothed);

        EXPECT_EQ(res.hmm_cost, plain.hmm_cost);
        EXPECT_TRUE(loc.profile().identical(alone.profile()));
        EXPECT_EQ(loc.recorded_accesses(), res.words_touched);
        EXPECT_EQ(bundle.aggregate()->attributed_words(), res.words_touched);
        EXPECT_GT(bundle.chrome()->event_count(), 0u);
    }
    {
        auto smoothed = core::smooth(prog, core::bt_label_set(f, mu, v));
        LocalitySink alone;
        core::BtSimulator::Options options;
        options.trace = &alone;
        const auto plain = core::BtSimulator(f, options).simulate(*smoothed);

        report::TraceBundle bundle("bt", /*with_chrome=*/true);
        LocalitySink loc;
        trace::MultiSink nested{bundle.sink(), &loc};
        options.trace = &nested;
        auto& transfer_words = report::metric_counter("bt.transfer_words");
        const std::uint64_t before = transfer_words.value();
        const auto res = core::BtSimulator(f, options).simulate(*smoothed);
        const std::uint64_t transferred = transfer_words.value() - before;

        EXPECT_EQ(res.bt_cost, plain.bt_cost);
        EXPECT_TRUE(loc.profile().identical(alone.profile()));
        EXPECT_EQ(bundle.aggregate()->block_transfers(), res.block_transfers);
        EXPECT_EQ(bundle.aggregate()->transfer_volume(), transferred);
        EXPECT_GT(bundle.chrome()->event_count(), 0u);
    }
}

}  // namespace
}  // namespace dbsp::locality
