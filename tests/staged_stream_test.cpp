#include <gtest/gtest.h>

#include <bit>
#include <cmath>

#include "bt/primitives.hpp"
#include "util/rng.hpp"

namespace dbsp::bt {
namespace {

using model::AccessFunction;
using model::Word;

TEST(StageTower, SingleLevelForSmallChunks) {
    Machine m(AccessFunction::logarithmic(), 4096);
    StageTower t(m, 0, 16, 1);
    EXPECT_EQ(t.levels.size(), 1u);
    EXPECT_EQ(t.levels[0].addr, 0u);
    EXPECT_EQ(t.levels[0].capacity, 16u);
}

TEST(StageTower, TinyChunksBuildOneLevel) {
    // A nearly flat f makes stream chunks of 1-3 words; a next level's cap,
    // chunk / 4, would be 0 there.
    Machine m(AccessFunction::polynomial(0.01), 4096);
    for (std::uint64_t chunk = 1; chunk < 32; ++chunk) {
        StageTower t(m, 0, chunk, 1);
        ASSERT_EQ(t.levels.size(), 1u) << chunk;
        EXPECT_EQ(t.levels[0].capacity, chunk);
    }
}

TEST(StageTower, BuildsMultipleLevelsForDeepChunks) {
    Machine m(AccessFunction::polynomial(0.5), 1 << 20);
    StageTower t(m, 0, 4096, 1);
    ASSERT_GE(t.levels.size(), 2u);
    // Inner levels shrink and sit shallower than outer ones.
    for (std::size_t k = 1; k < t.levels.size(); ++k) {
        EXPECT_LT(t.levels[k].capacity, t.levels[k - 1].capacity);
        EXPECT_LT(t.levels[k].addr, t.levels[k - 1].addr);
    }
    // The innermost level starts at the stage base.
    EXPECT_EQ(t.levels.back().addr, 0u);
    // Total footprint is exactly the chunk.
    std::uint64_t total = 0;
    for (const auto& level : t.levels) total += level.capacity;
    EXPECT_EQ(total, 4096u);
}

TEST(StageTower, CapacitiesRespectAlignment) {
    Machine m(AccessFunction::polynomial(0.5), 1 << 20);
    StageTower t(m, 0, 4095, 5);  // chunk multiple of 5
    for (const auto& level : t.levels) EXPECT_EQ(level.capacity % 5, 0u);
}

TEST(StageTower, LanesInterleaveDepthwise) {
    Machine m(AccessFunction::polynomial(0.5), 1 << 20);
    StageTower t(m, 0, 1024, 1, 3);
    ASSERT_GE(t.levels.size(), 2u);
    for (std::size_t k = 0; k < t.levels.size(); ++k) {
        // Adjacent lane buffers per level, lane 0 first.
        EXPECT_EQ(t.addr(k, 0), t.levels[k].addr);
        EXPECT_EQ(t.addr(k, 1), t.addr(k, 0) + t.levels[k].capacity);
        EXPECT_EQ(t.addr(k, 2), t.addr(k, 1) + t.levels[k].capacity);
    }
    // All three innermost buffers sit in front of any outer buffer.
    const std::size_t inner = t.levels.size() - 1;
    EXPECT_LT(t.addr(inner, 2) + t.levels[inner].capacity, t.addr(0, 0) + 1);
    // The window is exactly three chunks.
    EXPECT_EQ(t.end - t.stage, 3u * 1024u);
}

TEST(StagedStream, RoundTripLargeRegion) {
    const std::uint64_t n = 100000;
    Machine m(AccessFunction::polynomial(0.5), 3 * n + 8192);
    {
        const StageTower tower(m, 0, 512, 1);
        StagedWriter wr(m, tower, 0, 8192, n);
        double total = m.cost();
        for (std::uint64_t i = 0; i < n; ++i) wr.push(i * 7 + 1, total);
        m.set_cost(total);
    }
    const StageTower tower(m, 0, 512, 1);
    StagedReader rd(m, tower, 0, 8192, n);
    double total = m.cost();
    for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(rd.peek(0, total), i * 7 + 1) << i;
        rd.advance(1);
    }
    m.set_cost(total);
    EXPECT_TRUE(rd.done());
}

TEST(StagedStream, AmortizedCostPerWordIsSmall) {
    // The whole point of the tower: streaming n words from depth costs
    // O(n) + small, even under x^0.5 where direct reads would cost n*f(n).
    const auto f = AccessFunction::polynomial(0.5);
    const std::uint64_t n = 1 << 17;
    Machine m(f, 2 * n + 8192);
    m.reset_cost();
    const std::uint64_t chunk = chunk_words(m, 8192 + n, 2048);
    const StageTower tower(m, 0, chunk, 1);
    StagedReader rd(m, tower, 0, 8192, n);
    Word acc = 0;
    double total = m.cost();
    while (!rd.done()) {
        acc ^= rd.peek(0, total);
        rd.advance(1);
    }
    m.set_cost(total);
    const double per_word = m.cost() / static_cast<double>(n);
    EXPECT_LT(per_word, 12.0);  // vs f(n) ~ 360 for direct reads
    const double direct_per_word = f(8192 + n / 2);
    EXPECT_LT(per_word, direct_per_word / 20.0);
}

TEST(StagedStream, ThreeLaneMergePattern) {
    // Reproduce the merge access pattern: two readers + one writer on shared
    // lanes; interleaved consumption must stay correct.
    const std::uint64_t n = 5000;
    Machine m(AccessFunction::polynomial(0.35), 4 * n + 4096);
    auto raw = m.raw();
    for (std::uint64_t i = 0; i < n; ++i) {
        raw[4096 + i] = 2 * i;          // evens
        raw[4096 + n + i] = 2 * i + 1;  // odds
    }
    const std::uint64_t chunk = 120;
    const StageTower tower(m, 0, chunk, 1, 3);
    StagedReader ra(m, tower, 0, 4096, n);
    StagedReader rb(m, tower, 1, 4096 + n, n);
    StagedWriter out(m, tower, 2, 4096 + 2 * n, 2 * n);
    double total = m.cost();
    while (!ra.done() || !rb.done()) {
        if (!ra.done() && (rb.done() || ra.peek(0, total) <= rb.peek(0, total))) {
            out.push(ra.peek(0, total), total);
            ra.advance(1);
        } else {
            out.push(rb.peek(0, total), total);
            rb.advance(1);
        }
    }
    m.set_cost(total);
    out.flush();
    for (std::uint64_t i = 0; i < 2 * n; ++i) {
        ASSERT_EQ(m.raw()[4096 + 2 * n + i], i);
    }
}

TEST(StagedStream, WriterDestructorFlushesPartial) {
    Machine m(AccessFunction::logarithmic(), 4096);
    {
        const StageTower tower(m, 0, 64, 1);
        StagedWriter wr(m, tower, 0, 2048, 33);
        double total = m.cost();
        for (int i = 0; i < 33; ++i) wr.push(i, total);
        m.set_cost(total);
    }
    for (int i = 0; i < 33; ++i) EXPECT_EQ(m.raw()[2048 + i], static_cast<Word>(i));
}

TEST(StagedStream, RecordPeeksNeverStraddle) {
    // Records of 5 with chunk a multiple of 5: peek(0..4) always valid.
    const std::uint64_t recs = 999, rw = 5;
    Machine m(AccessFunction::polynomial(0.5), 2 * recs * rw + 4096);
    auto raw = m.raw();
    for (std::uint64_t i = 0; i < recs * rw; ++i) raw[4096 + i] = i;
    const StageTower tower(m, 0, 125, rw);
    StagedReader rd(m, tower, 0, 4096, recs * rw);
    double total = m.cost();
    for (std::uint64_t r = 0; r < recs; ++r) {
        for (std::uint64_t t = 0; t < rw; ++t) {
            ASSERT_EQ(rd.peek(t, total), r * rw + t);
        }
        rd.advance(rw);
    }
    m.set_cost(total);
}

TEST(StagedStream, ResetMatchesFreshStreams) {
    // A reader and a writer re-aimed over two regions must move the same data
    // and charge the same bits as fresh streams on each region.
    const auto f = AccessFunction::polynomial(0.5);
    const std::uint64_t rw = 5, n1 = 700, n2 = 455;  // words, multiples of rw
    auto fill = [&](Machine& m) {
        SplitMix64 rng(11);
        for (std::uint64_t i = 0; i < n1 + n2; ++i) m.raw()[8192 + i] = rng.next();
    };
    // Copy [8192, +n1) to [16384, +n1), then [8192+n1, +n2) to [20480, +n2).
    auto copy = [&](Machine& m, StagedReader& rd, StagedWriter& wr) {
        double total = m.cost();
        while (!rd.done()) {
            for (std::uint64_t t = 0; t < rw; ++t) wr.push(rd.peek(t, total), total);
            rd.advance(rw);
        }
        m.set_cost(total);
        wr.flush();
    };
    Machine fresh(f, 1 << 15), reused(f, 1 << 15);
    fill(fresh);
    fill(reused);
    const StageTower tf(fresh, 0, 250, rw, 2), tr(reused, 0, 250, rw, 2);
    ASSERT_GE(tf.levels.size(), 2u);
    {
        StagedReader rd(fresh, tf, 0, 8192, n1);
        StagedWriter wr(fresh, tf, 1, 16384, n1);
        copy(fresh, rd, wr);
    }
    {
        StagedReader rd(fresh, tf, 0, 8192 + n1, n2);
        StagedWriter wr(fresh, tf, 1, 20480, n2);
        copy(fresh, rd, wr);
    }
    StagedReader rd(reused, tr, 0, 8192, n1);
    StagedWriter wr(reused, tr, 1, 16384, n1);
    copy(reused, rd, wr);
    rd.reset(8192 + n1, n2);
    wr.reset(20480, n2);
    copy(reused, rd, wr);

    for (std::uint64_t i = 0; i < reused.capacity(); ++i) {
        ASSERT_EQ(reused.raw()[i], fresh.raw()[i]) << i;
    }
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.cost()),
              std::bit_cast<std::uint64_t>(fresh.cost()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.transfer_volume_cost()),
              std::bit_cast<std::uint64_t>(fresh.transfer_volume_cost()));
    EXPECT_EQ(reused.block_transfers(), fresh.block_transfers());
}

}  // namespace
}  // namespace dbsp::bt
