#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include <algorithm>
#include <string>

#include "bt/primitives.hpp"
#include "bt/sort.hpp"
#include "bt/transpose.hpp"
#include "core/bounds.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace dbsp::bt {
namespace {

using model::AccessFunction;
using model::Word;

TEST(BtPrimitives, Pow2AtMost) {
    EXPECT_EQ(pow2_at_most(1), 1u);
    EXPECT_EQ(pow2_at_most(2), 2u);
    EXPECT_EQ(pow2_at_most(3), 2u);
    EXPECT_EQ(pow2_at_most(1000), 512u);
}

TEST(BtPrimitives, TouchRegionReadsEverything) {
    const std::uint64_t n = 1 << 12;
    Machine m(AccessFunction::polynomial(0.5), 2 * n);
    Word expected = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const Word w = i * 2654435761u;
        m.raw()[n + i] = w;
        expected ^= w;
    }
    EXPECT_EQ(touch_region(m, n, n), expected);
}

TEST(BtPrimitives, TouchBeatsHmmScanForPolynomialF) {
    // Fact 2 vs Fact 1: BT touching is Theta(n f*(n)), far below the HMM's
    // Theta(n f(n)) for f = x^alpha.
    const auto f = AccessFunction::polynomial(0.5);
    const std::uint64_t n = 1 << 16;
    Machine m(f, 2 * n);
    m.reset_cost();
    touch_region(m, n, n);
    const double bt_cost = m.cost();
    const double hmm_cost = core::fact1_bound(f, n);
    EXPECT_LT(bt_cost, hmm_cost / 8.0);
    // And it is within a constant band of n f*(n).
    const double bound = core::fact2_bound(f, n);
    EXPECT_LT(bt_cost / bound, 12.0);
    EXPECT_GT(bt_cost / bound, 0.3);
}

TEST(BtPrimitives, StagedReaderStreamsInOrder) {
    Machine m(AccessFunction::logarithmic(), 4096);
    for (int i = 0; i < 100; ++i) m.raw()[1000 + i] = 5 * i;
    const StageTower tower(m, /*stage=*/0, /*chunk=*/16, /*align=*/1);
    StagedReader rd(m, tower, /*lane=*/0, 1000, 100);
    double total = m.cost();
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(rd.peek(0, total), static_cast<Word>(5 * i));
        rd.advance(1);
    }
    m.set_cost(total);
    EXPECT_TRUE(rd.done());
}

TEST(BtPrimitives, StagedReaderPeeksWithinRecord) {
    Machine m(AccessFunction::logarithmic(), 4096);
    for (int i = 0; i < 40; ++i) m.raw()[512 + i] = i;
    const StageTower tower(m, 0, /*chunk=*/8, /*align=*/1);  // records of 4, chunk 8
    StagedReader rd(m, tower, 0, 512, 40);
    double total = m.cost();
    for (int r = 0; r < 10; ++r) {
        for (int t = 0; t < 4; ++t) {
            EXPECT_EQ(rd.peek(t, total), static_cast<Word>(4 * r + t));
        }
        rd.advance(4);
    }
    m.set_cost(total);
}

TEST(BtPrimitives, StagedWriterFlushesAll) {
    Machine m(AccessFunction::logarithmic(), 4096);
    {
        const StageTower tower(m, /*stage=*/0, /*chunk=*/16, /*align=*/1);
        StagedWriter wr(m, tower, /*lane=*/0, 2000, 77);
        double total = m.cost();
        for (int i = 0; i < 77; ++i) wr.push(i * 3, total);
        m.set_cost(total);
    }  // destructor flushes
    for (int i = 0; i < 77; ++i) EXPECT_EQ(m.raw()[2000 + i], static_cast<Word>(i * 3));
}

TEST(BtSort, SortsRecordsByKeyPair) {
    SplitMix64 rng(17);
    const std::uint64_t n = 777, r = 5;
    Machine m(AccessFunction::polynomial(0.5), 4 * n * r + 4096);
    const model::Addr base = 2048;
    const model::Addr scratch = base + n * r;
    std::vector<std::array<Word, 5>> ref(n);
    for (std::uint64_t i = 0; i < n; ++i) {
        ref[i] = {rng.next_below(50), rng.next_below(50), i, i + 1, i + 2};
        for (std::uint64_t t = 0; t < r; ++t) m.raw()[base + i * r + t] = ref[i][t];
    }
    merge_sort_records(m, base, n, r, scratch, /*stage=*/0, /*stage_words=*/512);
    std::stable_sort(ref.begin(), ref.end(), [](const auto& a, const auto& b) {
        return a[0] != b[0] ? a[0] < b[0] : a[1] < b[1];
    });
    for (std::uint64_t i = 0; i < n; ++i) {
        for (std::uint64_t t = 0; t < r; ++t) {
            ASSERT_EQ(m.raw()[base + i * r + t], ref[i][t]) << "i=" << i << " t=" << t;
        }
    }
}

TEST(BtSort, StableForEqualKeys) {
    const std::uint64_t n = 64, r = 3;
    Machine m(AccessFunction::logarithmic(), 4 * n * r + 1024);
    const model::Addr base = 512, scratch = base + n * r;
    for (std::uint64_t i = 0; i < n; ++i) {
        m.raw()[base + i * r] = 1;      // all keys equal
        m.raw()[base + i * r + 1] = 2;
        m.raw()[base + i * r + 2] = i;  // original index
    }
    merge_sort_records(m, base, n, r, scratch, 0, 64);
    for (std::uint64_t i = 0; i < n; ++i) {
        EXPECT_EQ(m.raw()[base + i * r + 2], i);
    }
}

TEST(BtSort, CostIsNearNLogN) {
    // The substitute for Approx-Median-Sort: O(m log m) shape for x^alpha.
    const auto f = AccessFunction::polynomial(0.5);
    std::vector<double> ratios;
    SplitMix64 rng(3);
    for (std::uint64_t n : {1u << 10, 1u << 12, 1u << 14}) {
        const std::uint64_t r = 5;
        Machine m(f, 4 * n * r + 8192);
        const model::Addr base = 4096, scratch = base + n * r;
        for (std::uint64_t i = 0; i < n * r; ++i) m.raw()[base + i] = rng.next();
        m.reset_cost();
        merge_sort_records(m, base, n, r, scratch, 0, 2048);
        ratios.push_back(m.cost() / (static_cast<double>(n * r) * std::log2(n)));
    }
    // Near-constant ratio across an order of magnitude (allowing the
    // doubly-log staged-access drift documented in DESIGN.md §5).
    EXPECT_LT(ratios.back() / ratios.front(), 2.0);
}

std::string hex(double x) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", x);
    return buf;
}

/// Pins the merge sort's charges: every expected value is the exact double
/// (%a), count or output a run produced. Moving, adding or dropping one
/// charged word access, block transfer or comparison changes them.
TEST(BtSort, ChargesMatchPinnedBits) {
    struct Pin {
        std::uint64_t n;            ///< records of 5 words
        std::uint64_t stage_words;
        Word key_range;             ///< key0 and key1 drawn below this
        std::size_t tower_levels;   ///< levels of the merge tower the case reaches
        const char* cost;
        const char* volume;
        std::uint64_t block_transfers;
    };
    const Pin pins[] = {
        // (a) one-level merge towers.
        {64, 512, 1u << 20, 1, "0x1.b55005a4a70c6p+15", "0x1.ep+11", 210},
        // (b) two-level merge towers.
        {2048, 2048, 1u << 20, 2, "0x1.55c2b5eb43af4p+21", "0x1.c2p+18", 25754},
        // (c) n not a power of two (odd-tail copies at width 4) and nine
        // distinct keys, so most comparisons take the key1/stability branch.
        {1500, 2048, 3, 2, "0x1.eddd6813bbdf3p+20", "0x1.4226p+18", 18464},
    };
    const auto f = AccessFunction::polynomial(0.5);
    const std::uint64_t r = 5;
    for (const Pin& pin : pins) {
        SCOPED_TRACE(pin.n);
        const model::Addr base = 4096, scratch = base + pin.n * r;
        Machine m(f, scratch + pin.n * r);
        SplitMix64 rng(pin.n);
        std::vector<std::array<Word, 5>> ref(pin.n);
        for (std::uint64_t i = 0; i < pin.n; ++i) {
            ref[i] = {rng.next_below(pin.key_range), rng.next_below(pin.key_range), i,
                      rng.next(), rng.next()};
            for (std::uint64_t t = 0; t < r; ++t) m.raw()[base + i * r + t] = ref[i][t];
        }
        // The tower merge_sort_records stages its merges through (same chunk
        // rule); the pinned level count keeps each case on its tower shape.
        std::uint64_t chunk = chunk_words(m, scratch + pin.n * r - 1, pin.stage_words / 3);
        chunk -= chunk % r;
        EXPECT_EQ(StageTower(m, 0, chunk, r, /*lanes=*/3).levels.size(), pin.tower_levels);

        merge_sort_records(m, base, pin.n, r, scratch, /*stage=*/0, pin.stage_words);
        EXPECT_EQ(hex(m.cost()), pin.cost);
        EXPECT_EQ(hex(m.transfer_volume_cost()), pin.volume);
        EXPECT_EQ(m.block_transfers(), pin.block_transfers);

        std::stable_sort(ref.begin(), ref.end(), [](const auto& a, const auto& b) {
            return a[0] != b[0] ? a[0] < b[0] : a[1] < b[1];
        });
        for (std::uint64_t i = 0; i < pin.n; ++i) {
            for (std::uint64_t t = 0; t < r; ++t) {
                ASSERT_EQ(m.raw()[base + i * r + t], ref[i][t]) << "i=" << i << " t=" << t;
            }
        }
    }
}

TEST(BtTranspose, TransposesSmallDirect) {
    const std::uint64_t s = 4;
    Machine m(AccessFunction::logarithmic(), 256);
    for (std::uint64_t i = 0; i < s * s; ++i) m.raw()[64 + i] = i;
    transpose_square(m, 64, s);
    for (std::uint64_t i = 0; i < s; ++i) {
        for (std::uint64_t j = 0; j < s; ++j) {
            EXPECT_EQ(m.raw()[64 + i * s + j], j * s + i);
        }
    }
}

class BtTransposeParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BtTransposeParam, TransposesTiled) {
    const std::uint64_t s = GetParam();
    const std::uint64_t n = s * s;
    Machine m(AccessFunction::polynomial(0.35), 3 * n + 64);
    const model::Addr base = 2 * n;
    for (std::uint64_t i = 0; i < n; ++i) m.raw()[base + i] = i;
    transpose_square(m, base, s);
    for (std::uint64_t i = 0; i < s; ++i) {
        for (std::uint64_t j = 0; j < s; ++j) {
            ASSERT_EQ(m.raw()[base + i * s + j], j * s + i) << "s=" << s;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, BtTransposeParam,
                         ::testing::Values(2, 8, 16, 32, 64, 128, 256));

TEST(BtTranspose, CheaperThanSortingTheSameVolume) {
    // Section 6: delivering a rational permutation with the transpose
    // primitive must clearly undercut moving the same volume of data with
    // the (general-purpose) BT sort — that is exactly the substitution the
    // improved DFT simulation makes.
    const auto f = AccessFunction::polynomial(0.35);
    const std::uint64_t s = 256, n = s * s;

    Machine mt(f, 3 * n + 64);
    {
        for (std::uint64_t i = 0; i < n; ++i) mt.raw()[2 * n + i] = i;
    }
    mt.reset_cost();
    transpose_square(mt, 2 * n, s);
    const double transpose_cost = mt.cost();
    EXPECT_GT(transpose_cost, static_cast<double>(n));  // must touch everything

    // Same word volume through the sort: n/5 records of 5 words.
    Machine ms(f, 4 * n + 8192);
    SplitMix64 rng(6);
    for (std::uint64_t i = 0; i < n; ++i) ms.raw()[4096 + i] = rng.next();
    ms.reset_cost();
    merge_sort_records(ms, 4096, n / 5, 5, 4096 + n, 0, 2048);
    const double sort_cost = ms.cost();

    EXPECT_LT(transpose_cost, sort_cost / 2.0);
}

}  // namespace
}  // namespace dbsp::bt
