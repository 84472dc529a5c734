/// Pins the bits of single fold units: one step's charge fold
/// (model::price_step, which the HMM step runner and BT COMPUTE share) and
/// each HMM delivery group's account.
///
/// A unit's total is a floating-point fold whose last bits depend on the
/// order of its additions. Added to a simulation's running total, those bits
/// mostly round away, so the whole-run pins (CostPin.*) and the golden file
/// miss a unit that folds in another order. Here each unit is read alone:
/// the step fold's return value, and each delivery group's account merged
/// into a machine zeroed just before (0 + a == a exactly). Every expected
/// value is the exact double (%a form) a run produced; a reordered fold,
/// the op charge added before the touches, or a delivery group that charges
/// its words in another order changes them.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "core/hmm_shard.hpp"
#include "hmm/machine.hpp"
#include "model/cost_table.hpp"
#include "model/superstep_exec.hpp"
#include "trace/aggregate.hpp"
#include "util/rng.hpp"

namespace dbsp {
namespace {

using model::AccessFunction;
using model::Word;

std::string hex(double x) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", x);
    return buf;
}

struct StepPin {
    double start;       ///< the account's value before the step
    model::Addr vbase;  ///< where the schedule charges the context
    std::uint64_t ops;  ///< the step's unit operations
    double cost;        ///< the pinned fold
};

// clang-format off
const StepPin kStepPins[] = {
    {0.0,     0,    0,   0x1.93f99b1fbc487p+12},
    {0.0,     0,    977, 0x1.d1099b1fbc487p+12},
    {0.0,     2048, 977, 0x1.f863094e6ce5p+13},
    {1234.5,  2048, 977, 0x1.0f7b84a736728p+14},
    {0.0,     0,    3000017, 0x1.6f0084cd8fde2p+21},
};
// clang-format on

TEST(FoldUnit, StepFoldMatchesPinnedBits) {
    constexpr std::size_t mu = 1024;
    const model::CostTable table(AccessFunction::polynomial(0.5), 4096);
    SplitMix64 rng(5);
    model::TouchLog touches(300);
    for (auto& i : touches) i = static_cast<std::uint32_t>(rng.next_below(mu));
    for (const StepPin& pin : kStepPins) {
        const std::string what = "start " + hex(pin.start) + " vbase " +
                                 std::to_string(pin.vbase) + " ops " + std::to_string(pin.ops);
        const double untraced = model::price_step<false>(pin.start, table, nullptr, touches,
                                                         pin.vbase, mu, pin.ops);
        EXPECT_EQ(hex(untraced), hex(pin.cost)) << what;
        // The traced fold adds the same charges in the same order.
        trace::AggregateSink sink;
        const double traced = model::price_step<true>(pin.start, table, &sink, touches,
                                                      pin.vbase, mu, pin.ops);
        EXPECT_EQ(hex(traced), hex(untraced)) << what;
        EXPECT_EQ(sink.attributed_words(), touches.size()) << what;
    }
}

/// A context source that reads each delivery group's account alone: the
/// machine is zeroed before the group merges, so afterwards its total is the
/// group's account bit for bit.
template <bool Traced>
class GroupRecorder {
public:
    GroupRecorder(hmm::Machine& m, std::size_t mu, const std::vector<std::uint64_t>* blocks)
        : m_(m), source_(m, mu, blocks) {}

    core::HmmShardAccessor<Traced> open_group() const { return source_.open_group(); }

    void group_end(core::HmmShardAccessor<Traced>& group) {
        m_.reset_cost();
        source_.group_end(group);
        costs.push_back(m_.cost());
        words.push_back(m_.words_touched());
    }

    std::vector<double> costs;
    std::vector<std::uint64_t> words;

private:
    hmm::Machine& m_;
    core::HmmShardSource<Traced> source_;
};

/// Two full delivery groups of v = 128 processors, processor p at block
/// (*blocks)[p] (block p when \p blocks is nullptr). Processor p sends two
/// messages, to (5p + 1) mod v and (3p + 7) mod v (each a permutation, so
/// every inbox receives two), and every odd processor holds one unread
/// message, so the inbox offsets vary.
template <bool Traced>
GroupRecorder<Traced> deliver_two_groups(hmm::Machine& m, const model::ContextLayout& layout,
                                         const std::vector<std::uint64_t>* blocks) {
    const std::uint64_t v = 128;
    const std::size_t mu = layout.context_words();
    auto raw = m.raw();
    for (std::uint64_t p = 0; p < v; ++p) {
        Word* ctx = raw.data() + (blocks != nullptr ? (*blocks)[p] : p) * mu;
        ctx[layout.out_count_offset()] = 2;
        const Word dests[2] = {(5 * p + 1) % v, (3 * p + 7) % v};
        for (std::size_t k = 0; k < 2; ++k) {
            ctx[layout.out_record_offset(k)] = dests[k];
            ctx[layout.out_record_offset(k) + 1] = 100 * p + k;
            ctx[layout.out_record_offset(k) + 2] = 7 * p;
        }
        ctx[layout.in_count_offset()] = p % 2;
    }
    GroupRecorder<Traced> groups(m, mu, blocks);
    model::deliver_messages(layout, 0, v, groups);
    return groups;
}

struct GroupPin {
    double cost;
    std::uint64_t words;
};

// Per layout: phase 1's two sender groups, then phase 2's two destination
// groups. A charge is exact in a sum whose last place it does not reach, so
// only a reorder late in a group, among the fine-grained charges of low
// addresses, moves a group's bits; the reversed layout walks its low
// addresses last.
// clang-format off
const GroupPin kIdentityPins[] = {
    {0x1.c07883aaefe7dp+13, 512},
    {0x1.9c265693647bap+14, 512},
    {0x1.1c4b6ea98f5fcp+14, 640},
    {0x1.027403ee88007p+15, 640},
};
const GroupPin kReversedPins[] = {
    {0x1.9c265693647bap+14, 512},
    {0x1.c07883aaefe7ep+13, 512},
    {0x1.027413d0358cep+15, 640},
    {0x1.1c50229d4e49bp+14, 640},
};
// clang-format on

TEST(FoldUnit, DeliveryGroupsMatchPinnedBits) {
    const model::ContextLayout layout{2, 4};
    const auto f = AccessFunction::polynomial(0.5);
    std::vector<std::uint64_t> reversed(128);
    for (std::uint64_t p = 0; p < 128; ++p) reversed[p] = 127 - p;
    for (const bool reverse : {false, true}) {
        const std::vector<std::uint64_t>* blocks = reverse ? &reversed : nullptr;
        const GroupPin* pins = reverse ? kReversedPins : kIdentityPins;
        hmm::Machine untraced_m(f, 128 * layout.context_words());
        hmm::Machine traced_m(f, 128 * layout.context_words());
        trace::AggregateSink sink;
        traced_m.set_trace(&sink);
        const auto untraced = deliver_two_groups<false>(untraced_m, layout, blocks);
        const auto traced = deliver_two_groups<true>(traced_m, layout, blocks);
        ASSERT_EQ(untraced.costs.size(), std::size(kIdentityPins));
        ASSERT_EQ(traced.costs.size(), std::size(kIdentityPins));
        for (std::size_t g = 0; g < std::size(kIdentityPins); ++g) {
            const std::string what =
                std::string(reverse ? "reversed" : "identity") + " group " + std::to_string(g);
            EXPECT_EQ(hex(untraced.costs[g]), hex(pins[g].cost)) << what;
            EXPECT_EQ(untraced.words[g], pins[g].words) << what;
            EXPECT_EQ(hex(traced.costs[g]), hex(untraced.costs[g])) << what;
            EXPECT_EQ(traced.words[g], untraced.words[g]) << what;
        }
        EXPECT_TRUE(std::equal(untraced_m.raw().begin(), untraced_m.raw().end(),
                               traced_m.raw().begin()));
    }
}

}  // namespace
}  // namespace dbsp
