#include <gtest/gtest.h>

#include "model/cluster_tree.hpp"
#include "model/context_layout.hpp"
#include "model/program.hpp"
#include "model/superstep_exec.hpp"

namespace dbsp::model {
namespace {

TEST(ClusterTree, Structure) {
    ClusterTree t(16);
    EXPECT_EQ(t.log_processors(), 4u);
    EXPECT_EQ(t.num_clusters(0), 1u);
    EXPECT_EQ(t.num_clusters(4), 16u);
    EXPECT_EQ(t.cluster_size(2), 4u);
    EXPECT_EQ(t.cluster_of(13, 2), 3u);
    EXPECT_EQ(t.cluster_first(3, 2), 12u);
    EXPECT_TRUE(t.same_cluster(12, 15, 2));
    EXPECT_FALSE(t.same_cluster(11, 12, 2));
    EXPECT_TRUE(t.same_cluster(0, 15, 0));
}

TEST(ClusterTree, BinaryDecomposition) {
    // C^(i)_j = C^(i+1)_(2j) union C^(i+1)_(2j+1).
    ClusterTree t(32);
    for (unsigned i = 0; i < 5; ++i) {
        for (std::uint64_t j = 0; j < t.num_clusters(i); ++j) {
            const auto first = t.cluster_first(j, i);
            EXPECT_EQ(t.cluster_first(2 * j, i + 1), first);
            EXPECT_EQ(t.cluster_first(2 * j + 1, i + 1), first + t.cluster_size(i + 1));
        }
    }
}

TEST(ContextLayout, OffsetsArePackedAndDisjoint) {
    const ContextLayout l{5, 3};
    EXPECT_EQ(l.out_count_offset(), 5u);
    EXPECT_EQ(l.out_records_offset(), 6u);
    EXPECT_EQ(l.in_records_offset(), 6u + 9u);
    EXPECT_EQ(l.in_count_offset(), 6u + 18u);
    EXPECT_EQ(l.context_words(), 5u + 2u + 18u);
    EXPECT_EQ(l.out_record_offset(2), l.out_records_offset() + 6);
    EXPECT_EQ(l.in_record_offset(1), l.in_records_offset() + 3);
}

/// Minimal program: processor p sends its id to p^1 in a single superstep.
class PairSwapProgram final : public Program {
public:
    explicit PairSwapProgram(std::uint64_t v) : v_(v) {}
    std::string name() const override { return "pair-swap"; }
    std::uint64_t num_processors() const override { return v_; }
    std::size_t data_words() const override { return 1; }
    std::size_t max_messages() const override { return 1; }
    StepIndex num_supersteps() const override { return 2; }
    unsigned label(StepIndex s) const override { return s == 0 ? ilog2(v_) - 1 : 0; }
    void init(ProcId p, std::span<Word> data) const override { data[0] = p; }
    void step(StepIndex s, ProcId p, StepContext& ctx) override {
        if (s == 0) {
            ctx.send(p ^ 1, ctx.load(0));
        } else {
            EXPECT_EQ(ctx.inbox_size(), 1u);
            const Message m = ctx.inbox(0);
            EXPECT_EQ(m.src, p ^ 1);
            EXPECT_EQ(m.dest, p);
            ctx.store(0, m.payload0);
        }
    }

private:
    std::uint64_t v_;
};

TEST(StepContext, SendValidatesClusterDiscipline) {
    const ContextLayout layout{1, 1};
    std::vector<Word> mem(layout.context_words(), 0);
    TouchLog touches;
    ClusterTree tree(8);
    StepContext ctx(mem, touches, layout, tree, 0, /*label=*/2, /*proc=*/0);
    // Label 2 on 8 processors: clusters of 2; sending to processor 1 is
    // legal, anything farther would abort (tested via death below).
    ctx.send(1, 99);
    EXPECT_EQ(ctx.sent(), 1u);
    EXPECT_EQ(mem[layout.out_record_offset(0)], 1u);
    EXPECT_EQ(mem[layout.out_record_offset(0) + 1], 99u);
}

TEST(StepContextDeathTest, SendOutsideClusterAborts) {
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const ContextLayout layout{1, 1};
    std::vector<Word> mem(layout.context_words(), 0);
    TouchLog touches;
    ClusterTree tree(8);
    StepContext ctx(mem, touches, layout, tree, 0, /*label=*/2, /*proc=*/0);
    EXPECT_DEATH(ctx.send(5, 1), "Precondition");
}

TEST(StepContext, OpsAccounting) {
    const ContextLayout layout{4, 2};
    std::vector<Word> mem(layout.context_words(), 0);
    TouchLog touches;
    ClusterTree tree(4);
    StepContext ctx(mem, touches, layout, tree, 0, 0, 2);
    ctx.store(0, 7);
    (void)ctx.load(0);
    ctx.charge_ops(10);
    ctx.send(0, 1);
    EXPECT_EQ(ctx.ops(), 13u);
    EXPECT_FALSE(ctx.read_inbox());
    (void)ctx.inbox_size();
    EXPECT_TRUE(ctx.read_inbox());
}

TEST(StepContext, ProcBaseTranslation) {
    const ContextLayout layout{1, 1};
    std::vector<Word> mem(layout.context_words(), 0);
    TouchLog touches;
    ClusterTree tree(4);  // a 4-processor window based at global id 8
    StepContext ctx(mem, touches, layout, tree, 0, 0, /*proc=*/1, /*base=*/8);
    EXPECT_EQ(ctx.proc(), 9u);
    ctx.send(10, 5);  // global dest 10 -> local 2
    EXPECT_EQ(mem[layout.out_record_offset(0)], 2u);
}

/// Touches a fixed sequence of words: a data store and load, the inbox
/// count and one record, and one send.
class TouchSequenceProgram final : public Program {
public:
    std::string name() const override { return "touch-sequence"; }
    std::uint64_t num_processors() const override { return 2; }
    std::size_t data_words() const override { return 2; }
    std::size_t max_messages() const override { return 2; }
    StepIndex num_supersteps() const override { return 1; }
    unsigned label(StepIndex) const override { return 0; }
    void step(StepIndex, ProcId p, StepContext& ctx) override {
        ctx.store(1, 5);
        (void)ctx.load(0);
        (void)ctx.inbox_size();
        (void)ctx.inbox(1);
        ctx.send(p ^ 1, 7, 8);
    }
};

TEST(StepContext, TouchLogRecordsEveryWordInOrder) {
    TouchSequenceProgram program;
    const ContextLayout layout = program.layout();
    const ClusterTree tree(2);
    std::vector<Word> mem(layout.context_words(), 0);
    TouchLog touches{99};  // a stale entry: the run starts a fresh log
    const StepOutcome out = run_processor_step(program, layout, tree, 0, 1, mem, touches);
    EXPECT_EQ(out.sent, 1u);
    EXPECT_TRUE(out.read_inbox);
    EXPECT_EQ(out.ops, 5u);
    const std::size_t in1 = layout.in_record_offset(1);
    const std::size_t out0 = layout.out_record_offset(0);
    // The step's own touches, then the committed out count and the consumed
    // in count.
    const std::vector<std::size_t> expected{
        1,        0,        layout.in_count_offset(),  in1, in1 + 1, in1 + 2, out0,
        out0 + 1, out0 + 2, layout.out_count_offset(), layout.in_count_offset()};
    EXPECT_EQ(std::vector<std::size_t>(touches.begin(), touches.end()), expected);
    // The step wrote the context in place.
    EXPECT_EQ(mem[1], 5u);
    EXPECT_EQ(mem[out0], 0u);
    EXPECT_EQ(mem[out0 + 1], 7u);
    EXPECT_EQ(mem[out0 + 2], 8u);
    EXPECT_EQ(mem[layout.out_count_offset()], 1u);
}

TEST(DeliverMessages, CanonicalOrderAndCounts) {
    const ContextLayout layout{1, 3};
    const std::size_t mu = layout.context_words();
    std::vector<std::vector<Word>> mem(4, std::vector<Word>(mu, 0));
    // Processors 1, 2, 3 each queue one message to processor 0.
    for (ProcId p : {3u, 1u, 2u}) {
        mem[p][layout.out_count_offset()] = 1;
        mem[p][layout.out_record_offset(0)] = 0;      // dest
        mem[p][layout.out_record_offset(0) + 1] = p;  // payload
    }
    VectorAccessorSource with(mem, mu);
    const std::size_t h = deliver_messages(layout, 0, 4, with);
    EXPECT_EQ(h, 3u);
    EXPECT_EQ(mem[0][layout.in_count_offset()], 3u);
    // Delivery order is ascending by sender.
    EXPECT_EQ(mem[0][layout.in_record_offset(0)], 1u);
    EXPECT_EQ(mem[0][layout.in_record_offset(1)], 2u);
    EXPECT_EQ(mem[0][layout.in_record_offset(2)], 3u);
    // Senders' outgoing counts were consumed.
    for (ProcId p = 1; p < 4; ++p) EXPECT_EQ(mem[p][layout.out_count_offset()], 0u);
}

TEST(DeliverMessages, AppendsToUnconsumedInbox) {
    const ContextLayout layout{1, 3};
    const std::size_t mu = layout.context_words();
    std::vector<std::vector<Word>> mem(2, std::vector<Word>(mu, 0));
    mem[0][layout.in_count_offset()] = 1;  // one stale message
    mem[0][layout.in_record_offset(0)] = 7;
    mem[1][layout.out_count_offset()] = 1;
    mem[1][layout.out_record_offset(0)] = 0;
    mem[1][layout.out_record_offset(0) + 1] = 42;
    VectorAccessorSource with(mem, mu);
    deliver_messages(layout, 0, 2, with);
    EXPECT_EQ(mem[0][layout.in_count_offset()], 2u);
    EXPECT_EQ(mem[0][layout.in_record_offset(1) + 1], 42u);
}

TEST(RelabeledProgram, DummyStepsDoNothing) {
    PairSwapProgram base(4);
    RelabeledProgram smoothed(base, {0, RelabeledProgram::kDummy, 1},
                              {1, 1, 0});
    EXPECT_EQ(smoothed.num_supersteps(), 3u);
    EXPECT_TRUE(smoothed.is_dummy(1));
    EXPECT_FALSE(smoothed.is_dummy(0));
    EXPECT_EQ(smoothed.label(1), 1u);
}

}  // namespace
}  // namespace dbsp::model
