#include "workloads/collectives.hpp"

#include "util/bits.hpp"
#include "util/contracts.hpp"

namespace dbsp::algo {

BroadcastProgram::BroadcastProgram(std::uint64_t v, Word value)
    : v_(v), log_v_(ilog2(v)), value_(value) {
    DBSP_REQUIRE(is_pow2(v));
}

void BroadcastProgram::init(ProcId p, std::span<Word> data) const {
    if (p == 0) {
        data[0] = value_;
        data[1] = 1;
    }
}

void BroadcastProgram::step(StepIndex s, ProcId p, StepContext& ctx) {
    // Absorb: a message carries the value.
    if (ctx.inbox_size() > 0) {
        ctx.store(0, ctx.inbox(0).payload0);
        ctx.store(1, 1);
    }
    if (s >= log_v_) return;  // final synchronization superstep
    // Superstep s: the 2^s informed processors (multiples of v/2^s) each
    // inform the processor halfway across their s-cluster.
    const std::uint64_t stride = v_ >> s;
    if (ctx.load(1) != 0 && p % stride == 0) {
        ctx.send(p + (stride >> 1), ctx.load(0));
    }
}

ReduceProgram::ReduceProgram(std::vector<Word> inputs)
    : inputs_(std::move(inputs)), log_v_(ilog2(inputs_.size())) {
    DBSP_REQUIRE(is_pow2(inputs_.size()));
}

void ReduceProgram::init(ProcId p, std::span<Word> data) const { data[0] = inputs_[p]; }

void ReduceProgram::step(StepIndex s, ProcId p, StepContext& ctx) {
    // Absorb the partial sum combined in the previous superstep.
    if (ctx.inbox_size() > 0) {
        ctx.store(0, ctx.load(0) + ctx.inbox(0).payload0);
        ctx.charge_ops(1);
    }
    if (s >= log_v_) return;
    // Superstep s: pairs at distance 2^s combine (label log v - 1 - s).
    const std::uint64_t d = std::uint64_t{1} << s;
    if ((p & (2 * d - 1)) == d) {
        ctx.send(p - d, ctx.load(0));
    }
}

PrefixSumProgram::PrefixSumProgram(std::vector<Word> inputs)
    : inputs_(std::move(inputs)), log_v_(ilog2(inputs_.size())) {
    DBSP_REQUIRE(is_pow2(inputs_.size()));
}

unsigned PrefixSumProgram::label(StepIndex s) const {
    if (s < log_v_) return static_cast<unsigned>(log_v_ - 1 - s);  // up-sweep
    if (s < 2 * log_v_) return static_cast<unsigned>(s - log_v_);  // down-sweep
    return 0;                                                      // final sync
}

void PrefixSumProgram::init(ProcId p, std::span<Word> data) const {
    data[0] = inputs_[p];  // running input copy
    data[1] = inputs_[p];  // tree-cell value
}

void PrefixSumProgram::step(StepIndex s, ProcId p, StepContext& ctx) {
    const std::uint64_t v = inputs_.size();
    // --- absorb the previous superstep's messages ---------------------------
    if (s > 0 && s <= log_v_) {
        // Up-sweep combine at distance 2^(s-1): parents add the child value.
        const std::size_t n = ctx.inbox_size();
        if (n > 0) {
            ctx.store(1, ctx.load(1) + ctx.inbox(0).payload0);
            ctx.charge_ops(1);
        }
    } else if (s > log_v_) {
        // Down-sweep exchange at distance v/2^(s-log v): parent adds the old
        // child value (tag 1), child takes the parent value (tag 0).
        const std::size_t n = ctx.inbox_size();
        for (std::size_t k = 0; k < n; ++k) {
            const model::Message m = ctx.inbox(k);
            if (m.payload1 == 0) {
                ctx.store(1, m.payload0);  // child receives parent's value
            } else {
                ctx.store(1, ctx.load(1) + m.payload0);  // parent adds child's
                ctx.charge_ops(1);
            }
        }
    }
    // --- act ------------------------------------------------------------------
    if (s < log_v_) {
        // Up-sweep send at distance d = 2^s.
        const std::uint64_t d = std::uint64_t{1} << s;
        if ((p & (2 * d - 1)) == d - 1) {
            ctx.send(p + d, ctx.load(1));
        }
        return;
    }
    if (s == log_v_ && p == v - 1) {
        ctx.store(1, 0);  // clear the root before the down-sweep
    }
    if (s < 2 * log_v_) {
        // Down-sweep exchange at distance d = v / 2^(s - log v + 1).
        const std::uint64_t d = v >> (s - log_v_ + 1);
        if ((p & (2 * d - 1)) == 2 * d - 1) {
            ctx.send(p - d, ctx.load(1), 0);  // tag 0: parent -> child
        } else if ((p & (2 * d - 1)) == d - 1) {
            ctx.send(p + d, ctx.load(1), 1);  // tag 1: child's old value
        }
        return;
    }
    // Final superstep: word 0 becomes the exclusive prefix sum.
    ctx.store(0, ctx.load(1));
}

}  // namespace dbsp::algo
