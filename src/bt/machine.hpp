#pragma once

/// \file machine.hpp
/// The f(x)-BT model of Aggarwal, Chandra and Snir [ACS87], Section 2 of the
/// paper: an f(x)-HMM augmented with block transfer. Touching address x costs
/// f(x); in addition, a block of b cells [x-b+1, x] can be copied onto a
/// disjoint block [y-b+1, y] in time max{f(x), f(y)} + b — i.e. one access at
/// the deeper of the two block ends plus one unit per cell, modelling fully
/// pipelined bulk movement.
///
/// As with hmm::Machine, the instance stores real words and meters the exact
/// model cost of every operation, and it is the only place that cost is
/// summed: an attached trace::Sink observes each charge's delta.

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "model/access_function.hpp"
#include "model/cost_table.hpp"
#include "model/types.hpp"
#include "trace/sink.hpp"
#include "util/contracts.hpp"

namespace dbsp::bt {

using model::AccessFunction;
using model::Addr;
using model::Word;

/// Cost accumulator for one context execution in COMPUTE — the BT
/// counterpart of hmm::ShardAccount (see there for why the fold unit
/// matters). cost and word_access fold independently, the same
/// decomposition Machine::read_range documents.
struct ShardAccount {
    double cost = 0.0;
    double word_access = 0.0;
    double unit_ops = 0.0;

    void clear() { *this = ShardAccount{}; }

    /// Mirror of Machine::charge into the account.
    void charge(double c) {
        DBSP_REQUIRE(c >= 0.0);
        cost += c;
        unit_ops += c;
    }
};

class Machine {
public:
    Machine(AccessFunction f, std::uint64_t capacity);

    /// Publish the accumulated range/transfer telemetry to the global
    /// metrics registry in one batch and zero the local accumulators
    /// (plain-member accumulation on the hot paths; see the note in
    /// machine.cpp). Safe to call repeatedly — a long-lived process
    /// (dbsp_serve) flushes after each request without double-counting at
    /// destruction.
    void publish_metrics();

    /// Publishes any telemetry not yet flushed via publish_metrics().
    ~Machine();

    /// --- charged word accesses (HMM-style) ---------------------------------
    /// Defined below, in this header: the staged streams issue one per word.
    Word read(Addr x);
    void write(Addr x, Word value);

    /// --- charged bulk accesses ---------------------------------------------
    /// Read [x, x + out.size()) into \p out; cost-equivalent (bit for bit,
    /// including the word-access decomposition) to a read() loop in ascending
    /// address order.
    void read_range(Addr x, std::span<Word> out);

    /// Write \p values onto [x, x + values.size()); cost-equivalent to a
    /// write() loop in ascending address order.
    void write_range(Addr x, std::span<const Word> values);

    /// --- block transfer ----------------------------------------------------
    /// Copy [src, src+len) onto the disjoint [dst, dst+len).
    /// Cost: max(f(src+len-1), f(dst+len-1)) + len, through charge_transfer.
    void block_copy(Addr src, Addr dst, std::uint64_t len);

    /// Charge \p c units of pure computation.
    void charge(double c);

    /// Charge exactly what block_copy(src, dst, len) would charge — cost
    /// decomposition, transfer telemetry, and the trace event — WITHOUT
    /// copying any data. The BT simulator's COMPUTE walk charges its
    /// movement schedule, a net identity on memory, through this while the
    /// contexts execute in place.
    void charge_transfer(Addr src, Addr dst, std::uint64_t len);

    /// Fold one account into the machine with a single add per accumulator.
    void merge_shard(const ShardAccount& account);

    /// --- accounting --------------------------------------------------------
    double cost() const { return cost_; }
    void reset_cost() {
        cost_ = 0.0;
        transfer_latency_ = transfer_volume_ = word_access_ = unit_ops_ = 0.0;
    }

    /// Attach (or detach, with nullptr) a charge-trace sink. Not owned; every
    /// charge site is guarded by one branch on this pointer.
    void set_trace(trace::Sink* sink) { trace_ = sink; }
    trace::Sink* trace() const { return trace_; }

    /// Number of block_copy operations issued (for diagnostics/tests).
    std::uint64_t block_transfers() const { return block_transfers_; }

    /// Cost decomposition (sums to cost()): the max(f(x), f(y)) latency part
    /// of block transfers, their per-cell part, charged single-word accesses,
    /// and explicit unit-op charges. Diagnostics for the E8 analysis.
    double transfer_latency_cost() const { return transfer_latency_; }
    double transfer_volume_cost() const { return transfer_volume_; }
    double word_access_cost() const { return word_access_; }
    double unit_op_cost() const { return unit_ops_; }

    std::uint64_t capacity() const { return table_->capacity(); }
    const model::CostTable& table() const { return *table_; }
    const AccessFunction& function() const { return table_->function(); }

    /// Uncharged raw access: loading inputs and reading results, and the
    /// simulators' in-place step execution, whose touch log COMPUTE prices.
    std::span<Word> raw() { return memory_; }
    std::span<const Word> raw() const { return memory_; }

private:
    /// Out-of-line cold tails for the per-word trace hook: the traced path
    /// finishes the operation in a tail call so the null-sink read()/write()
    /// stay leaf functions. This is the only per-word trace on a machine.
    [[gnu::cold]] [[gnu::noinline]] Word traced_read_tail(Addr x);
    [[gnu::cold]] [[gnu::noinline]] void traced_write_tail(Addr x, Word value);

    std::shared_ptr<const model::CostTable> table_;
    std::vector<Word> memory_;
    double cost_ = 0.0;
    double transfer_latency_ = 0.0;
    double transfer_volume_ = 0.0;
    double word_access_ = 0.0;
    double unit_ops_ = 0.0;
    std::uint64_t block_transfers_ = 0;
    trace::Sink* trace_ = nullptr;  ///< not owned; nullptr = tracing off
    std::uint64_t range_ops_ = 0;
    std::uint64_t range_words_ = 0;
    std::uint64_t transfer_words_ = 0;
    /// Block-transfer count per log2 size class (indexed by bit_width of
    /// len); mirrors report::Histogram's bucketing.
    std::array<std::uint64_t, 65> transfer_size_by_bucket_{};
};

inline Word Machine::read(Addr x) {
    DBSP_REQUIRE(x < capacity());
    const double delta = table_->cost(x);
    cost_ += delta;
    word_access_ += delta;
    if (trace_ != nullptr) [[unlikely]] return traced_read_tail(x);
    return memory_[x];
}

inline void Machine::write(Addr x, Word value) {
    DBSP_REQUIRE(x < capacity());
    const double delta = table_->cost(x);
    cost_ += delta;
    word_access_ += delta;
    if (trace_ != nullptr) [[unlikely]] { traced_write_tail(x, value); return; }
    memory_[x] = value;
}

}  // namespace dbsp::bt
