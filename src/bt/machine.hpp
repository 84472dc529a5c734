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
///
/// Folding loops. A loop that charges word by word (the staged streams'
/// callers: the merge sort, the simulator's serialize/parse/rebuild passes)
/// may carry the machine's cost total in a local, so the compiler keeps it in
/// a register instead of loading and storing cost_ on every word: take it
/// with cost(), pass it to the read/write/charge overloads that take a
/// running total, and hand it back with set_cost() before any out-of-line
/// operation that charges the machine (block_copy, charge_transfer, a
/// stream's refill or spill), reloading it afterwards. The additions and
/// their order are the machine's own, so the charged bits do not move.

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
    /// The overloads with \p total add to a folding loop's running copy of
    /// the cost total (see the file comment); the others add to cost().
    Word read(Addr x, double& total);
    void write(Addr x, Word value, double& total);
    Word read(Addr x) { return read(x, cost_); }
    void write(Addr x, Word value) { write(x, value, cost_); }

    /// --- charged bulk accesses ---------------------------------------------
    /// Read [x, x + out.size()) into \p out; cost-equivalent (bit for bit) to
    /// a read() loop in ascending address order.
    void read_range(Addr x, std::span<Word> out);

    /// Write \p values onto [x, x + values.size()); cost-equivalent to a
    /// write() loop in ascending address order.
    void write_range(Addr x, std::span<const Word> values);

    /// --- block transfer ----------------------------------------------------
    /// Copy [src, src+len) onto the disjoint [dst, dst+len).
    /// Cost: max(f(src+len-1), f(dst+len-1)) + len, through charge_transfer.
    void block_copy(Addr src, Addr dst, std::uint64_t len);

    /// Charge \p c units of pure computation.
    void charge(double c, double& total);
    void charge(double c) { charge(c, cost_); }

    /// Charge exactly what block_copy(src, dst, len) would charge — cost,
    /// transfer volume and telemetry, and the trace event — WITHOUT
    /// copying any data. The BT simulator's COMPUTE walk charges its
    /// movement schedule, a net identity on memory, through this while the
    /// contexts execute in place.
    void charge_transfer(Addr src, Addr dst, std::uint64_t len);

    /// Fold one COMPUTE step's total, folded from zero by model::price_step,
    /// into the machine with the single add `cost_ += cost` (the fold unit
    /// matters for the same reason as hmm::ShardAccount's).
    void merge_shard(double cost) { cost_ += cost; }

    /// --- accounting --------------------------------------------------------
    double cost() const { return cost_; }
    void reset_cost() { cost_ = transfer_volume_ = 0.0; }

    /// Hand back a folding loop's running total, taken from cost() and
    /// advanced only by the total-taking overloads (see the file comment).
    void set_cost(double total) { cost_ = total; }

    /// Attach (or detach, with nullptr) a charge-trace sink. Not owned; every
    /// charge site is guarded by one branch on this pointer.
    void set_trace(trace::Sink* sink) { trace_ = sink; }
    trace::Sink* trace() const { return trace_; }

    /// Number of block_copy operations issued (for diagnostics/tests).
    std::uint64_t block_transfers() const { return block_transfers_; }

    /// The per-cell part of block transfers: the sum of their lengths, as
    /// charged (BtSimResult::transfer_volume).
    double transfer_volume_cost() const { return transfer_volume_; }

    std::uint64_t capacity() const { return table_->capacity(); }
    const model::CostTable& table() const { return *table_; }
    const AccessFunction& function() const { return table_->function(); }

    /// Uncharged raw access: loading inputs and reading results, and the
    /// simulators' in-place step execution, whose touch log COMPUTE prices.
    std::span<Word> raw() { return memory_; }
    std::span<const Word> raw() const { return memory_; }

private:
    /// Out-of-line cold hooks for the per-word trace: read()/write() emit
    /// the access event of \p x, charge() the charge event of \p c. This is
    /// the only per-word trace on a machine. A hook charges nothing and
    /// returns the caller's running \p total unchanged: passed through by
    /// value, the total is never live across the call, so a folding loop
    /// keeps it in a register on the untraced path.
    [[gnu::cold]] [[gnu::noinline]] double traced_access(Addr x, double total);
    [[gnu::cold]] [[gnu::noinline]] double traced_charge(double c, double total);

    std::shared_ptr<const model::CostTable> table_;
    std::vector<Word> memory_;
    double cost_ = 0.0;
    double transfer_volume_ = 0.0;
    std::uint64_t block_transfers_ = 0;
    trace::Sink* trace_ = nullptr;  ///< not owned; nullptr = tracing off
    std::uint64_t range_ops_ = 0;
    std::uint64_t range_words_ = 0;
    std::uint64_t transfer_words_ = 0;
    /// Block-transfer count per log2 size class (indexed by bit_width of
    /// len); mirrors report::Histogram's bucketing.
    std::array<std::uint64_t, 65> transfer_size_by_bucket_{};
};

inline Word Machine::read(Addr x, double& total) {
    DBSP_REQUIRE(x < capacity());
    total += table_->cost(x);
    if (trace_ != nullptr) [[unlikely]] total = traced_access(x, total);
    return memory_[x];
}

inline void Machine::write(Addr x, Word value, double& total) {
    DBSP_REQUIRE(x < capacity());
    total += table_->cost(x);
    if (trace_ != nullptr) [[unlikely]] total = traced_access(x, total);
    memory_[x] = value;
}

inline void Machine::charge(double c, double& total) {
    DBSP_REQUIRE(c >= 0.0);
    total += c;
    if (trace_ != nullptr) [[unlikely]] total = traced_charge(c, total);
}

}  // namespace dbsp::bt
