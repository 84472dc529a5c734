#pragma once

/// \file machine.hpp
/// The f(x)-HMM of Aggarwal, Alpern, Chandra and Snir [AACS87], Section 2 of
/// the paper: a random access machine over words where touching address x
/// costs f(x) for a nondecreasing (2,c)-uniform f. The machine both stores
/// real data and meters the exact model cost of every operation, so an
/// algorithm implemented against this interface is simultaneously executed
/// and priced.
///
/// Cost conventions (constant factors are irrelevant to every claim we
/// reproduce, but we fix them for determinism):
///  * read/write of address x: f(x);
///  * an n-ary operation on cells x1..xn: 1 + sum f(xi) — expressed by the
///    caller as the accesses plus charge(1);
///  * bulk helpers (swap_blocks, copy_block, charge_swap_blocks) charge the
///    exact per-cell sum of f over every range they touch, once per touch;
///  * read_range/write_range charge the identical per-cell sum as a
///    read()/write() loop, accumulated in the same ascending order — the
///    charged total is bit-for-bit the per-word path's — while moving the
///    data with one memcpy-able loop.
///
/// The machine (with the ShardAccounts merged into it) is the only place its
/// cost is summed; an attached trace::Sink only observes each charge's delta.
///
/// The cost table is obtained from the process-wide CostTableCache, so a
/// sweep constructing many machines over the same access function builds the
/// O(capacity) prefix array once.

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "model/access_function.hpp"
#include "model/cost_table.hpp"
#include "model/types.hpp"
#include "trace/sink.hpp"
#include "util/contracts.hpp"

namespace dbsp::hmm {

using model::AccessFunction;
using model::Addr;
using model::Word;

/// Cost accumulator for one fold unit of a simulation round — one context's
/// step execution, or one delivery group. The unit's charges fold here from
/// zero with exactly the machine's accumulation procedure, and
/// Machine::merge_shard then adds the account to the machine once. That
/// grouping of the floating-point additions is part of the charging
/// structure: the charged cost bits depend on it. Bulk telemetry is integer
/// counts, which commute, so it goes straight to the machine (note_bulk).
struct ShardAccount {
    double cost = 0.0;
    std::uint64_t words_touched = 0;

    void clear() { *this = ShardAccount{}; }
};

class Machine {
public:
    /// A machine with \p capacity words of memory, all zero-initialized.
    Machine(AccessFunction f, std::uint64_t capacity);

    /// --- charged word accesses ---------------------------------------------
    /// read()/write() carry no trace hook: even a never-taken branch on the
    /// sink pointer measurably slows the untraced harness (bench_micro). No
    /// simulator issues them on a machine with a sink attached: the HMM
    /// simulators' word traffic goes through the step runner and delivery
    /// accessor (core/hmm_shard.hpp), which charge a shard account and, when
    /// traced, emit the events themselves.
    Word read(Addr x);
    void write(Addr x, Word value);

    /// --- charged bulk accesses ---------------------------------------------
    /// Read [x, x + out.size()) into \p out; cost-equivalent (bit for bit) to
    /// a read() loop in ascending address order.
    void read_range(Addr x, std::span<Word> out);

    /// Write \p values onto [x, x + values.size()); cost-equivalent to a
    /// write() loop in ascending address order.
    void write_range(Addr x, std::span<const Word> values);

    /// --- charged bulk operations -------------------------------------------
    /// Swap the disjoint word ranges [a, a+len) and [b, b+len). Each cell is
    /// read and written once: charges 2 * (sum f over both ranges), through
    /// charge_swap_blocks.
    void swap_blocks(Addr a, Addr b, std::uint64_t len);

    /// Copy [src, src+len) onto [dst, dst+len) (ranges may not overlap).
    /// Charges sum f over source (reads) plus sum f over destination (writes).
    void copy_block(Addr src, Addr dst, std::uint64_t len);

    /// Charge \p c units of pure computation (unit-cost operations).
    void charge(double c);

    /// Charge exactly what swap_blocks(a, b, len) would charge — cost, word
    /// touches, bulk telemetry, and the trace block_op event — WITHOUT
    /// moving any data. Used by the HMM simulator: a pair of swap-in/swap-out
    /// moves nets to the identity on memory, so the rounds execute contexts
    /// in place and account the paper's movement cost here.
    void charge_swap_blocks(Addr a, Addr b, std::uint64_t len);

    /// Fold one account into the machine: the cost fold is the single
    /// `cost_ += account.cost`.
    void merge_shard(const ShardAccount& account);

    /// Telemetry accumulator for one bulk operation touching \p words words
    /// whose deepest (highest) address is \p deepest — the level that
    /// dominates the op's HMM cost. Three plain adds, no atomics. The
    /// machine's own bulk operations call it, and so do the delivery
    /// accessor's ranges (core/hmm_shard.hpp), which charge an account.
    void note_bulk(Addr deepest, std::uint64_t words);

    /// --- accounting --------------------------------------------------------
    double cost() const { return cost_; }
    void reset_cost() {
        cost_ = 0.0;
        words_touched_ = 0;
    }

    /// Attach (or detach, with nullptr) a charge-trace sink. The machine does
    /// not own the sink. Bulk operations guard their (per-op, amortized) trace
    /// hook with one branch on this pointer; read()/write() have none.
    void set_trace(trace::Sink* sink) { trace_ = sink; }
    trace::Sink* trace() const { return trace_; }

    /// Number of charged word touches (reads + writes, including every cell
    /// of the bulk operations). Host-throughput metric for bench_micro.
    std::uint64_t words_touched() const { return words_touched_; }

    std::uint64_t capacity() const { return table_->capacity(); }
    const model::CostTable& table() const { return *table_; }
    const AccessFunction& function() const { return table_->function(); }

    /// Uncharged raw access: loading inputs and reading results, and the
    /// simulators' in-place step execution, whose touch log the step runner
    /// prices (core/hmm_shard.hpp).
    std::span<Word> raw() { return memory_; }
    std::span<const Word> raw() const { return memory_; }

    /// Publish the accumulated word-touch/bulk-op telemetry to the global
    /// metrics registry and zero the local accumulators. Idempotent between
    /// accesses: a second call with nothing new accumulated publishes
    /// nothing, so a long-lived process (dbsp_serve) can flush after every
    /// request — making snapshots equal the sum of per-request counts — and
    /// a reused machine never double-counts at destruction. Accumulation
    /// uses plain per-machine members (see note_bulk in machine.cpp):
    /// per-op atomics would cost tens of percent on the bulk delivery path,
    /// whose ranges are often single message records.
    void publish_metrics();

    /// Publishes any telemetry not yet flushed via publish_metrics().
    ~Machine();

private:
    std::shared_ptr<const model::CostTable> table_;
    std::vector<Word> memory_;
    double cost_ = 0.0;
    std::uint64_t words_touched_ = 0;
    trace::Sink* trace_ = nullptr;  ///< not owned; nullptr = tracing off
    std::uint64_t bulk_ops_ = 0;
    std::uint64_t bulk_words_ = 0;
    /// Words per log2 memory level (indexed by bit_width of the deepest
    /// address touched); mirrors report::Histogram's bucketing.
    std::array<std::uint64_t, 65> bulk_words_by_level_{};
};

}  // namespace dbsp::hmm
