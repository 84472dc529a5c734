#pragma once

/// \file hmm_shard.hpp
/// Step execution and message delivery over hmm::Machine memory that fold
/// their charges into an hmm::ShardAccount, shared by the HMM simulators.
///
/// Each step execution, and each delivery group, is folded from zero into a
/// ShardAccount and then added to the machine once (Machine::merge_shard).
/// That grouping of the floating-point additions is what the charged cost
/// bits are defined by. An attached sink sees every charge as it happens,
/// with the delta the account folds; it sums nothing itself.
///
/// Folding loops. A fold unit's running total lives in a local that the
/// compiler keeps in a register: the step runner folds a touch log into a
/// local double, and each delivery group's accessor is a local of the
/// group's loop that holds its account by value. A loop may
/// carry a fold's total in a local, but must write it back (merge it) before
/// any out-of-line charge, and must not call out of line while the total is
/// live: a total live across a call is kept on the stack for the whole loop.
///
/// Step execution decouples charging from data placement: charges use the
/// *virtual* base address (where the paper's schedule would have placed the
/// context, block 0) while the step runs at the *physical* base (where the
/// context actually sits). The schedule's swap-to-top/run/swap-back is a net
/// identity on memory, so a simulation round executes each context in place
/// and charges the moves without performing them (Machine::charge_swap_blocks).
/// Delivery charges where the data sits.
///
/// Traced or untraced is a template parameter: a simulator instantiates its
/// round loop once per mode, so the untraced loop carries no sink test.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hmm/machine.hpp"
#include "model/superstep_exec.hpp"
#include "trace/sink.hpp"
#include "util/contracts.hpp"

namespace dbsp::core {

/// Runs processors' steps in place on hmm::Machine memory. A step reads and
/// writes its context as a plain span; afterwards model::price_step prices
/// its touch log in log order into the caller's account — f(vbase + i) per
/// entry, the fold HmmShardAccessor::get/set apply — followed by the unit-op
/// charge. When Traced, the sink sees the whole log as one access_log event
/// and then the op charge. Nothing else can charge or emit an event while a
/// step runs, so the log's entries are in the order the step touched its
/// words.
template <bool Traced>
class HmmStepRunner {
public:
    HmmStepRunner(hmm::Machine& m, model::Program& program, const model::ClusterTree& tree)
        : m_(m), program_(program), tree_(tree), layout_(program.layout()),
          mu_(layout_.context_words()), sink_(Traced ? m.trace() : nullptr) {
        DBSP_REQUIRE(!Traced || sink_ != nullptr);
        touches_.reserve(2 * mu_);
    }

    /// Run superstep \p s of processor \p p, whose context sits at \p pbase,
    /// charging it as if it sat at \p vbase.
    model::StepOutcome run(hmm::ShardAccount& account, model::StepIndex s, model::ProcId p,
                           model::Addr vbase, model::Addr pbase) {
        // Both images of the context lie in memory, so with i < mu every
        // priced address and every word the step touches does too.
        DBSP_REQUIRE(vbase + mu_ <= m_.capacity() && pbase + mu_ <= m_.capacity());
        const model::StepOutcome out = model::run_processor_step(
            program_, layout_, tree_, s, p, m_.raw().subspan(pbase, mu_), touches_);
        account.cost = model::price_step<Traced>(account.cost, m_.table(), sink_, touches_,
                                                 vbase, mu_, out.ops);
        account.words_touched += touches_.size();
        return out;
    }

private:
    hmm::Machine& m_;
    model::Program& program_;
    const model::ClusterTree& tree_;
    const model::ContextLayout layout_;
    const std::size_t mu_;
    trace::Sink* const sink_;  ///< non-null iff Traced
    model::TouchLog touches_;  ///< reused by every step of the run
};

/// The accessor of one delivery group (model::deliver_messages): a local of
/// the group's loop, opened by HmmShardSource::open_group. It charges into
/// its own ShardAccount (and, when Traced, sends each charge to the machine's
/// sink) instead of the machine, mirroring hmm::Machine's read/write/
/// read_range/write_range accounting bit for bit; a range notes its bulk op
/// on the machine itself. merge() adds the account to the machine once. It
/// holds the account by value, so the group's fold stays in a register, and
/// the cost table's prefix pointer and capacity, so a range folds
/// (model::accumulate_cells) without reloading them from the table.
/// Processor p's context sits at block_of_proc[p] * mu (block p when
/// \p block_of_proc is nullptr).
template <bool Traced>
class HmmShardAccessor {
public:
    HmmShardAccessor(hmm::Machine& m, std::size_t mu,
                     const std::vector<std::uint64_t>* block_of_proc = nullptr)
        : m_(&m), prefix_(m.table().prefix().data()), memory_(m.raw().data()),
          capacity_(m.capacity()), mu_(mu), block_of_proc_(block_of_proc),
          sink_(Traced ? m.trace() : nullptr) {
        DBSP_REQUIRE(!Traced || sink_ != nullptr);
    }

    /// Aim the accessor at processor \p p's context.
    void select(model::ProcId p) {
        base_ = (block_of_proc_ != nullptr ? (*block_of_proc_)[p] : p) * mu_;
    }

    model::Word get(std::size_t index) {
        const model::Addr x = addr(index, 1);
        fold_word(x);
        return memory_[x];
    }

    void set(std::size_t index, model::Word value) {
        const model::Addr x = addr(index, 1);
        fold_word(x);
        memory_[x] = value;
    }

    void get_range(std::size_t index, std::span<model::Word> out) {
        if (out.empty()) return;
        const model::Addr x = addr(index, out.size());
        fold_range(x, out.size());
        std::copy_n(memory_ + x, out.size(), out.begin());
    }

    void set_range(std::size_t index, std::span<const model::Word> values) {
        if (values.empty()) return;
        const model::Addr x = addr(index, values.size());
        fold_range(x, values.size());
        std::copy_n(values.begin(), values.size(), memory_ + x);
    }

    /// Add the group's account to the machine, once, and start over from
    /// zero.
    void merge() {
        m_->merge_shard(account_);
        account_.clear();
    }

private:
    /// The address of context word \p index, checking that the \p n words
    /// from there lie in the context and in memory.
    model::Addr addr(std::size_t index, std::size_t n) const {
        DBSP_REQUIRE(index + n <= mu_);
        const model::Addr x = base_ + index;
        DBSP_REQUIRE(x + n <= capacity_);
        return x;
    }

    /// One word's charge f(x), CostTable::cost from the cached prefix.
    void fold_word(model::Addr x) {
        const double delta = prefix_[x + 1] - prefix_[x];
        account_.cost += delta;
        ++account_.words_touched;
        if constexpr (Traced) sink_->access(x, delta);
    }

    void fold_range(model::Addr x, std::size_t n) {
        account_.cost = model::accumulate_cells(prefix_, x, x + n, account_.cost);
        account_.words_touched += n;
        m_->note_bulk(x + n - 1, n);
        if constexpr (Traced) sink_->access_range(m_->table().prefix(), x, x + n);
    }

    hmm::Machine* m_;
    const double* prefix_;  ///< the cost table's prefix sums
    model::Word* memory_;   ///< the machine's memory
    model::Addr capacity_;
    std::size_t mu_;
    const std::vector<std::uint64_t>* block_of_proc_;  ///< nullptr = identity
    trace::Sink* sink_;  ///< non-null iff Traced
    model::Addr base_ = 0;
    hmm::ShardAccount account_;
};

/// Context source over HMM memory for model::deliver_messages: it opens each
/// delivery group's accessor and merges it into the machine at group_end.
template <bool Traced>
class HmmShardSource {
public:
    HmmShardSource(hmm::Machine& m, std::size_t mu,
                   const std::vector<std::uint64_t>* block_of_proc)
        : m_(m), mu_(mu), block_of_proc_(block_of_proc) {}

    HmmShardAccessor<Traced> open_group() const {
        return HmmShardAccessor<Traced>(m_, mu_, block_of_proc_);
    }

    void group_end(HmmShardAccessor<Traced>& group) const { group.merge(); }

private:
    hmm::Machine& m_;
    std::size_t mu_;
    const std::vector<std::uint64_t>* block_of_proc_;  ///< nullptr = identity
};

}  // namespace dbsp::core
