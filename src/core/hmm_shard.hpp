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
/// Charging and data placement are decoupled: charges use the *virtual*
/// base address (where the paper's schedule would have placed the context,
/// e.g. block 0 for step execution) while the data moves at the *physical*
/// base (where the context actually sits). The schedule's swap-to-top/run/
/// swap-back is a net identity on memory, so a simulation round executes
/// each context in place and charges the moves without performing them
/// (Machine::charge_swap_blocks).
///
/// Traced or untraced is a template parameter: a simulator instantiates its
/// round loop once per mode, so the untraced loop carries no sink test.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "hmm/machine.hpp"
#include "model/superstep_exec.hpp"
#include "trace/sink.hpp"
#include "util/contracts.hpp"

namespace dbsp::core {

/// Runs processors' steps in place on hmm::Machine memory. A step reads and
/// writes its context as a plain span; afterwards its touch log is priced in
/// log order into the caller's account — f(vbase + i) per entry, the fold
/// HmmShardAccessor::get/set apply — followed by the unit-op charge. When
/// Traced, the sink sees the whole log as one access_log event and then the
/// op charge. Nothing else can charge or emit an event while a step runs,
/// so the log's entries are in the order the step touched its words.
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
        const model::CostTable& table = m_.table();
        for (const std::uint32_t i : touches_) {
            DBSP_REQUIRE(i < mu_);
            account.cost += table.cost(vbase + i);
        }
        account.words_touched += touches_.size();
        const auto ops = static_cast<double>(out.ops);
        if constexpr (Traced) {
            sink_->access_log(table.prefix(), vbase, touches_);
            sink_->charge(ops);
        }
        account.cost += ops;  // unit op costs
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

/// Delivery accessor charging into a shard account (and trace sink when
/// Traced) instead of the machine. Mirrors hmm::Machine's read/write/
/// read_range/write_range accounting bit for bit, at the virtual address;
/// a range notes its bulk op on the machine itself.
template <bool Traced>
class HmmShardAccessor {
public:
    HmmShardAccessor(hmm::Machine& m, hmm::ShardAccount& account, trace::Sink* sink,
                     model::Addr vbase, model::Addr pbase, std::size_t mu)
        : m_(m), account_(account), sink_(sink), vbase_(vbase), pbase_(pbase),
          mu_(mu) {}

    model::Word get(std::size_t index) const {
        DBSP_REQUIRE(index < mu_);
        const model::Addr vx = vbase_ + index;
        DBSP_REQUIRE(vx < m_.capacity() && pbase_ + index < m_.capacity());
        const double delta = m_.table().cost(vx);
        account_.cost += delta;
        ++account_.words_touched;
        if constexpr (Traced) sink_->access(vx, delta);
        return m_.raw()[pbase_ + index];
    }

    void set(std::size_t index, model::Word value) {
        DBSP_REQUIRE(index < mu_);
        const model::Addr vx = vbase_ + index;
        DBSP_REQUIRE(vx < m_.capacity() && pbase_ + index < m_.capacity());
        const double delta = m_.table().cost(vx);
        account_.cost += delta;
        ++account_.words_touched;
        if constexpr (Traced) sink_->access(vx, delta);
        m_.raw()[pbase_ + index] = value;
    }

    void get_range(std::size_t index, std::span<model::Word> out) const {
        DBSP_REQUIRE(index + out.size() <= mu_);
        if (out.empty()) return;
        const model::Addr vx = vbase_ + index;
        DBSP_REQUIRE(vx + out.size() <= m_.capacity() &&
                     pbase_ + index + out.size() <= m_.capacity());
        account_.cost = m_.table().accumulate(vx, vx + out.size(), account_.cost);
        account_.words_touched += out.size();
        if constexpr (Traced) sink_->access_range(m_.table().prefix(), vx, vx + out.size());
        m_.note_bulk(vx + out.size() - 1, out.size());
        const auto raw = m_.raw();
        std::copy_n(raw.begin() + static_cast<std::ptrdiff_t>(pbase_ + index), out.size(),
                    out.begin());
    }

    void set_range(std::size_t index, std::span<const model::Word> values) {
        DBSP_REQUIRE(index + values.size() <= mu_);
        if (values.empty()) return;
        const model::Addr vx = vbase_ + index;
        DBSP_REQUIRE(vx + values.size() <= m_.capacity() &&
                     pbase_ + index + values.size() <= m_.capacity());
        account_.cost = m_.table().accumulate(vx, vx + values.size(), account_.cost);
        account_.words_touched += values.size();
        if constexpr (Traced) {
            sink_->access_range(m_.table().prefix(), vx, vx + values.size());
        }
        m_.note_bulk(vx + values.size() - 1, values.size());
        const auto raw = m_.raw();
        std::copy_n(values.begin(), values.size(),
                    raw.begin() + static_cast<std::ptrdiff_t>(pbase_ + index));
    }

    void rebind(model::Addr vbase, model::Addr pbase) {
        vbase_ = vbase;
        pbase_ = pbase;
    }

private:
    hmm::Machine& m_;
    hmm::ShardAccount& account_;
    trace::Sink* sink_;  ///< non-null iff Traced
    model::Addr vbase_;  ///< charged addresses
    model::Addr pbase_;  ///< data addresses
    std::size_t mu_;
};

/// Context source over HMM memory for model::deliver_messages. Processor p's
/// context lives at block_of_proc[p] * mu (or identity blocks when
/// \p block_of_proc is nullptr — the pinned naive layout); delivery traffic
/// charges at the physical address, so vbase == pbase here. Each delivery
/// group folds into one account and is added to the machine at group_end.
template <bool Traced>
class HmmShardSource {
public:
    HmmShardSource(hmm::Machine& m, std::size_t mu,
                   const std::vector<std::uint64_t>* block_of_proc)
        : m_(m), mu_(mu), block_of_proc_(block_of_proc),
          acc_(m, account_, Traced ? m.trace() : nullptr, 0, 0, mu) {}

    HmmShardAccessor<Traced>& at(model::ProcId p) {
        const model::Addr base =
            (block_of_proc_ != nullptr ? (*block_of_proc_)[p] : p) * mu_;
        acc_.rebind(base, base);
        return acc_;
    }

    void group_end() {
        m_.merge_shard(account_);
        account_.clear();
    }

private:
    hmm::Machine& m_;
    std::size_t mu_;
    const std::vector<std::uint64_t>* block_of_proc_;  ///< nullptr = identity
    hmm::ShardAccount account_;
    HmmShardAccessor<Traced> acc_;
};

}  // namespace dbsp::core
