#pragma once

/// \file hmm_shard.hpp
/// Context accessors over hmm::Machine memory that fold their charges into
/// an hmm::ShardAccount, shared by the HMM simulators' step execution and
/// message delivery.
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

#include <cstddef>
#include <vector>

#include "hmm/machine.hpp"
#include "model/superstep_exec.hpp"
#include "trace/sink.hpp"
#include "util/contracts.hpp"

namespace dbsp::core {

/// Context accessor charging into a shard account (and trace sink when
/// Traced) instead of the machine. Mirrors hmm::Machine's read/write/
/// read_range/write_range accounting bit for bit, at the virtual address.
template <bool Traced>
class HmmShardAccessor final : public model::ContextAccessor {
public:
    HmmShardAccessor(hmm::Machine& m, hmm::ShardAccount& account, trace::Sink* sink,
                     model::Addr vbase, model::Addr pbase, std::size_t mu)
        : m_(m), account_(account), sink_(sink), vbase_(vbase), pbase_(pbase),
          mu_(mu) {}

    model::Word get(std::size_t index) const override {
        DBSP_REQUIRE(index < mu_);
        const model::Addr vx = vbase_ + index;
        DBSP_REQUIRE(vx < m_.capacity() && pbase_ + index < m_.capacity());
        const double delta = m_.table().cost(vx);
        account_.cost += delta;
        ++account_.words_touched;
        if constexpr (Traced) sink_->access(vx, delta);
        return m_.raw()[pbase_ + index];
    }

    void set(std::size_t index, model::Word value) override {
        DBSP_REQUIRE(index < mu_);
        const model::Addr vx = vbase_ + index;
        DBSP_REQUIRE(vx < m_.capacity() && pbase_ + index < m_.capacity());
        const double delta = m_.table().cost(vx);
        account_.cost += delta;
        ++account_.words_touched;
        if constexpr (Traced) sink_->access(vx, delta);
        m_.raw()[pbase_ + index] = value;
    }

    void get_range(std::size_t index, std::span<model::Word> out) const override {
        DBSP_REQUIRE(index + out.size() <= mu_);
        if (out.empty()) return;
        const model::Addr vx = vbase_ + index;
        DBSP_REQUIRE(vx + out.size() <= m_.capacity() &&
                     pbase_ + index + out.size() <= m_.capacity());
        account_.cost = m_.table().accumulate(vx, vx + out.size(), account_.cost);
        account_.words_touched += out.size();
        if constexpr (Traced) sink_->access_range(m_.table().prefix(), vx, vx + out.size());
        account_.note_bulk(vx + out.size() - 1, out.size());
        const auto raw = m_.raw();
        std::copy_n(raw.begin() + static_cast<std::ptrdiff_t>(pbase_ + index), out.size(),
                    out.begin());
    }

    void set_range(std::size_t index, std::span<const model::Word> values) override {
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
        account_.note_bulk(vx + values.size() - 1, values.size());
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

/// Accessor source over HMM memory for the delivery protocol. Processor p's
/// context lives at block_of_proc[p] * mu (or identity blocks when
/// \p block_of_proc is nullptr — the pinned naive layout); delivery traffic
/// charges at the physical address, so vbase == pbase here. Each delivery
/// group folds into one account and is added to the machine at group_end.
template <bool Traced>
class HmmShardSource final : public model::AccessorSource {
public:
    HmmShardSource(hmm::Machine& m, std::size_t mu,
                   const std::vector<std::uint64_t>* block_of_proc)
        : m_(m), mu_(mu), block_of_proc_(block_of_proc),
          acc_(m, account_, Traced ? m.trace() : nullptr, 0, 0, mu) {}

    model::ContextAccessor& at(model::ProcId p) override {
        const model::Addr base =
            (block_of_proc_ != nullptr ? (*block_of_proc_)[p] : p) * mu_;
        acc_.rebind(base, base);
        return acc_;
    }

    void group_end() override {
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
