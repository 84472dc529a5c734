#pragma once

/// \file superstep_exec.hpp
/// Superstep execution helpers shared by every executor (the direct D-BSP
/// machine and the HMM/BT simulators). Centralizing the step-invocation and
/// message-delivery protocol here is what guarantees the executors agree
/// bit-for-bit on functional behaviour:
///
///  * a step that read its inbox has the inbox cleared afterwards; an unread
///    inbox persists (so L-smoothing dummy supersteps are transparent);
///  * after a step, the outgoing count word is committed;
///  * delivery walks senders in ascending processor order and appends to the
///    destination inboxes, then resets the sender's outgoing count, giving a
///    canonical (src, send-order) inbox ordering.

#include <vector>

#include "model/context_layout.hpp"
#include "model/program.hpp"

namespace dbsp::model {

/// Result of running one processor's step callback.
struct StepOutcome {
    std::uint64_t ops = 0;     ///< local-computation operations performed
    std::size_t sent = 0;      ///< messages emitted
};

/// Run program superstep \p s for processor \p p against \p acc, then commit
/// the outgoing count and apply the inbox-consumption rule.
inline StepOutcome run_processor_step(Program& program, const ContextLayout& layout,
                                      const ClusterTree& tree, StepIndex s, ProcId p,
                                      ContextAccessor& acc) {
    StepContext ctx(acc, layout, tree, s, program.label(s), p, program.proc_id_base());
    program.step(s, p, ctx);
    acc.set(layout.out_count_offset(), ctx.sent());
    if (ctx.read_inbox()) {
        acc.set(layout.in_count_offset(), 0);
    }
    return StepOutcome{ctx.ops(), ctx.sent()};
}

/// Accessor source: maps a processor id to an accessor for its context
/// storage. Replaces the former std::function-of-std::function AccessorFn —
/// one devirtualizable call per processor, no type-erasure allocations on the
/// delivery hot path. The returned reference stays valid until the next at()
/// call (sources typically rebind a single accessor object).
class AccessorSource {
public:
    virtual ~AccessorSource() = default;
    virtual ContextAccessor& at(ProcId p) = 0;

    /// Close one delivery group (see kDeliveryGroupProcs): a charged source
    /// folds the group's charges from zero and adds the subtotal to its
    /// machine once, here. No-op for uncharged sources.
    virtual void group_end() {}
};

/// AccessorSource over per-processor flat word vectors — the direct machine's
/// storage shape, shared by trace recording and the unit tests.
class VectorAccessorSource final : public AccessorSource {
public:
    VectorAccessorSource(std::vector<std::vector<Word>>& contexts, std::size_t mu)
        : contexts_(contexts), mu_(mu) {}
    ContextAccessor& at(ProcId p) override {
        acc_.rebind(contexts_[p].data(), mu_);
        return acc_;
    }

private:
    std::vector<std::vector<Word>>& contexts_;
    std::size_t mu_;
    FlatContextAccessor acc_{nullptr, 0};
};

/// Group width of the delivery protocol: senders (phase 1) and destination
/// inboxes (phase 2) are visited in runs of this many processors, and a
/// charged source folds each run's charges separately (closing each with
/// group_end). The grouping is part of the charging structure: the charged
/// cost bits depend on it.
inline constexpr std::uint64_t kDeliveryGroupProcs = 64;

/// Reusable scratch space for deliver_messages. Executors that deliver every
/// superstep keep one instance alive across the whole run so the message
/// vectors and the bulk-read staging buffer stop being reallocated per step.
struct DeliveryScratch {
    std::vector<Message> pending;
    std::vector<Word> words;
    std::vector<std::size_t> received;
    std::vector<std::vector<Message>> by_group;  ///< phase 2 destination buckets
};

/// Process-wide switch for the bulk (range) accessor fast path in
/// deliver_messages and the simulators' buffer scans. On by default; the
/// cross-check tests and the bench_micro baseline disable it to reproduce the
/// seed per-word code path (whose charged totals the fast path matches bit
/// for bit).
bool bulk_access_enabled();
void set_bulk_access_enabled(bool enabled);

/// RAII helper: force the bulk fast path on/off within a scope.
class ScopedBulkAccess {
public:
    explicit ScopedBulkAccess(bool enabled) : previous_(bulk_access_enabled()) {
        set_bulk_access_enabled(enabled);
    }
    ~ScopedBulkAccess() { set_bulk_access_enabled(previous_); }
    ScopedBulkAccess(const ScopedBulkAccess&) = delete;
    ScopedBulkAccess& operator=(const ScopedBulkAccess&) = delete;

private:
    bool previous_;
};

/// Deliver all pending outgoing messages of processors [first, first + count)
/// into their destination inboxes (destinations must lie in the same range for
/// a well-formed i-superstep; callers validate cluster membership at send
/// time). Processor ids here are tree-local; \p id_base (the program's
/// proc_id_base) is added to the stored message source so inboxes always
/// carry global ids. Returns the maximum number of messages received by any
/// processor. \p contexts provides context access for the local range;
/// \p scratch (optional) lets callers reuse buffers across supersteps.
///
/// Phase 1 walks the senders in ascending order, one kDeliveryGroupProcs
/// group at a time; phase 2 buckets the canonical (src, send-order) message
/// sequence by destination group (stable, so every inbox still receives its
/// messages in canonical order) and appends group by group. Each group ends
/// with contexts.group_end().
std::size_t deliver_messages(const ContextLayout& layout, ProcId first, std::uint64_t count,
                             AccessorSource& contexts, ProcId id_base = 0,
                             DeliveryScratch* scratch = nullptr);

}  // namespace dbsp::model
