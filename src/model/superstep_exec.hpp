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

#include <algorithm>
#include <span>
#include <vector>

#include "model/context_layout.hpp"
#include "model/program.hpp"
#include "util/contracts.hpp"

namespace dbsp::model {

/// Result of running one processor's step callback.
struct StepOutcome {
    std::uint64_t ops = 0;     ///< local-computation operations performed
    std::size_t sent = 0;      ///< messages emitted
    bool read_inbox = false;   ///< the step read its inbox (which is now consumed)
};

/// Run program superstep \p s for processor \p p on its \p context in
/// place, then commit the outgoing count and apply the inbox-consumption rule
/// through the same StepContext. On return \p touches holds the index of
/// every context word the step touched, the count words included, in the
/// order it touched them; a charged executor prices the log with its
/// machine's per-word fold.
inline StepOutcome run_processor_step(Program& program, const ContextLayout& layout,
                                      const ClusterTree& tree, StepIndex s, ProcId p,
                                      std::span<Word> context, TouchLog& touches) {
    touches.clear();
    StepContext ctx(context, touches, layout, tree, s, program.label(s), p,
                    program.proc_id_base());
    program.step(s, p, ctx);
    ctx.set(layout.out_count_offset(), ctx.sent());
    if (ctx.read_inbox()) ctx.set(layout.in_count_offset(), 0);
    return StepOutcome{ctx.ops(), ctx.sent(), ctx.read_inbox()};
}

/// Context source over per-processor flat word vectors — the direct
/// machine's storage shape, shared by trace recording and the unit tests. Its
/// accessor moves words and charges nothing.
///
/// A context source is what deliver_messages runs on: `at(p)` returns an
/// accessor for processor p's context, valid until the next at() call, with
/// get/set/get_range/set_range on context word indices; `group_end()` closes
/// one delivery group (see kDeliveryGroupProcs).
class VectorAccessorSource {
public:
    class Accessor {
    public:
        Word get(std::size_t i) const {
            DBSP_REQUIRE(i < words_.size());
            return words_[i];
        }
        void set(std::size_t i, Word value) {
            DBSP_REQUIRE(i < words_.size());
            words_[i] = value;
        }
        void get_range(std::size_t i, std::span<Word> out) const {
            DBSP_REQUIRE(i + out.size() <= words_.size());
            std::copy_n(words_.begin() + static_cast<std::ptrdiff_t>(i), out.size(),
                        out.begin());
        }
        void set_range(std::size_t i, std::span<const Word> values) {
            DBSP_REQUIRE(i + values.size() <= words_.size());
            std::copy_n(values.begin(), values.size(),
                        words_.begin() + static_cast<std::ptrdiff_t>(i));
        }

    private:
        friend class VectorAccessorSource;
        std::span<Word> words_;
    };

    VectorAccessorSource(std::vector<std::vector<Word>>& contexts, std::size_t mu)
        : contexts_(contexts), mu_(mu) {}

    Accessor& at(ProcId p) {
        acc_.words_ = std::span<Word>(contexts_[p].data(), mu_);
        return acc_;
    }
    void group_end() {}

private:
    std::vector<std::vector<Word>>& contexts_;
    std::size_t mu_;
    Accessor acc_;
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

/// Batch-granularity delivery telemetry: one registry update per
/// deliver_messages call, independent of how many messages moved.
void note_delivery(std::size_t messages);

/// Deliver all pending outgoing messages of processors [first, first + count)
/// into their destination inboxes (destinations must lie in the same range for
/// a well-formed i-superstep; callers validate cluster membership at send
/// time). Processor ids here are tree-local; \p id_base (the program's
/// proc_id_base) is added to the stored message source so inboxes always
/// carry global ids. Returns the maximum number of messages received by any
/// processor. \p contexts is a context source for the local range (see
/// VectorAccessorSource); each executor instantiates this with its concrete
/// source, so a charged source's per-word accounting compiles inline.
/// \p scratch (optional) lets callers reuse buffers across supersteps.
///
/// Phase 1 walks the senders in ascending order, one kDeliveryGroupProcs
/// group at a time; phase 2 buckets the canonical (src, send-order) message
/// sequence by destination group (stable, so every inbox still receives its
/// messages in canonical order) and appends group by group. Each group ends
/// with contexts.group_end().
template <class Source>
std::size_t deliver_messages(const ContextLayout& layout, ProcId first, std::uint64_t count,
                             Source& contexts, ProcId id_base = 0,
                             DeliveryScratch* scratch = nullptr) {
    DeliveryScratch local;
    DeliveryScratch& sc = scratch ? *scratch : local;
    const ProcId end = first + count;
    const auto ngroups =
        static_cast<std::size_t>((count + kDeliveryGroupProcs - 1) / kDeliveryGroupProcs);

    // Phase 1: collect messages from the senders' outgoing buffers, in
    // ascending sender order, and reset the outgoing counts. The intermediate
    // vector is executor bookkeeping only; every word it carries has been
    // charged on read and will be charged again on write, exactly as if the
    // message moved directly between buffers.
    std::vector<Message>& pending = sc.pending;
    pending.clear();
    for (ProcId lo = first; lo < end; lo += kDeliveryGroupProcs) {
        const ProcId hi = std::min<ProcId>(end, lo + kDeliveryGroupProcs);
        for (ProcId p = lo; p < hi; ++p) {
            auto& acc = contexts.at(p);
            const auto sent = static_cast<std::size_t>(acc.get(layout.out_count_offset()));
            DBSP_ASSERT(sent <= layout.max_messages);
            // One range read covers the whole outgoing record block: the
            // records are contiguous, and the accessor's range fold charges
            // the same ascending cells, bit for bit, as a get() per word.
            sc.words.resize(ContextLayout::kRecordWords * sent);
            acc.get_range(layout.out_record_offset(0), sc.words);
            for (std::size_t k = 0; k < sent; ++k) {
                const Word* rec = sc.words.data() + ContextLayout::kRecordWords * k;
                Message m;
                m.src = id_base + p;  // inboxes carry global source ids
                m.dest = rec[0];
                m.payload0 = rec[1];
                m.payload1 = rec[2];
                DBSP_ASSERT(m.dest >= first && m.dest < end);
                pending.push_back(m);
            }
            if (sent > 0) {
                acc.set(layout.out_count_offset(), 0);
            }
        }
        contexts.group_end();
    }
    note_delivery(pending.size());

    // Phase 2: append to destination inboxes, one destination group at a
    // time. `pending` is sorted by (src, send order) and the bucketing is
    // stable, so every inbox receives the canonical ordering that the
    // sort-based BT delivery reproduces with tag keys.
    if (sc.by_group.size() < ngroups) sc.by_group.resize(ngroups);
    for (std::size_t g = 0; g < ngroups; ++g) sc.by_group[g].clear();
    for (const Message& m : pending) {
        sc.by_group[(m.dest - first) / kDeliveryGroupProcs].push_back(m);
    }
    std::size_t max_received = 0;
    sc.received.assign(count, 0);
    for (std::size_t g = 0; g < ngroups; ++g) {
        for (const Message& m : sc.by_group[g]) {
            auto& acc = contexts.at(m.dest);
            auto in_count = static_cast<std::size_t>(acc.get(layout.in_count_offset()));
            DBSP_REQUIRE(in_count < layout.max_messages);
            const std::size_t off = layout.in_record_offset(in_count);
            const Word rec[ContextLayout::kRecordWords] = {m.src, m.payload0, m.payload1};
            acc.set_range(off, rec);
            acc.set(layout.in_count_offset(), in_count + 1);
            max_received = std::max(max_received, ++sc.received[m.dest - first]);
        }
        contexts.group_end();
    }
    return max_received;
}

}  // namespace dbsp::model
