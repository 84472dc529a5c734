#include "model/superstep_exec.hpp"

#include <algorithm>
#include <atomic>

#include "report/metrics.hpp"
#include "util/contracts.hpp"

namespace dbsp::model {

namespace {

std::atomic<bool> g_bulk_access{true};

}  // namespace

bool bulk_access_enabled() { return g_bulk_access.load(std::memory_order_relaxed); }

void set_bulk_access_enabled(bool enabled) {
    g_bulk_access.store(enabled, std::memory_order_relaxed);
}

std::size_t deliver_messages(const ContextLayout& layout, ProcId first, std::uint64_t count,
                             AccessorSource& contexts, ProcId id_base,
                             DeliveryScratch* scratch) {
    DeliveryScratch local;
    DeliveryScratch& sc = scratch ? *scratch : local;
    const bool bulk = bulk_access_enabled();
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
            ContextAccessor& acc = contexts.at(p);
            const auto sent = static_cast<std::size_t>(acc.get(layout.out_count_offset()));
            DBSP_ASSERT(sent <= layout.max_messages);
            if (bulk) {
                // One range read covers the whole outgoing record block: the
                // records are contiguous, and the fused per-cell charge loop
                // walks the same ascending addresses as the per-word path.
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
            } else {
                for (std::size_t k = 0; k < sent; ++k) {
                    const std::size_t off = layout.out_record_offset(k);
                    Message m;
                    m.src = id_base + p;
                    m.dest = acc.get(off);
                    m.payload0 = acc.get(off + 1);
                    m.payload1 = acc.get(off + 2);
                    DBSP_ASSERT(m.dest >= first && m.dest < end);
                    pending.push_back(m);
                }
            }
            if (sent > 0) {
                acc.set(layout.out_count_offset(), 0);
            }
        }
        contexts.group_end();
    }

    // Batch-granularity telemetry: one update per delivery call, independent
    // of how many messages moved.
    static auto& metric_delivered = report::metric_counter("model.messages_delivered");
    static auto& metric_batch = report::metric_histogram("model.delivery_batch");
    metric_delivered.add(pending.size());
    metric_batch.observe(pending.size());

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
            ContextAccessor& acc = contexts.at(m.dest);
            auto in_count = static_cast<std::size_t>(acc.get(layout.in_count_offset()));
            DBSP_REQUIRE(in_count < layout.max_messages);
            const std::size_t off = layout.in_record_offset(in_count);
            if (bulk) {
                const Word rec[ContextLayout::kRecordWords] = {m.src, m.payload0, m.payload1};
                acc.set_range(off, rec);
            } else {
                acc.set(off, m.src);
                acc.set(off + 1, m.payload0);
                acc.set(off + 2, m.payload1);
            }
            acc.set(layout.in_count_offset(), in_count + 1);
            max_received = std::max(max_received, ++sc.received[m.dest - first]);
        }
        contexts.group_end();
    }
    return max_received;
}

}  // namespace dbsp::model
