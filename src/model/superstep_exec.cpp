#include "model/superstep_exec.hpp"

#include <atomic>

#include "report/metrics.hpp"

namespace dbsp::model {

namespace {

std::atomic<bool> g_bulk_access{true};

}  // namespace

bool bulk_access_enabled() { return g_bulk_access.load(std::memory_order_relaxed); }

void set_bulk_access_enabled(bool enabled) {
    g_bulk_access.store(enabled, std::memory_order_relaxed);
}

void note_delivery(std::size_t messages) {
    static auto& metric_delivered = report::metric_counter("model.messages_delivered");
    static auto& metric_batch = report::metric_histogram("model.delivery_batch");
    metric_delivered.add(messages);
    metric_batch.observe(messages);
}

}  // namespace dbsp::model
