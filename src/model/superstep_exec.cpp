#include "model/superstep_exec.hpp"

#include "report/metrics.hpp"

namespace dbsp::model {

void note_delivery(std::size_t messages) {
    static auto& metric_delivered = report::metric_counter("model.messages_delivered");
    static auto& metric_batch = report::metric_histogram("model.delivery_batch");
    metric_delivered.add(messages);
    metric_batch.observe(messages);
}

}  // namespace dbsp::model
