#include "model/program.hpp"

#include "util/contracts.hpp"

namespace dbsp::model {

RelabeledProgram::RelabeledProgram(Program& base, std::vector<StepIndex> step_map,
                                   std::vector<unsigned> labels)
    : base_(base), step_map_(std::move(step_map)), labels_(std::move(labels)) {
    DBSP_REQUIRE(step_map_.size() == labels_.size());
    DBSP_REQUIRE(!labels_.empty());
    const unsigned log_v = ilog2(base_.num_processors());
    StepIndex expected_next = 0;
    for (StepIndex s = 0; s < step_map_.size(); ++s) {
        DBSP_REQUIRE(labels_[s] <= log_v);
        if (step_map_[s] != kDummy) {
            // Real supersteps must appear exactly once, in order.
            DBSP_REQUIRE(step_map_[s] == expected_next);
            ++expected_next;
        }
    }
    DBSP_REQUIRE(expected_next == base_.num_supersteps());
}

void RelabeledProgram::step(StepIndex s, ProcId p, StepContext& ctx) {
    if (step_map_[s] == kDummy) {
        return;  // Dummy supersteps perform no computation and send nothing.
    }
    base_.step(step_map_[s], p, ctx);
}

}  // namespace dbsp::model
