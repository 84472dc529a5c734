#include "model/dbsp_machine.hpp"

#include <algorithm>

#include "model/superstep_exec.hpp"
#include "util/contracts.hpp"

namespace dbsp::model {

std::vector<Word> DbspResult::data_of(ProcId p) const {
    DBSP_REQUIRE(p < contexts.size());
    const auto& ctx = contexts[p];
    return std::vector<Word>(ctx.begin(), ctx.begin() + static_cast<std::ptrdiff_t>(data_words));
}

double DbspResult::communication_time() const {
    double t = 0;
    for (const auto& s : supersteps) t += s.cost - static_cast<double>(std::max<std::uint64_t>(s.tau, 1));
    return t;
}

double DbspResult::computation_time() const {
    double t = 0;
    for (const auto& s : supersteps) t += static_cast<double>(std::max<std::uint64_t>(s.tau, 1));
    return t;
}

std::vector<std::vector<Word>> DbspMachine::initial_contexts(const Program& program) {
    const std::uint64_t v = program.num_processors();
    DBSP_REQUIRE(is_pow2(v));
    const std::size_t mu = program.context_words();
    std::vector<std::vector<Word>> contexts(v);
    for (ProcId p = 0; p < v; ++p) {
        contexts[p].assign(mu, 0);
        program.init(p, std::span<Word>(contexts[p].data(), program.data_words()));
    }
    return contexts;
}

DbspResult DbspMachine::run(Program& program) const {
    const std::uint64_t v = program.num_processors();
    const ClusterTree tree(v);
    const ContextLayout layout = program.layout();
    const std::size_t mu = layout.context_words();
    const StepIndex steps = program.num_supersteps();
    DBSP_REQUIRE(steps > 0);
    // The paper assumes every computation ends with a global synchronization.
    DBSP_REQUIRE(program.label(steps - 1) == 0);

    DbspResult result;
    result.data_words = program.data_words();
    result.contexts = initial_contexts(program);

    VectorAccessorSource contexts(result.contexts, mu);
    DeliveryScratch scratch;
    TouchLog touches;  // steps run on flat contexts and cost nothing per word

    for (StepIndex s = 0; s < steps; ++s) {
        const unsigned label = program.label(s);
        DBSP_REQUIRE(label <= tree.log_processors());

        SuperstepStats stats;
        stats.label = label;

        std::size_t max_sent = 0;
        for (ProcId p = 0; p < v; ++p) {
            const StepOutcome out =
                run_processor_step(program, layout, tree, s, p, result.contexts[p], touches);
            stats.tau = std::max(stats.tau, out.ops);
            max_sent = std::max(max_sent, out.sent);
        }

        // Barrier + message exchange: messages become visible at the start of
        // superstep s+1.
        const std::size_t max_received =
            deliver_messages(layout, 0, v, contexts, program.proc_id_base(), &scratch);

        stats.h = std::max(max_sent, max_received);
        stats.comm_arg = static_cast<double>(mu) * static_cast<double>(tree.cluster_size(label));
        stats.cost = static_cast<double>(std::max<std::uint64_t>(stats.tau, 1)) +
                     static_cast<double>(stats.h) * g_.at(stats.comm_arg);
        result.time += stats.cost;
        if (trace_ != nullptr) {
            trace_->messages(scratch.pending.size());
            trace_->superstep(label, stats.tau, stats.h, stats.comm_arg, stats.cost);
        }
        result.supersteps.push_back(stats);
    }
    return result;
}

}  // namespace dbsp::model
