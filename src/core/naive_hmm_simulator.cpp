#include "core/naive_hmm_simulator.hpp"

#include <algorithm>

#include "core/hmm_shard.hpp"
#include "model/superstep_exec.hpp"
#include "util/contracts.hpp"

namespace dbsp::core {

namespace {

using model::Addr;
using model::ProcId;

/// Every superstep on every processor, then delivery, instantiated once per
/// trace mode. Returns the number of supersteps run.
template <bool Traced>
std::uint64_t run_supersteps(hmm::Machine& machine, model::Program& program, std::size_t mu) {
    const std::uint64_t v = program.num_processors();
    const model::ClusterTree tree(v);
    const model::ContextLayout layout = program.layout();
    const model::StepIndex steps = program.num_supersteps();

    // Pinned layout: processor p lives at block p forever, so delivery and
    // step execution both charge at the physical address (vbase == pbase).
    HmmStepRunner<Traced> runner(machine, program, tree);
    HmmShardSource<Traced> contexts(machine, mu, nullptr);
    model::DeliveryScratch scratch;

    // The step loop folds the same fixed-width processor groups as delivery:
    // each group's charges accumulate from zero and reach the machine once.
    hmm::ShardAccount account;

    for (model::StepIndex s = 0; s < steps; ++s) {
        for (ProcId lo = 0; lo < v; lo += model::kDeliveryGroupProcs) {
            const ProcId hi = std::min<ProcId>(v, lo + model::kDeliveryGroupProcs);
            for (ProcId p = lo; p < hi; ++p) {
                const Addr base = p * mu;
                runner.run(account, s, p, base, base);
            }
            machine.merge_shard(account);
            account.clear();
        }
        model::deliver_messages(layout, 0, v, contexts, program.proc_id_base(), &scratch);
    }
    return steps;
}

}  // namespace

HmmSimResult NaiveHmmSimulator::simulate(model::Program& program) const {
    const std::uint64_t v = program.num_processors();
    const std::size_t mu = program.context_words();
    DBSP_REQUIRE(program.num_supersteps() > 0);

    hmm::Machine machine(f_, static_cast<std::uint64_t>(mu) * v);
    trace::Sink* const sink = options_.trace;
    machine.set_trace(sink);
    {
        const auto init = model::DbspMachine::initial_contexts(program);
        auto raw = machine.raw();
        for (ProcId p = 0; p < v; ++p) {
            std::copy(init[p].begin(), init[p].end(),
                      raw.begin() + static_cast<std::ptrdiff_t>(p * mu));
        }
    }

    HmmSimResult result;
    result.data_words = program.data_words();
    result.rounds = sink != nullptr ? run_supersteps<true>(machine, program, mu)
                                    : run_supersteps<false>(machine, program, mu);

    result.hmm_cost = machine.cost();
    result.words_touched = machine.words_touched();
    result.contexts.resize(v);
    const auto raw = machine.raw();
    for (ProcId p = 0; p < v; ++p) {
        result.contexts[p].assign(raw.begin() + static_cast<std::ptrdiff_t>(p * mu),
                                  raw.begin() + static_cast<std::ptrdiff_t>((p + 1) * mu));
    }
    return result;
}

}  // namespace dbsp::core
