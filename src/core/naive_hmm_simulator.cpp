#include "core/naive_hmm_simulator.hpp"

#include <algorithm>

#include "core/hmm_shard.hpp"
#include "model/superstep_exec.hpp"
#include "util/contracts.hpp"

namespace dbsp::core {

namespace {

using model::Addr;
using model::ProcId;
using model::Word;

}  // namespace

HmmSimResult NaiveHmmSimulator::simulate(model::Program& program) const {
    const std::uint64_t v = program.num_processors();
    const model::ClusterTree tree(v);
    const model::ContextLayout layout = program.layout();
    const std::size_t mu = layout.context_words();
    const model::StepIndex steps = program.num_supersteps();
    DBSP_REQUIRE(steps > 0);

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

    // Pinned layout: processor p lives at block p forever, so delivery and
    // step execution both charge at the physical address (vbase == pbase).
    HmmShardSource<false> contexts_plain(machine, mu, nullptr);
    HmmShardSource<true> contexts_traced(machine, mu, nullptr);
    model::AccessorSource& contexts =
        sink != nullptr ? static_cast<model::AccessorSource&>(contexts_traced)
                        : static_cast<model::AccessorSource&>(contexts_plain);
    model::DeliveryScratch scratch;

    // The step loop folds the same fixed-width processor groups as delivery:
    // each group's charges accumulate from zero and reach the machine once.
    hmm::ShardAccount account;

    HmmSimResult result;
    result.data_words = program.data_words();
    for (model::StepIndex s = 0; s < steps; ++s) {
        ++result.rounds;
        for (ProcId lo = 0; lo < v; lo += model::kDeliveryGroupProcs) {
            const ProcId hi = std::min<ProcId>(v, lo + model::kDeliveryGroupProcs);
            for (ProcId p = lo; p < hi; ++p) {
                const Addr base = p * mu;
                model::StepOutcome out;
                if (sink != nullptr) {
                    HmmShardAccessor<true> acc(machine, account, sink, base, base, mu);
                    out = model::run_processor_step(program, layout, tree, s, p, acc);
                    sink->charge(static_cast<double>(out.ops));
                } else {
                    HmmShardAccessor<false> acc(machine, account, nullptr, base, base, mu);
                    out = model::run_processor_step(program, layout, tree, s, p, acc);
                }
                account.cost += static_cast<double>(out.ops);  // unit op costs
            }
            machine.merge_shard(account);
            account.clear();
        }
        model::deliver_messages(layout, 0, v, contexts, program.proc_id_base(), &scratch);
    }

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
