#include "core/naive_bt_simulator.hpp"

#include <algorithm>

#include "bt/primitives.hpp"
#include "model/superstep_exec.hpp"
#include "util/contracts.hpp"

namespace dbsp::core {

namespace {

using model::Addr;
using model::Message;
using model::ProcId;
using model::Word;

}  // namespace

BtSimResult NaiveBtSimulator::simulate(model::Program& program) const {
    const std::uint64_t v = program.num_processors();
    const model::ClusterTree tree(v);
    const model::ContextLayout layout = program.layout();
    const std::size_t mu = layout.context_words();
    const model::StepIndex steps = program.num_supersteps();
    DBSP_REQUIRE(steps > 0);

    // Memory: staging pad at the top, then the v contexts.
    const std::uint64_t ctx_words = static_cast<std::uint64_t>(mu) * v;
    std::uint64_t pad = bt::pow2_at_most(std::max<std::uint64_t>(
        4 * static_cast<std::uint64_t>(std::max(1.0, 2.0 * mu + 0.0)), 64));
    // Chunked staging wants ~f(capacity) words, rounded to whole contexts.
    {
        const model::AccessFunction& f = f_;
        const auto fv = static_cast<std::uint64_t>(std::max(1.0, f.at(2.0 * ctx_words)));
        pad = std::max<std::uint64_t>(pad, 2 * ((fv / mu + 2) * mu));
    }
    bt::Machine machine(f_, pad + ctx_words + 64);
    const Addr ctx0 = pad;
    {
        const auto init = model::DbspMachine::initial_contexts(program);
        auto raw = machine.raw();
        for (ProcId p = 0; p < v; ++p) {
            std::copy(init[p].begin(), init[p].end(),
                      raw.begin() + static_cast<std::ptrdiff_t>(ctx0 + p * mu));
        }
    }

    BtSimResult result;
    result.data_words = program.data_words();

    std::vector<Message> pending;
    std::vector<Word> words;
    model::TouchLog touches;
    touches.reserve(2 * mu);
    for (model::StepIndex s = 0; s < steps; ++s) {
        ++result.rounds;
        pending.clear();
        // Computation: every processor's step runs against its pinned
        // context, paying the access function at its resident depth.
        for (ProcId p = 0; p < v; ++p) {
            const Addr base = ctx0 + p * mu;
            DBSP_REQUIRE(base + mu <= machine.capacity());
            const auto out = model::run_processor_step(
                program, layout, tree, s, p, machine.raw().subspan(base, mu), touches);
            // The step ran in place; charge its touches at their resident
            // addresses, in order. A read and a write charge the same f(x),
            // so a read prices either.
            for (const std::uint32_t i : touches) {
                DBSP_REQUIRE(i < mu);
                (void)machine.read(base + i);
            }
            machine.charge(static_cast<double>(out.ops));
            const auto cnt =
                static_cast<std::size_t>(machine.read(base + layout.out_count_offset()));
            // The out records are contiguous: one charged range read covers
            // all 3*cnt words.
            words.resize(3 * cnt);
            machine.read_range(base + layout.out_record_offset(0), words);
            for (std::size_t q = 0; q < cnt; ++q) {
                pending.push_back(
                    Message{p, words[3 * q], words[3 * q + 1], words[3 * q + 2]});
            }
            if (cnt > 0) machine.write(base + layout.out_count_offset(), 0);
        }
        // Naive delivery: direct random-access writes at destination depth.
        for (const Message& m : pending) {
            const Addr base = ctx0 + m.dest * mu;
            const auto cnt =
                static_cast<std::size_t>(machine.read(base + layout.in_count_offset()));
            DBSP_REQUIRE(cnt < layout.max_messages);
            const Addr off = base + layout.in_record_offset(cnt);
            const Word rec[3] = {m.src, m.payload0, m.payload1};
            machine.write_range(off, rec);
            machine.write(base + layout.in_count_offset(), cnt + 1);
        }
    }

    result.bt_cost = machine.cost();
    result.contexts.resize(v);
    const auto raw = machine.raw();
    for (ProcId p = 0; p < v; ++p) {
        result.contexts[p].assign(
            raw.begin() + static_cast<std::ptrdiff_t>(ctx0 + p * mu),
            raw.begin() + static_cast<std::ptrdiff_t>(ctx0 + (p + 1) * mu));
    }
    return result;
}

}  // namespace dbsp::core
