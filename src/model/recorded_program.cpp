#include "model/recorded_program.hpp"

#include <algorithm>

#include "model/dbsp_machine.hpp"
#include "model/superstep_exec.hpp"
#include "util/contracts.hpp"

namespace dbsp::model {

Trace record(Program& program) {
    const std::uint64_t v = program.num_processors();
    const ClusterTree tree(v);
    const ContextLayout layout = program.layout();
    const std::size_t mu = layout.context_words();
    const StepIndex steps = program.num_supersteps();
    DBSP_REQUIRE(steps > 0);

    Trace trace;
    trace.processors = v;
    trace.max_messages = program.max_messages();
    trace.data_words = std::max<std::size_t>(program.data_words(), 2);
    trace.events.resize(steps);

    auto contexts = DbspMachine::initial_contexts(program);
    VectorAccessorSource source(contexts, mu);
    DeliveryScratch scratch;
    TouchLog touches;  // recording charges nothing per word

    for (StepIndex s = 0; s < steps; ++s) {
        trace.labels.push_back(program.label(s));
        trace.events[s].resize(v);
        for (ProcId p = 0; p < v; ++p) {
            const StepOutcome out =
                run_processor_step(program, layout, tree, s, p, contexts[p], touches);
            Trace::Event& ev = trace.events[s][p];
            ev.ops = out.ops;
            ev.read_inbox = out.read_inbox;
            // Capture the emitted messages from the outgoing buffer.
            for (std::size_t k = 0; k < out.sent; ++k) {
                const std::size_t off = layout.out_record_offset(k);
                Message m;
                m.src = p;
                m.dest = contexts[p][off];
                m.payload0 = contexts[p][off + 1];
                m.payload1 = contexts[p][off + 2];
                ev.messages.push_back(m);
            }
        }
        deliver_messages(layout, 0, v, source, program.proc_id_base(), &scratch);
    }
    return trace;
}

RecordedProgram::RecordedProgram(Trace trace) : trace_(std::move(trace)) {
    DBSP_REQUIRE(trace_.processors >= 1);
    DBSP_REQUIRE(!trace_.labels.empty());
    DBSP_REQUIRE(trace_.labels.back() == 0);
    DBSP_REQUIRE(trace_.events.size() == trace_.labels.size());
}

void RecordedProgram::step(StepIndex s, ProcId p, StepContext& ctx) {
    const Trace::Event& ev = trace_.events[s][p];
    if (ev.read_inbox) {
        // Fold the received payloads into an order-sensitive digest.
        const std::size_t n = ctx.inbox_size();
        Word count = ctx.load(0);
        Word digest = ctx.load(1);
        for (std::size_t k = 0; k < n; ++k) {
            const Message m = ctx.inbox(k);
            digest = digest * 1099511628211ull ^ m.payload0 ^ (m.payload1 << 1) ^ m.src;
            ++count;
        }
        ctx.store(0, count);
        ctx.store(1, digest);
    }
    ctx.charge_ops(ev.ops);
    for (const Message& m : ev.messages) {
        ctx.send(m.dest, m.payload0, m.payload1);
    }
}

}  // namespace dbsp::model
