#include "core/hmm_simulator.hpp"

#include <algorithm>

#include "core/hmm_shard.hpp"
#include "model/superstep_exec.hpp"
#include "report/metrics.hpp"
#include "util/contracts.hpp"

namespace dbsp::core {

namespace {

using model::Addr;
using model::ClusterTree;
using model::ContextLayout;
using model::ProcId;
using model::StepIndex;
using model::Word;

/// Mutable simulation state: the machine plus the block <-> processor maps.
struct SimState {
    hmm::Machine machine;
    std::size_t mu;
    std::vector<std::uint64_t> block_of_proc;  ///< processor -> block index
    std::vector<ProcId> proc_of_block;         ///< block index -> processor

    SimState(model::AccessFunction f, std::uint64_t v, std::size_t mu_words)
        : machine(std::move(f), static_cast<std::uint64_t>(mu_words) * v), mu(mu_words),
          block_of_proc(v), proc_of_block(v) {
        for (std::uint64_t p = 0; p < v; ++p) {
            block_of_proc[p] = p;
            proc_of_block[p] = p;
        }
    }

    Addr block_addr(std::uint64_t block) const { return block * mu; }

    /// Swap two equal-length runs of blocks and update the maps.
    void swap_block_runs(std::uint64_t a, std::uint64_t b, std::uint64_t nblocks) {
        if (a == b || nblocks == 0) return;
        machine.swap_blocks(block_addr(a), block_addr(b), nblocks * mu);
        for (std::uint64_t k = 0; k < nblocks; ++k) {
            std::swap(proc_of_block[a + k], proc_of_block[b + k]);
            block_of_proc[proc_of_block[a + k]] = a + k;
            block_of_proc[proc_of_block[b + k]] = b + k;
        }
    }
};


/// The rounds of Figure 1 from the initial layout to Step 3, instantiated
/// once per trace mode: the untraced loop has no charge sink to test, and a
/// traced one sends every charge to the machine's sink. Phase scopes go to
/// \p phases (nullptr: none) in either mode. Returns the number of rounds.
template <bool Traced>
std::uint64_t run_rounds(SimState& st, model::Program& program, const ClusterTree& tree,
                         trace::Sink* phases, bool check_invariants) {
    const ContextLayout layout = program.layout();
    const std::size_t mu = st.mu;
    const StepIndex steps = program.num_supersteps();
    const std::uint64_t v = tree.processors();

    // sigma[p]: next superstep to simulate for processor p.
    std::vector<StepIndex> sigma(v, 0);

    HmmStepRunner<Traced> runner(st.machine, program, tree);
    HmmShardSource<Traced> contexts(st.machine, mu, &st.block_of_proc);
    model::DeliveryScratch scratch;

    // Step 2a fold: each step execution charges into this account from zero.
    hmm::ShardAccount account;

    static auto& metric_rounds = report::metric_counter("sim.hmm.rounds");
    std::uint64_t rounds = 0;

    while (true) {
        // Step 1: pick the processor whose context is on top of memory.
        const ProcId top_proc = st.proc_of_block[0];
        const StepIndex s = sigma[top_proc];
        if (s == steps) break;  // Step 3: the program has finished.
        const unsigned label = program.label(s);
        const std::uint64_t csize = tree.cluster_size(label);
        const ProcId first = tree.cluster_first(tree.cluster_of(top_proc, label), label);
        ++rounds;
        metric_rounds.add();
        // Rounds executing a smoothing-inserted dummy superstep attribute all
        // their charges (swaps included) to the dummy-superstep phase.
        const bool dummy_round = phases != nullptr && program.is_dummy_step(s);
        const auto ph = [dummy_round](trace::Phase p) {
            return dummy_round ? trace::Phase::kDummyStep : p;
        };

        if (check_invariants) {
            // Invariant 1: C is s-ready.
            for (ProcId p = first; p < first + csize; ++p) DBSP_ASSERT(sigma[p] == s);
            // Invariant 2 (top part): C's contexts occupy the topmost |C|
            // blocks sorted by processor number.
            for (ProcId p = first; p < first + csize; ++p) {
                DBSP_ASSERT(st.block_of_proc[p] == p - first);
            }
            // Invariant 2 (rest): every cluster at the current level or
            // deeper occupies consecutive memory blocks (possibly permuted
            // internally). Coarser clusters are temporarily fragmented while
            // a Step 4 cycle is in flight, but no round touches them until
            // the cycle completes and restores their home layout.
            for (unsigned i = label; i <= tree.log_processors(); ++i) {
                const std::uint64_t sz = tree.cluster_size(i);
                for (std::uint64_t j = 0; j < tree.num_clusters(i); ++j) {
                    const ProcId f0 = tree.cluster_first(j, i);
                    std::uint64_t lo = st.block_of_proc[f0];
                    std::uint64_t hi = lo;
                    for (ProcId p = f0; p < f0 + sz; ++p) {
                        lo = std::min(lo, st.block_of_proc[p]);
                        hi = std::max(hi, st.block_of_proc[p]);
                    }
                    DBSP_ASSERT(hi - lo + 1 == sz);
                }
            }
        }

        // Step 2a: simulate local computation. The serial schedule of the
        // paper brings each context in turn to the top of memory (block 0),
        // runs the step there, and swaps the context back — a net identity
        // on memory. So the round executes every context of the cluster IN
        // PLACE, charging virtual block-0 addresses into the account, and
        // emits the schedule's charge stream in cluster order: swap-in
        // charge, the step's charges (folded into the account and added to
        // the machine once), swap-out charge.
        for (std::uint64_t idx = 0; idx < csize; ++idx) {
            DBSP_ASSERT(st.proc_of_block[idx] == first + idx);
            if (idx > 0) {
                trace::PhaseScope move(phases, ph(trace::Phase::kContextMove), label);
                st.machine.charge_swap_blocks(st.block_addr(0), st.block_addr(idx), mu);
            }
            {
                trace::PhaseScope exec(phases, ph(trace::Phase::kStepExec), label);
                runner.run(account, s, first + idx, st.block_addr(0), st.block_addr(idx));
                st.machine.merge_shard(account);
                account.clear();
            }
            if (idx > 0) {
                trace::PhaseScope move(phases, ph(trace::Phase::kContextMove), label);
                st.machine.charge_swap_blocks(st.block_addr(0), st.block_addr(idx), mu);
            }
        }

        // Step 2b: simulate the message exchange by scanning the outgoing
        // buffers and delivering into the incoming buffers; all traffic stays
        // within the topmost mu*|C| cells.
        {
            trace::PhaseScope deliver(phases, ph(trace::Phase::kDeliver), label);
            model::deliver_messages(layout, first, csize, contexts, program.proc_id_base(),
                                    &scratch);
            if constexpr (Traced) st.machine.trace()->messages(scratch.pending.size());
        }

        for (ProcId p = first; p < first + csize; ++p) sigma[p] = s + 1;
        if (s + 1 == steps) continue;  // next iteration exits at Step 3

        // Step 4: when the next superstep is coarser, rotate the sibling
        // clusters of the enclosing i_{s+1}-cluster through the top of memory.
        const unsigned next_label = program.label(s + 1);
        if (next_label < label) {
            trace::PhaseScope move(phases, ph(trace::Phase::kContextMove), next_label);
            const std::uint64_t b = std::uint64_t{1} << (label - next_label);
            const std::uint64_t jbar = tree.cluster_of(top_proc, next_label);
            const ProcId cbar_first = tree.cluster_first(jbar, next_label);
            const std::uint64_t j = tree.cluster_of(top_proc, label) - (jbar << (label - next_label));
            const ProcId c0_first = cbar_first;  // first sibling i_s-cluster
            if (j > 0) {
                // Swap C (on top) with C_0 (at C_j's home position).
                st.swap_block_runs(0, st.block_of_proc[c0_first], csize);
            }
            if (j < b - 1) {
                // Swap C_0 (now on top) with C_{j+1} (at its home position).
                const ProcId cnext_first = cbar_first + (j + 1) * csize;
                st.swap_block_runs(0, st.block_of_proc[cnext_first], csize);
            }
        }
    }
    return rounds;
}

}  // namespace

std::vector<Word> HmmSimResult::data_of(ProcId p) const {
    DBSP_REQUIRE(p < contexts.size());
    const auto& ctx = contexts[p];
    return std::vector<Word>(ctx.begin(),
                             ctx.begin() + static_cast<std::ptrdiff_t>(data_words));
}

HmmSimResult HmmSimulator::simulate(model::Program& program) const {
    return simulate_with(program, model::DbspMachine::initial_contexts(program));
}

HmmSimResult HmmSimulator::simulate_with(
    model::Program& program, const std::vector<std::vector<Word>>& initial) const {
    const std::uint64_t v = program.num_processors();
    const ClusterTree tree(v);
    const std::size_t mu = program.context_words();
    const StepIndex steps = program.num_supersteps();
    DBSP_REQUIRE(steps > 0);
    DBSP_REQUIRE(program.label(steps - 1) == 0);

    SimState st(f_, v, mu);
    trace::Sink* const sink = options_.trace;
    st.machine.set_trace(sink);
    trace::MultiSink phase_fanout{sink, options_.phases};
    trace::Sink* const phases = phase_fanout.target();

    // Load the initial contexts (the input configuration; uncharged, as the
    // simulated machine is assumed to start from this memory image).
    DBSP_REQUIRE(initial.size() == v);
    {
        auto raw = st.machine.raw();
        for (ProcId p = 0; p < v; ++p) {
            DBSP_REQUIRE(initial[p].size() == mu);
            std::copy(initial[p].begin(), initial[p].end(),
                      raw.begin() + static_cast<std::ptrdiff_t>(p * mu));
        }
    }

    HmmSimResult result;
    result.data_words = program.data_words();

    static auto& metric_runs = report::metric_counter("sim.hmm.runs");
    metric_runs.add();
    result.rounds =
        sink != nullptr
            ? run_rounds<true>(st, program, tree, phases, options_.check_invariants)
            : run_rounds<false>(st, program, tree, phases, options_.check_invariants);

    result.hmm_cost = st.machine.cost();
    result.words_touched = st.machine.words_touched();
    result.contexts.resize(v);
    const auto raw = st.machine.raw();
    for (ProcId p = 0; p < v; ++p) {
        const Addr base = st.block_addr(st.block_of_proc[p]);
        result.contexts[p].assign(raw.begin() + static_cast<std::ptrdiff_t>(base),
                                  raw.begin() + static_cast<std::ptrdiff_t>(base + mu));
    }
    return result;
}

}  // namespace dbsp::core
