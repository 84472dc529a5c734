#pragma once

/// \file hmm_simulator.hpp
/// Simulation of D-BSP programs on the f(x)-HMM — the paper's core result
/// (Section 3, Figure 1, Theorem 5, Corollary 6).
///
/// The HMM memory is divided into v blocks of mu cells; block j initially
/// holds the context of processor P_j. The simulation proceeds in rounds:
/// each round simulates one superstep for the cluster whose context sits on
/// top of memory, then performs the cyclic cluster swaps of Step 4 when the
/// next label is coarser. Submachine locality thus becomes temporal locality:
/// a cluster's supersteps are simulated while its contexts occupy the top
/// (cheap) region of the hierarchy.
///
/// Two invariants hold at the start of every round (proved in Theorem 4):
///  1. the selected cluster C is s-ready (all its processors are exactly at
///     superstep s);
///  2. C's contexts occupy the topmost |C| blocks sorted by processor number,
///     and every other cluster's contexts are contiguous in memory.
/// Debug builds (or check_invariants = true) verify both each round.

#include <vector>

#include "hmm/machine.hpp"
#include "model/dbsp_machine.hpp"
#include "model/program.hpp"
#include "trace/sink.hpp"

namespace dbsp::core {

/// Result of a D-BSP -> HMM simulation.
struct HmmSimResult {
    double hmm_cost = 0.0;            ///< total charged f(x)-HMM time
    std::uint64_t rounds = 0;         ///< simulation rounds executed
    std::uint64_t words_touched = 0;  ///< charged word accesses on the HMM
    std::size_t data_words = 0;
    std::vector<std::vector<model::Word>> contexts;  ///< final, processor order

    std::vector<model::Word> data_of(model::ProcId p) const;
};

class HmmSimulator {
public:
    struct Options {
        /// Verify Invariants 1-2 every round (quadratic overhead; tests only).
        bool check_invariants =
#ifdef DBSP_CHECK_INVARIANTS
            true;
#else
            false;
#endif
        /// Charge-trace sink (not owned; must outlive simulate()). Every HMM
        /// charge is attributed to a phase: step execution, context movement
        /// (block swaps/rotations), message delivery — or dummy-superstep for
        /// rounds executing a smoothing-inserted dummy. The words it sees
        /// total HmmSimResult::words_touched.
        trace::Sink* trace = nullptr;
    };

    explicit HmmSimulator(model::AccessFunction f)
        : HmmSimulator(std::move(f), Options{}) {}
    HmmSimulator(model::AccessFunction f, Options options)
        : f_(std::move(f)), options_(options) {}

    /// Simulate \p program to completion from its init()-defined input. The
    /// program must be L-smooth with respect to its own label set (Def. 3) —
    /// apply core::smooth first; both correctness (Theorem 4's invariants)
    /// and the Theorem 5 cost bound rely on it.
    HmmSimResult simulate(model::Program& program) const;

    /// Same, but starting from the given full context images (one mu-word
    /// vector per processor) instead of the program's init(). Used by the
    /// Section 4 self-simulation, where the processor state persists in host
    /// memory between superstep runs.
    HmmSimResult simulate_with(model::Program& program,
                               const std::vector<std::vector<model::Word>>& initial) const;

    const model::AccessFunction& function() const { return f_; }

private:
    model::AccessFunction f_;
    Options options_;
};

}  // namespace dbsp::core
