#pragma once

/// \file bt_simulator.hpp
/// Simulation of D-BSP programs on the f(x)-BT model — Section 5 of the paper
/// (Figures 5, 6, 7; Theorem 12).
///
/// The overall cluster scheduling is the same as the HMM simulation, but every
/// data movement is restructured to exploit block transfer:
///
///  * PACK/UNPACK maintain empty buffer blocks interspersed with the contexts
///    (Fig. 4), so cluster swaps need at most three block transfers and at
///    most double any context's address;
///  * COMPUTE(n) (Fig. 6) simulates local computation by recursively cycling
///    chunks of c(n) = max pow2 <= min(f(mu n)/mu, n/2) contexts through the
///    top of memory;
///  * message delivery serializes the cluster's contexts into constant-size
///    tagged records, sorts them with the BT merge sort (Approx-Median-Sort
///    substitute, DESIGN.md §5), and streams the sorted records back into
///    rebuilt contexts — the buffer space for sorting is created with the
///    UNPACK/PACK/shift dance of Fig. 7;
///  * when a superstep declares a transpose pattern (PermutationClass::
///    kTranspose) and rational permutations are enabled, delivery instead
///    uses the tiled BT transpose (Section 6), dropping the sort's log factor.
///
/// Deviation from the paper's literal text (documented in DESIGN.md): a small
/// permanent staging pad occupies the top of memory and all block addresses
/// are offset by it. Chunked streaming needs scratch at the cheap end of the
/// hierarchy; the pad is O(f(capacity)^2 + f(capacity)) words, which changes
/// every access cost by at most the (2,c)-uniformity constant.

#include <vector>

#include "bt/machine.hpp"
#include "model/dbsp_machine.hpp"
#include "model/program.hpp"
#include "trace/sink.hpp"

namespace dbsp::core {

struct BtSimResult {
    double bt_cost = 0.0;          ///< total charged f(x)-BT time
    double transfer_volume = 0.0;  ///< per-cell part of block transfers
    std::uint64_t block_transfers = 0;
    std::uint64_t rounds = 0;      ///< simulation rounds
    std::size_t data_words = 0;
    std::uint64_t sort_invocations = 0;       ///< general (sort) deliveries
    std::uint64_t transpose_invocations = 0;  ///< rational-permutation deliveries
    std::vector<std::vector<model::Word>> contexts;  ///< final, processor order

    std::vector<model::Word> data_of(model::ProcId p) const;
};

class BtSimulator {
public:
    struct Options {
        /// Use the transpose primitive for supersteps declared kTranspose.
        bool use_rational_permutations = false;
        /// Verify layout invariants every round (tests only).
        bool check_invariants =
#ifdef DBSP_CHECK_INVARIANTS
            true;
#else
            false;
#endif
        /// Charge-trace sink (not owned; must outlive simulate()). Attached
        /// to the machine, so reads, writes and COMPUTE take their traced
        /// paths. BT charges are attributed to step execution (COMPUTE),
        /// context movement (PACK/UNPACK/Step-4 swaps), sort-based or
        /// transpose-based delivery — or dummy-superstep for
        /// smoothing-inserted rounds. The transfers it sees number
        /// BtSimResult::block_transfers.
        trace::Sink* trace = nullptr;
        /// Phase observer (not owned; must outlive simulate()). Receives the
        /// same phase_begin/phase_end scopes as \p trace, dummy-superstep
        /// relabelling included, and no other event. It is never attached to
        /// the machine: with only this set the run stays on the untraced
        /// path. When both are set, each scope reaches \p trace first.
        trace::Sink* phases = nullptr;
    };

    explicit BtSimulator(model::AccessFunction f) : BtSimulator(std::move(f), Options{}) {}
    BtSimulator(model::AccessFunction f, Options options)
        : f_(std::move(f)), options_(options) {}

    /// Simulate \p program to completion; the program should be L-smooth with
    /// respect to a BT label set (core::bt_label_set) for the Theorem 12
    /// bound to apply.
    BtSimResult simulate(model::Program& program) const;

    const model::AccessFunction& function() const { return f_; }

private:
    model::AccessFunction f_;
    Options options_;
};

}  // namespace dbsp::core
