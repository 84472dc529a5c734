#pragma once

/// \file self_simulator.hpp
/// D-BSP self-simulation — the Brent's-lemma analogue of Section 4
/// (Theorem 10, Corollary 11).
///
/// A program for a guest D-BSP(v, mu, g(x)) is executed on a host
/// D-BSP(v', mu v / v', g(x)), v' <= v, whose processors are g(x)-HMMs: host
/// processor j holds the contexts of guest cluster C_j^(log v') in its local
/// hierarchical memory, one mu-word block per guest processor.
///
/// The program is split into maximal runs of supersteps with labels < log v'
/// ("global" runs, crossing host processors) and labels >= log v' ("local"
/// runs, confined to single host processors):
///  * a global i-superstep is simulated by every host processor cycling its
///    v/v' guest contexts through the top of its local HMM, followed by an
///    exchange charged as an i-superstep plus a (log v')-superstep of the
///    host (message counts per *host* processor);
///  * a local run is simulated independently on each host processor's local
///    HMM with the Section 3 strategy, via a sub-machine window adapter.
///
/// The host time is  sum over phases of (max_j local HMM cost_j  +
/// h_host * g(...)), which Theorem 10 bounds by
/// O( (v/v') (tau + mu sum_i lambda_i g(mu v / 2^i)) ).

#include <vector>

#include "model/access_function.hpp"
#include "model/dbsp_machine.hpp"
#include "model/program.hpp"
#include "trace/sink.hpp"

namespace dbsp::core {

struct SelfSimResult {
    double host_time = 0.0;  ///< total simulated host D-BSP time
    std::size_t global_supersteps = 0;
    std::size_t local_runs = 0;
    std::size_t data_words = 0;
    std::vector<std::vector<model::Word>> contexts;  ///< final guest contexts

    std::vector<model::Word> data_of(model::ProcId p) const;
};

class SelfSimulator {
public:
    /// Host with v_prime processors; v_prime must be a power of two dividing
    /// the guest's processor count.
    SelfSimulator(model::AccessFunction g, std::uint64_t v_prime)
        : g_(std::move(g)), v_prime_(v_prime) {}

    SelfSimResult simulate(model::Program& program) const;

    std::uint64_t host_processors() const { return v_prime_; }

    /// Attach (or detach, with nullptr) a charge-trace sink. simulate() opens
    /// a local-run scope per maximal local stretch and a global-step scope per
    /// global superstep, charges the sink the exact doubles added to
    /// host_time (the per-phase max-plus-communication terms), and reports
    /// message volume per exchange. The per-window HMM machines are
    /// deliberately left untraced: host time charges the *maximum* over host
    /// processors, so summing their individual costs would overcount. The
    /// sink is not owned.
    void set_trace(trace::Sink* sink) { trace_ = sink; }
    trace::Sink* trace() const { return trace_; }

private:
    model::AccessFunction g_;
    std::uint64_t v_prime_;
    trace::Sink* trace_ = nullptr;  ///< not owned; nullptr = tracing off
};

}  // namespace dbsp::core
