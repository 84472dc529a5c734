#pragma once

/// \file sink.hpp
/// Charge-trace event interface. The machines (hmm::Machine, bt::Machine,
/// model::DbspMachine) emit a charge event for every unit of model cost they
/// account; the simulators bracket the events in named phase scopes
/// (context movement, step execution, message delivery, ...). A sink
/// observes the stream and attributes the charges it sees, e.g. to
/// (phase x memory level x superstep label).
///
/// A sink that reads only the phase scopes (a wall-clock timer, say) is
/// handed to the HMM and BT simulators as their phase observer instead of
/// their charge sink: it then sees the same scopes while the machines keep
/// no sink and run their untraced paths (see MultiSink::target below).
///
/// Zero overhead when disabled: a machine holds a raw `trace::Sink*`
/// (nullptr by default) and every emission site is guarded by a single
/// branch on that pointer — no virtual call, no allocation, no work on the
/// hot path unless a sink is attached (overhead budget verified by
/// bench_micro, see EXPERIMENTS.md "Harness performance").
///
/// Sinks only observe. The machine is the one place where charged cost is
/// summed; every event carries the delta the machine charged for it, and
/// every event is an empty virtual here, so a sink overrides exactly the
/// events it needs and keeps no competing total. Sinks are audited against
/// the executors' integer counters (words touched, block transfers,
/// supersteps), never against the cost's floating-point bits.

#include <bit>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "model/types.hpp"

namespace dbsp::trace {

using model::Addr;

/// Simulation phases a charge can be attributed to. kNone is the implicit
/// phase outside any scope (e.g. native algorithms run directly on a
/// machine).
enum class Phase : unsigned char {
    kNone = 0,          ///< outside any scope
    kStepExec,          ///< guest step callbacks (local computation)
    kContextMove,       ///< context load/store: swaps, pack/unpack, rotations
    kDeliver,           ///< message delivery (scan + inbox writes)
    kDeliverSort,       ///< BT sort-based delivery (Section 5.2)
    kDeliverTranspose,  ///< BT rational-permutation delivery (Section 6)
    kDummyStep,         ///< rounds for smoothing-inserted dummy supersteps
    kLocalRun,          ///< self-simulation: local window runs
    kGlobalStep,        ///< self-simulation: global superstep computation
    kCommunication,     ///< self-simulation: host h-relation charges
    kSuperstep,         ///< direct D-BSP superstep (per-label attribution)
};
inline constexpr unsigned kPhaseCount = 11;

/// Stable display name ("step-exec", "deliver-sort", ...).
const char* phase_name(Phase p);

/// Memory hierarchy level of an address: level 0 is address 0, level l >= 1
/// covers [2^(l-1), 2^l) — the doubling bands over which a (2,c)-uniform
/// access function varies by at most the constant c.
inline unsigned level_of(Addr x) { return static_cast<unsigned>(std::bit_width(x)); }

/// Level tag for pure-compute charges that touch no memory cell.
inline constexpr unsigned kNoLevel = ~0u;

/// An address range [begin, end) touched by a bulk operation.
struct AddrRange {
    Addr begin;
    Addr end;
};

class BufferSink;  ///< never defined; named only by the unused hook below

class Sink {
public:
    virtual ~Sink() = default;

    /// --- charge events (emitted by the machines) ---------------------------
    /// Single word access at \p x, charged \p cost (= f(x)).
    virtual void access(Addr /*x*/, double /*cost*/) {}

    /// Range access [begin, end), one touch per cell, charged
    /// prefix[end] - prefix[begin] through \p prefix (the machine's
    /// cost-table prefix sums).
    virtual void access_range(std::span<const double> /*prefix*/, Addr /*begin*/,
                              Addr /*end*/) {}

    /// A step's touch log priced at \p base: entry i touches
    /// x = base + touches[i], charged prefix[x + 1] - prefix[x]. The default
    /// hands each entry to access() in log order, so a sink that does not
    /// override this sees exactly the per-word stream.
    virtual void access_log(std::span<const double> prefix, Addr base,
                            std::span<const std::uint32_t> touches) {
        for (const std::uint32_t i : touches) {
            const Addr x = base + i;
            access(x, prefix[x + 1] - prefix[x]);
        }
    }

    /// Pure-computation charge (unit ops; no memory level).
    virtual void charge(double /*cost*/) {}

    /// Bulk HMM operation over \p ranges (swap_blocks and charge_swap_blocks
    /// pass their two blocks, copy_block its source and destination), charged
    /// \p delta in total; \p touches is the per-cell touch multiplicity (2
    /// for a swap: one read + one write per cell of each range).
    virtual void block_op(std::span<const double> /*prefix*/, double /*delta*/,
                          unsigned /*touches*/, std::initializer_list<AddrRange> /*ranges*/) {}

    /// BT block transfer [src, src+len) -> [dst, dst+len): charged
    /// \p delta = \p latency + len, where the latency is f at the deeper
    /// block end.
    virtual void block_transfer(Addr /*src*/, Addr /*dst*/, std::uint64_t /*len*/,
                                double /*latency*/, double /*delta*/) {}

    /// \p count messages moved by the enclosing delivery phase.
    virtual void messages(std::uint64_t /*count*/) {}

    /// One executed D-BSP superstep (direct machine): charged \p cost =
    /// max(tau, 1) + h * g(comm_arg).
    virtual void superstep(unsigned /*label*/, std::uint64_t /*tau*/, std::size_t /*h*/,
                           double /*comm_arg*/, double /*cost*/) {}

    /// --- phase scopes (emitted by the simulators) --------------------------
    virtual void phase_begin(Phase /*phase*/, unsigned /*label*/) {}
    virtual void phase_end(Phase /*phase*/) {}

    /// Nothing emits these four; they exist only because the frozen
    /// benchmark/src/spans.hpp overrides them.
    virtual void reset_total() {}
    virtual void shard_begin() {}
    virtual void shard_end() {}
    virtual void merge_replay(const BufferSink&) {}
};

/// RAII phase scope; null-safe so emission sites need no branching of their
/// own beyond the sink pointer check.
class PhaseScope {
public:
    PhaseScope(Sink* sink, Phase phase, unsigned label = 0) : sink_(sink), phase_(phase) {
        if (sink_ != nullptr) sink_->phase_begin(phase_, label);
    }
    ~PhaseScope() {
        if (sink_ != nullptr) sink_->phase_end(phase_);
    }
    PhaseScope(const PhaseScope&) = delete;
    PhaseScope& operator=(const PhaseScope&) = delete;

private:
    Sink* sink_;
    Phase phase_;
};

/// Fan-out sink: the one rule for handing several observers one event
/// stream. Null and repeated children are skipped; every other child gets
/// every event verbatim, in the order the children were added.
class MultiSink final : public Sink {
public:
    MultiSink() = default;
    MultiSink(std::initializer_list<Sink*> children) {
        for (Sink* child : children) add(child);
    }
    MultiSink(const MultiSink&) = delete;  ///< target() may point at this
    MultiSink& operator=(const MultiSink&) = delete;

    void add(Sink* child);
    /// The pointer to attach: nullptr with no child, the child itself with
    /// one, this fan-out with more. So a lone sink is attached directly, and
    /// a run whose only observer is a phase observer keeps its untraced
    /// path.
    Sink* target() {
        if (children_.size() > 1) return this;
        return children_.empty() ? nullptr : children_.front();
    }

    void access(Addr x, double cost) override;
    void access_range(std::span<const double> prefix, Addr begin, Addr end) override;
    void access_log(std::span<const double> prefix, Addr base,
                    std::span<const std::uint32_t> touches) override;
    void charge(double cost) override;
    void block_op(std::span<const double> prefix, double delta, unsigned touches,
                  std::initializer_list<AddrRange> ranges) override;
    void block_transfer(Addr src, Addr dst, std::uint64_t len, double latency,
                        double delta) override;
    void messages(std::uint64_t count) override;
    void superstep(unsigned label, std::uint64_t tau, std::size_t h, double comm_arg,
                   double cost) override;
    void phase_begin(Phase phase, unsigned label) override;
    void phase_end(Phase phase) override;

private:
    std::vector<Sink*> children_;
};

}  // namespace dbsp::trace
