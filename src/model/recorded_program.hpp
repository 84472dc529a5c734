#pragma once

/// \file recorded_program.hpp
/// Trace capture and replay for D-BSP computations.
///
/// The paper's simulation theorems quantify over *computations*, not source
/// programs: any sequence of labeled supersteps with per-processor local
/// work and messages can be simulated. `record()` runs a program once on the
/// direct machine while capturing, per (superstep, processor), the local op
/// count and the emitted messages; the resulting `RecordedProgram` replays
/// that exact computation — same labels, same work, same traffic — without
/// the original program's logic.
///
/// Uses:
///  * simulate workloads whose source is unavailable (e.g. captured from an
///    external tool and loaded as a trace);
///  * build synthetic workloads directly by constructing a Trace;
///  * regression-freeze a program's communication pattern.
///
/// A replay is faithful for cost purposes (labels, tau, h are identical) and
/// functionally self-consistent (the replayed messages are re-delivered), but
/// the data words it produces are the recorded payloads, not recomputed
/// values — replaying is about the *computation's shape*.

#include <algorithm>
#include <vector>

#include "model/program.hpp"

namespace dbsp::model {

/// A captured D-BSP computation.
struct Trace {
    struct Event {
        std::uint64_t ops = 0;            ///< local work of this processor
        std::vector<Message> messages;    ///< sends (dest + payload; src implicit)
        bool read_inbox = false;          ///< whether the step consumed its inbox
    };

    std::uint64_t processors = 0;
    std::size_t max_messages = 0;              ///< buffer bound B observed
    std::size_t data_words = 2;                ///< context D to replay with (>= 2)
    std::vector<unsigned> labels;              ///< per superstep
    std::vector<std::vector<Event>> events;    ///< [superstep][processor]
};

/// Run \p program to completion on flat contexts, capturing its trace.
/// The program is executed once (its init() and step() are invoked normally).
Trace record(Program& program);

/// Replays a Trace as a Program. Data words: word 0 holds the number of
/// messages received so far, word 1 an order-sensitive digest of their
/// payloads — enough to make functional equivalence across executors a
/// meaningful check without carrying the original program's state. The
/// replay context carries trace.data_words user words (minimum 2, for the
/// count and digest; words beyond 2 stay untouched) so the recorded
/// program's mu — and with it every charged cost — matches the original's
/// context geometry.
class RecordedProgram final : public Program {
public:
    explicit RecordedProgram(Trace trace);

    std::string name() const override { return "recorded-trace"; }
    std::uint64_t num_processors() const override { return trace_.processors; }
    std::size_t data_words() const override { return std::max<std::size_t>(trace_.data_words, 2); }
    std::size_t max_messages() const override { return trace_.max_messages; }
    StepIndex num_supersteps() const override { return trace_.labels.size(); }
    unsigned label(StepIndex s) const override { return trace_.labels[s]; }
    void step(StepIndex s, ProcId p, StepContext& ctx) override;

    const Trace& trace() const { return trace_; }

private:
    Trace trace_;
};

}  // namespace dbsp::model
