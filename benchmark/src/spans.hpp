#pragma once

/// \file spans.hpp
/// Tracing for dbsp_bench --trace: an in-memory span log, and PhaseClock, a
/// trace::Sink that times the simulators' phase scopes.
///
/// Spans are recorded at layer boundaries from the benchmark's own code
/// (around program construction, core::smooth, simulate(), the profile
/// fold) and, inside simulate(), at the phase_begin/phase_end hooks every
/// simulator already emits. A span holds its name, start, end, parent span
/// and the id of the job (or request) it belongs to; the log is written out
/// once, when the run ends.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "report/json.hpp"
#include "trace/sink.hpp"

namespace bench {

class SpanLog {
public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    double now_ms() const { return ms_between(origin_, Clock::now()); }
    double ms_at(Clock::time_point t) const { return ms_between(origin_, t); }

    /// Open a span starting now; returns its id.
    std::int64_t open(const char* name, std::uint64_t job, std::int64_t parent);
    /// End span \p id at \p end_ms (default: now).
    void close(std::int64_t id, double end_ms);
    void close(std::int64_t id) { close(id, now_ms()); }
    /// Record a finished span. count > 1 marks a folded span: \p count
    /// instances whose durations sum to end_ms - start_ms.
    std::int64_t add(const char* name, std::uint64_t job, std::int64_t parent,
                     double start_ms, double end_ms, std::uint64_t count = 1);

    /// {"spans":[{"id","name","job","parent","start_ms","end_ms"[,"count"]}]}
    report::Json to_json() const;

private:
    struct Rec {
        const char* name;  ///< string literals and trace::phase_name() only
        std::uint64_t job;
        std::int64_t parent;
        double start_ms;
        double end_ms;
        std::uint64_t count;
    };
    Clock::time_point origin_;
    std::vector<Rec> spans_;
};

/// Times phase scopes. Charge events are no-ops, as in telemetry::SpanSink;
/// the machines still take their per-word traced path because a sink is
/// attached, which is the tracing overhead trace.overhead_pct reports. A
/// profiled job attaches it beside its LocalitySink through a
/// trace::MultiSink.
///
/// Self time of a phase instance is its duration minus its nested phase
/// scopes. The first kMaxDetail instances of a job become spans of their
/// own; later ones fold into one span per phase.
class PhaseClock final : public trace::Sink {
public:
    static constexpr std::size_t kMaxDetail = 16;

    /// Reset for a new job whose simulate() span is \p parent.
    void start(SpanLog* log, std::uint64_t job, std::int64_t parent);
    /// Write the folded spans of the job.
    void finish();

    double self_ms(trace::Phase p) const { return self_ms_[static_cast<unsigned>(p)]; }
    /// Summed duration of outermost phase scopes.
    double scoped_ms() const { return scoped_ms_; }

    void access(trace::Addr, double) override {}
    void access_range(std::span<const double>, trace::Addr, trace::Addr) override {}
    void charge(double) override {}
    void block_op(std::span<const double>, double, unsigned,
                  std::initializer_list<trace::AddrRange>) override {}
    void block_transfer(trace::Addr, trace::Addr, std::uint64_t, double, double) override {}
    void messages(std::uint64_t) override {}
    void superstep(unsigned, std::uint64_t, std::size_t, double, double) override {}
    void merge_replay(const trace::BufferSink&) override {}
    void shard_begin() override {}
    void shard_end() override {}
    void reset_total() override {}
    void phase_begin(trace::Phase phase, unsigned label) override;
    void phase_end(trace::Phase phase) override;

private:
    struct Open {
        trace::Phase phase;
        Clock::time_point start;
        double child_ms;
        std::int64_t span;  ///< -1 when folded
    };
    struct Fold {
        std::uint64_t count = 0;
        double first_start_ms = 0.0;
        double total_ms = 0.0;
    };

    SpanLog* log_ = nullptr;
    std::uint64_t job_ = 0;
    std::int64_t parent_ = -1;
    std::size_t detail_ = 0;
    std::vector<Open> open_;
    double self_ms_[trace::kPhaseCount] = {};
    double scoped_ms_ = 0.0;
    Fold fold_[trace::kPhaseCount] = {};
};

/// Layer times of one traced job, summed over its simulate() calls.
struct TracedJob {
    double total_ms = 0.0;
    double build_ms = 0.0;
    double smooth_ms = 0.0;
    double simulate_ms = 0.0;
    double fold_ms = 0.0;
    double step_exec_ms = 0.0;
    double context_move_ms = 0.0;
    double deliver_ms = 0.0;  ///< deliver + deliver-sort + deliver-transpose
    double dummy_ms = 0.0;
    double scoped_ms = 0.0;   ///< inside any phase scope

    /// Add the phase self times \p clock measured for one simulate() call.
    void add_phases(const PhaseClock& clock);
};

/// The job samples of a traced run, reduced to the time fields of Layers.
struct LayerSamples {
    std::vector<double> untraced_ms;  ///< same jobs, no sink attached
    std::vector<TracedJob> traced;

    /// Medians per layer, tracing overhead, and the share of the traced job
    /// time the layer medians leave unaccounted.
    void reduce(Layers* l) const;
};

}  // namespace bench
