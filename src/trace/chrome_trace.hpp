#pragma once

/// \file chrome_trace.hpp
/// Chrome `trace_event` JSON writer (load the output into chrome://tracing or
/// https://ui.perfetto.dev). Phase scopes become duration (B/E) events whose
/// timestamps are the *model time* — the running sum of the charge deltas
/// the sink has seen (a range event adds prefix[end] - prefix[begin]) — so
/// the timeline shows where charged cost accrues, not wall clock. Every
/// delta is non-negative, so timestamps never decrease along a track.

#include <cstdint>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "trace/sink.hpp"

namespace dbsp::trace {

class ChromeTraceSink final : public Sink {
public:
    /// \p track names the timeline row ("tid" in the trace).
    explicit ChromeTraceSink(std::string track = "model") : track_(std::move(track)) {}

    /// The collected events as a `{"traceEvents": [...]}` document.
    std::string to_json() const;

    /// Serialise several sinks into one document; each sink's track becomes
    /// its own timeline row. Used by dbsp_explore to put the D-BSP, HMM and
    /// BT legs of one run side by side.
    static void write_merged(std::span<const ChromeTraceSink* const> sinks,
                             std::FILE* out);
    static bool write_merged(std::span<const ChromeTraceSink* const> sinks,
                             const std::string& path);

    std::size_t event_count() const { return events_.size(); }

    void access(Addr, double cost) override { now_ += cost; }
    void access_range(std::span<const double> prefix, Addr begin, Addr end) override {
        now_ += prefix[end] - prefix[begin];
    }
    void charge(double cost) override { now_ += cost; }
    void block_op(std::span<const double>, double delta, unsigned,
                  std::initializer_list<AddrRange>) override {
        now_ += delta;
    }
    void block_transfer(Addr, Addr, std::uint64_t, double, double delta) override {
        now_ += delta;
    }
    void superstep(unsigned label, std::uint64_t tau, std::size_t h, double comm_arg,
                   double cost) override;
    void phase_begin(Phase phase, unsigned label) override;
    void phase_end(Phase phase) override;

private:
    struct Event {
        char type;  // 'B' or 'E' or 'X' (complete, for supersteps)
        Phase phase;
        unsigned label;
        double ts;        // model time (running sum of charge deltas)
        double dur = 0.0;  // 'X' only
    };

    void append_events(std::FILE* out, bool* first) const;

    std::string track_;
    std::vector<Event> events_;
    double now_ = 0.0;  ///< model time: running sum of the charge deltas seen
};

}  // namespace dbsp::trace
