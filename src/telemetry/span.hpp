#pragma once

/// \file span.hpp
/// Request spans: every serve request gets a monotonically assigned id and a
/// tree of named, steady-clock-timed spans (parse -> cache-probe -> run ->
/// reply-write; under run, one span per executor leg, and under each leg its
/// supersteps or phase scopes). SpanBuilder assembles the tree on the
/// request thread; SpanSink overrides only the trace::Sink phase-scope and
/// superstep hooks (every other event stays the base's empty virtual). The
/// HMM and BT simulators take it as their phase observer, never as their
/// charge sink, so timing their legs costs two virtual calls and two clock
/// reads per phase scope and nothing per charged word.
///
/// Spans observe wall time only. They never feed back into charged costs,
/// fingerprints or reply bytes — the span tree travels exclusively through
/// the op:"spans" telemetry ring and the slow-request log.

#include <cstdint>
#include <string>
#include <vector>

#include "report/json.hpp"
#include "telemetry/clock.hpp"
#include "trace/sink.hpp"

namespace dbsp::telemetry {

/// One node of a request's span tree. Timestamps are nanoseconds relative to
/// the request's own start, so trees serialize small and compare across
/// requests. `count > 1` marks an aggregated span (many phase instances
/// folded into one node once the per-leg detail cap is reached).
struct Span {
    std::string name;
    unsigned label = 0;           ///< superstep label, where one applies
    std::uint64_t start_ns = 0;   ///< relative to the request start
    std::uint64_t dur_ns = 0;
    std::uint64_t count = 1;      ///< instances folded into this node
    std::vector<Span> children;

    double ms() const { return static_cast<double>(dur_ns) / 1e6; }
    report::Json to_json() const;
};

/// Stack-shaped builder for one request's span tree. Not thread-safe: one
/// builder lives on one request thread.
class SpanBuilder {
public:
    SpanBuilder() : t0_ns_(steady_now_ns()) { root_.name = "request"; }

    std::uint64_t t0_ns() const { return t0_ns_; }

    /// Open a child of the innermost open span.
    void begin(std::string name) {
        Span s;
        s.name = std::move(name);
        s.start_ns = steady_now_ns() - t0_ns_;
        open_.push_back(std::move(s));
    }

    /// Close the innermost open span; returns a reference to the finished
    /// node (valid until its parent gains another child).
    Span& end() {
        Span done = std::move(open_.back());
        open_.pop_back();
        done.dur_ns = steady_now_ns() - t0_ns_ - done.start_ns;
        Span& parent = open_.empty() ? root_ : open_.back();
        parent.children.push_back(std::move(done));
        return parent.children.back();
    }

    /// Close the root and take the finished tree.
    Span finish() {
        while (!open_.empty()) end();
        root_.dur_ns = steady_now_ns() - t0_ns_;
        return std::move(root_);
    }

private:
    std::uint64_t t0_ns_;
    Span root_;
    std::vector<Span> open_;
};

/// trace::Sink adapter that turns the simulators' phase scopes (and the
/// direct machine's superstep events) into timed spans. Charge events keep
/// the base's empty implementations: attach it as a simulator's phase
/// observer (Options::phases), not as its charge sink (Options::trace),
/// which would put the machine on its per-word traced path for nothing.
///
/// Detail is bounded: the first kMaxDetail phase instances are recorded as
/// individual spans ("superstep[i]" resolution — each simulator round is one
/// superstep); everything beyond folds into one aggregated span per phase,
/// so a million-round request produces a fixed-size tree.
class SpanSink final : public trace::Sink {
public:
    static constexpr std::size_t kMaxDetail = 48;

    /// \p t0_ns: the owning request's start stamp (SpanBuilder::t0_ns), so
    /// leg spans share the request-relative timebase. The leg starts now.
    explicit SpanSink(std::uint64_t t0_ns)
        : t0_ns_(t0_ns), last_superstep_ns_(steady_now_ns()) {}

    void phase_begin(trace::Phase phase, unsigned label) override;
    void phase_end(trace::Phase phase) override;

    /// Direct-machine superstep events carry no scope; superstep i lasts
    /// from the previous event (the leg start for the first) to this one.
    /// They fold with Phase::kSuperstep scopes.
    void superstep(unsigned label, std::uint64_t tau, std::size_t h, double comm_arg,
                   double cost) override;

    /// Assemble the leg span: recorded detail spans first, then one
    /// aggregated span per phase for the folded tail. Resets the sink; the
    /// next leg starts now.
    Span take(std::string leg_name);

private:
    struct Open {
        trace::Phase phase;
        unsigned label;
        std::uint64_t start_ns;
    };
    /// One phase's instances: all of them, and those kept as detail spans.
    struct Aggregate {
        std::uint64_t count = 0;
        std::uint64_t dur_ns = 0;
        std::uint64_t first_start_ns = 0;
        std::uint64_t detailed = 0;
        std::uint64_t detailed_ns = 0;
    };

    void record(trace::Phase phase, unsigned label, std::uint64_t start_ns,
                std::uint64_t dur_ns);

    std::uint64_t t0_ns_;
    std::uint64_t last_superstep_ns_;  ///< previous superstep event, or leg start
    std::vector<Open> open_;
    std::vector<Span> detail_;
    Aggregate aggregate_[trace::kPhaseCount] = {};
};

}  // namespace dbsp::telemetry
