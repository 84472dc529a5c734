#pragma once

/// \file trace_bundle.hpp
/// One charge-trace attachment bundle: an AggregateSink for the printed
/// phase/level table, an optional ChromeTraceSink when a JSON path was
/// requested, and a MultiSink fanning events to both. bench::EnvTrace and
/// dbsp_explore's per-leg tracing both wrap this class. The sinks only
/// observe; the report prints the executor's charged cost next to the sum
/// the aggregate attributed.
///
/// The bundle is not thread-safe (the sinks aren't): attach it to one serial
/// run, never to parallel sweep workers.

#include <cstdio>
#include <memory>
#include <string>

#include "trace/aggregate.hpp"
#include "trace/chrome_trace.hpp"
#include "trace/sink.hpp"

namespace dbsp::report {

class TraceBundle {
public:
    /// Disabled bundle: sink() returns nullptr, report() is a no-op.
    TraceBundle() = default;

    /// Enabled bundle writing to \p track; a Chrome sink is attached when
    /// \p with_chrome (the caller writes the file, possibly merged across
    /// bundles, via chrome()).
    TraceBundle(std::string track, bool with_chrome) {
        aggregate_ = std::make_unique<trace::AggregateSink>();
        multi_.add(aggregate_.get());
        if (with_chrome) {
            chrome_ = std::make_unique<trace::ChromeTraceSink>(std::move(track));
            multi_.add(chrome_.get());
        }
    }

    /// The DBSP_TRACE convention shared by the bench binaries:
    ///   unset / "" / "0" — disabled;
    ///   "1"              — aggregate report only;
    ///   anything else    — treated as a path: aggregate report AND a Chrome
    ///                      trace file written there by report().
    static TraceBundle from_env(const char* track);

    bool enabled() const { return aggregate_ != nullptr; }
    trace::Sink* sink() { return enabled() ? &multi_ : nullptr; }
    const trace::AggregateSink* aggregate() const { return aggregate_.get(); }
    const trace::ChromeTraceSink* chrome() const { return chrome_.get(); }
    const std::string& chrome_path() const { return chrome_path_; }

    /// Print the aggregate table, with \p charged_cost (the executor's own
    /// total) next to the attributed sum; if from_env() captured a Chrome
    /// path, also write the trace file there. \p tool prefixes diagnostics.
    void report(const char* tool, const std::string& what, double charged_cost) const;

private:
    std::unique_ptr<trace::AggregateSink> aggregate_;
    std::unique_ptr<trace::ChromeTraceSink> chrome_;
    trace::MultiSink multi_;
    std::string chrome_path_;  ///< only set by from_env()
};

}  // namespace dbsp::report
