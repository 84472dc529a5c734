#include "telemetry/span.hpp"

namespace dbsp::telemetry {

report::Json Span::to_json() const {
    report::Json j = report::Json::object();
    j.set("name", name);
    if (label != 0) j.set("label", static_cast<std::uint64_t>(label));
    j.set("start_ms", static_cast<double>(start_ns) / 1e6);
    j.set("ms", ms());
    if (count != 1) j.set("count", count);
    if (!children.empty()) {
        report::Json kids = report::Json::array();
        for (const Span& c : children) kids.push_back(c.to_json());
        j.set("children", std::move(kids));
    }
    return j;
}

void SpanSink::phase_begin(trace::Phase phase, unsigned label) {
    open_.push_back({phase, label, steady_now_ns()});
}

void SpanSink::phase_end(trace::Phase phase) {
    const std::uint64_t now = steady_now_ns();
    // Scopes close strictly LIFO (PhaseScope is RAII); an unmatched end is
    // ignored rather than asserted — telemetry must never take a daemon down.
    if (open_.empty() || open_.back().phase != phase) return;
    const Open top = open_.back();
    open_.pop_back();
    record(phase, top.label, top.start_ns - t0_ns_, now - top.start_ns);
}

void SpanSink::superstep(unsigned label, std::uint64_t tau, std::size_t h,
                         double comm_arg, double cost) {
    (void)tau, (void)h, (void)comm_arg, (void)cost;
    const std::uint64_t now = steady_now_ns();
    const std::uint64_t start = last_superstep_ns_;
    record(trace::Phase::kSuperstep, label, start - t0_ns_, now - start);
    last_superstep_ns_ = now;
}

void SpanSink::record(trace::Phase phase, unsigned label, std::uint64_t start_ns,
                      std::uint64_t dur_ns) {
    Aggregate& agg = aggregate_[static_cast<unsigned>(phase)];
    if (agg.count == 0) agg.first_start_ns = start_ns;
    ++agg.count;
    agg.dur_ns += dur_ns;
    if (detail_.size() < kMaxDetail) {
        ++agg.detailed;
        agg.detailed_ns += dur_ns;
        Span s;
        s.name = trace::phase_name(phase);
        s.label = label;
        s.start_ns = start_ns;
        s.dur_ns = dur_ns;
        detail_.push_back(std::move(s));
    }
}

Span SpanSink::take(std::string leg_name) {
    Span leg;
    leg.name = std::move(leg_name);
    leg.children = std::move(detail_);
    detail_.clear();
    for (unsigned p = 0; p < trace::kPhaseCount; ++p) {
        const Aggregate& agg = aggregate_[p];
        if (agg.count == agg.detailed) continue;
        // The folded node carries the instances and time the detail spans
        // do not.
        Span folded;
        folded.name = trace::phase_name(static_cast<trace::Phase>(p));
        folded.count = agg.count - agg.detailed;
        folded.start_ns = agg.first_start_ns;
        folded.dur_ns = agg.dur_ns - agg.detailed_ns;
        leg.children.push_back(std::move(folded));
    }
    for (auto& agg : aggregate_) agg = Aggregate{};
    last_superstep_ns_ = steady_now_ns();
    return leg;
}

}  // namespace dbsp::telemetry
