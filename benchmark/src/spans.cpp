#include "spans.hpp"

namespace bench {

std::int64_t SpanLog::open(const char* name, std::uint64_t job, std::int64_t parent) {
    const double t = now_ms();
    return add(name, job, parent, t, t);
}

void SpanLog::close(std::int64_t id, double end_ms) {
    spans_[static_cast<std::size_t>(id)].end_ms = end_ms;
}

std::int64_t SpanLog::add(const char* name, std::uint64_t job, std::int64_t parent,
                          double start_ms, double end_ms, std::uint64_t count) {
    spans_.push_back({name, job, parent, start_ms, end_ms, count});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

report::Json SpanLog::to_json() const {
    report::Json arr = report::Json::array();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Rec& r = spans_[i];
        report::Json s = report::Json::object();
        s.set("id", static_cast<std::uint64_t>(i));
        s.set("name", r.name);
        s.set("job", r.job);
        s.set("parent", r.parent < 0 ? report::Json() : report::Json(static_cast<std::uint64_t>(r.parent)));
        s.set("start_ms", r.start_ms);
        s.set("end_ms", r.end_ms);
        if (r.count != 1) s.set("count", r.count);
        arr.push_back(std::move(s));
    }
    report::Json doc = report::Json::object();
    doc.set("spans", std::move(arr));
    return doc;
}

void PhaseClock::start(SpanLog* log, std::uint64_t job, std::int64_t parent) {
    log_ = log;
    job_ = job;
    parent_ = parent;
    detail_ = 0;
    open_.clear();
    for (auto& s : self_ms_) s = 0.0;
    for (auto& f : fold_) f = Fold{};
    scoped_ms_ = 0.0;
}

void PhaseClock::finish() {
    for (unsigned p = 0; p < trace::kPhaseCount; ++p) {
        const Fold& f = fold_[p];
        if (f.count == 0) continue;
        log_->add(trace::phase_name(static_cast<trace::Phase>(p)), job_, parent_,
                  f.first_start_ms, f.first_start_ms + f.total_ms, f.count);
    }
}

void PhaseClock::phase_begin(trace::Phase phase, unsigned /*label*/) {
    const Clock::time_point now = Clock::now();
    std::int64_t span = -1;
    if (detail_ < kMaxDetail) {
        ++detail_;
        const std::int64_t parent =
            !open_.empty() && open_.back().span >= 0 ? open_.back().span : parent_;
        const double t = log_->ms_at(now);
        span = log_->add(trace::phase_name(phase), job_, parent, t, t);
    }
    open_.push_back({phase, now, 0.0, span});
}

void PhaseClock::phase_end(trace::Phase phase) {
    const Clock::time_point now = Clock::now();
    // Scopes close LIFO (trace::PhaseScope is RAII); ignore a stray end.
    if (open_.empty() || open_.back().phase != phase) return;
    const Open top = open_.back();
    open_.pop_back();
    const double dur = ms_between(top.start, now);
    self_ms_[static_cast<unsigned>(phase)] += dur - top.child_ms;
    if (open_.empty()) {
        scoped_ms_ += dur;
    } else {
        open_.back().child_ms += dur;
    }
    if (top.span >= 0) {
        log_->close(top.span, log_->ms_at(now));
    } else {
        Fold& f = fold_[static_cast<unsigned>(phase)];
        if (f.count++ == 0) f.first_start_ms = log_->ms_at(top.start);
        f.total_ms += dur;
    }
}

void TracedJob::add_phases(const PhaseClock& clock) {
    step_exec_ms += clock.self_ms(trace::Phase::kStepExec);
    context_move_ms += clock.self_ms(trace::Phase::kContextMove);
    deliver_ms += clock.self_ms(trace::Phase::kDeliver) +
                  clock.self_ms(trace::Phase::kDeliverSort) +
                  clock.self_ms(trace::Phase::kDeliverTranspose);
    dummy_ms += clock.self_ms(trace::Phase::kDummyStep);
    scoped_ms += clock.scoped_ms();
}

void LayerSamples::reduce(Layers* l) const {
    const auto med = [this](double TracedJob::*field) {
        std::vector<double> xs;
        for (const TracedJob& t : traced) xs.push_back(t.*field);
        return median(std::move(xs));
    };
    std::vector<double> outside, dummy_share;
    for (const TracedJob& t : traced) {
        outside.push_back(t.simulate_ms - t.scoped_ms);
        dummy_share.push_back(t.dummy_ms / t.total_ms);
    }
    l->job_ms_p50 = med(&TracedJob::total_ms);
    l->build_ms = med(&TracedJob::build_ms);
    l->smooth_ms = med(&TracedJob::smooth_ms);
    l->simulate_ms = med(&TracedJob::simulate_ms);
    l->step_exec_ms = med(&TracedJob::step_exec_ms);
    l->context_move_ms = med(&TracedJob::context_move_ms);
    l->deliver_ms = med(&TracedJob::deliver_ms);
    l->dummy_share = median(dummy_share);
    l->outside_ms = median(outside);
    l->overhead_pct = 100.0 * (l->job_ms_p50 / median(untraced_ms) - 1.0);
    const double accounted = l->build_ms + l->smooth_ms + l->step_exec_ms +
                             l->context_move_ms + l->deliver_ms + med(&TracedJob::dummy_ms) +
                             l->outside_ms + med(&TracedJob::fold_ms);
    l->unaccounted_pct = 100.0 * (1.0 - accounted / l->job_ms_p50);
}

}  // namespace bench
