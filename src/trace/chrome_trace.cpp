#include "trace/chrome_trace.hpp"

namespace dbsp::trace {

void ChromeTraceSink::phase_begin(Phase phase, unsigned label) {
    events_.push_back(Event{'B', phase, label, now_});
}

void ChromeTraceSink::phase_end(Phase phase) { events_.push_back(Event{'E', phase, 0, now_}); }

void ChromeTraceSink::superstep(unsigned label, std::uint64_t /*tau*/, std::size_t /*h*/,
                                double /*comm_arg*/, double cost) {
    // The complete ('X') event spans [now, now + cost] in model time.
    events_.push_back(Event{'X', Phase::kSuperstep, label, now_, cost});
    now_ += cost;
}

void ChromeTraceSink::append_events(std::FILE* out, bool* first) const {
    for (const Event& e : events_) {
        if (!*first) std::fprintf(out, ",\n");
        *first = false;
        if (e.type == 'B') {
            std::fprintf(out,
                         "{\"ph\":\"B\",\"pid\":1,\"tid\":\"%s\",\"ts\":%.17g,"
                         "\"name\":\"%s\",\"args\":{\"label\":%u}}",
                         track_.c_str(), e.ts, phase_name(e.phase), e.label);
        } else if (e.type == 'E') {
            std::fprintf(out, "{\"ph\":\"E\",\"pid\":1,\"tid\":\"%s\",\"ts\":%.17g}",
                         track_.c_str(), e.ts);
        } else {
            std::fprintf(out,
                         "{\"ph\":\"X\",\"pid\":1,\"tid\":\"%s\",\"ts\":%.17g,"
                         "\"dur\":%.17g,\"name\":\"%s\",\"args\":{\"label\":%u}}",
                         track_.c_str(), e.ts, e.dur, phase_name(e.phase), e.label);
        }
    }
}

void ChromeTraceSink::write_merged(std::span<const ChromeTraceSink* const> sinks,
                                   std::FILE* out) {
    std::fprintf(out, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    bool first = true;
    for (const ChromeTraceSink* sink : sinks) {
        if (sink != nullptr) sink->append_events(out, &first);
    }
    std::fprintf(out, "\n]}\n");
}

bool ChromeTraceSink::write_merged(std::span<const ChromeTraceSink* const> sinks,
                                   const std::string& path) {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    write_merged(sinks, f);
    std::fclose(f);
    return true;
}

}  // namespace dbsp::trace
