#pragma once

/// \file counters.hpp
/// Hardware performance counters via `perf_event_open(2)`: the measurement
/// side of the hardware-locality validation loop (E15). The simulation side
/// *predicts* LRU miss ratios from reuse distances (locality/cache_model.hpp);
/// this layer reads what the host PMU actually observed, so the two can be
/// compared.
///
/// Design constraints, in order:
///  * **Graceful degradation.** Containers and CI runners routinely deny the
///    syscall (perf_event_paranoid, seccomp) or virtualize the PMU away
///    (ENOENT). A CounterGroup that cannot open its events is *not an error*:
///    it reports available() == false with the errno reason, reads return
///    empty snapshots, and every downstream consumer (bench legs, gate
///    checks, dashboard rows) waives its measured checks. The env variable
///    DBSP_NO_PERF forces this path deterministically, which is how CI
///    exercises it on machines that do have a PMU.
///  * **Multiplexing correction.** We ask for more events than most PMUs have
///    slots, so the kernel time-slices them. Each event is opened with
///    PERF_FORMAT_TOTAL_TIME_ENABLED|RUNNING and scaled by
///    enabled/running on read — the standard unbiased estimate of the count
///    the event would have seen had it been scheduled the whole time. The
///    raw value and the duty cycle (running/enabled) are both reported so a
///    reader can judge the correction's weight.
///  * **Zero interference.** Counters observe; they never participate. No
///    charged cost, trace byte, or serve reply may depend on whether a group
///    is open (regression-tested by tests/perf_counters_test.cpp and the
///    bench_micro counter legs).
///
/// Each event gets its own fd (no PERF_FORMAT_GROUP): grouped events are
/// co-scheduled all-or-nothing, which wastes slots when one cache event is
/// unsupported; independent fds let each event multiplex on its own and
/// degrade per event. `inherit` extends counting to threads spawned after
/// open — dbsp_serve opens its group before it starts any connection
/// thread, so frames cover the whole process.

#include <cstdint>
#include <string>
#include <vector>

#include "report/json.hpp"

namespace dbsp::perf {

/// One event's reading. `scaled` is raw * enabled/running (the multiplexing
/// correction); `duty` is running/enabled in [0, 1], 1.0 = never descheduled.
struct CounterValue {
    std::string name;
    bool available = false;
    std::string reason;  ///< open failure (errno text) when !available
    std::uint64_t raw = 0;
    double scaled = 0.0;
    double duty = 1.0;
};

/// Point-in-time reading of a whole group. `available` means at least one
/// event opened; `reason` explains a fully-unavailable group.
struct CounterSnapshot {
    bool available = false;
    std::string reason;
    std::vector<CounterValue> values;

    const CounterValue* find(const std::string& name) const;
    /// Scaled count for \p name; \p fallback when absent or unavailable.
    double scaled(const std::string& name, double fallback = 0.0) const;
    /// scaled(numerator) / scaled(denominator); \p fallback when either is
    /// unavailable or the denominator is zero. The miss-ratio accessor:
    /// ratio("l1d_read_misses", "l1d_read_accesses").
    double ratio(const std::string& numerator, const std::string& denominator,
                 double fallback = -1.0) const;

    /// The `"counters"` JSON section shared by telemetry frames, explore
    /// artifacts, and bench documents:
    ///   {"available":bool, "reason":str?, "events":{name:{...}}}
    report::Json to_json() const;
};

/// A fixed set of hardware events measured over start()/stop() windows.
/// Construction opens the fds (or records why it couldn't); the object is
/// usable either way. Not thread-safe; one group per measuring thread.
class CounterGroup {
public:
    struct Options {
        /// Count in child threads spawned after open (daemon-wide totals).
        bool inherit = false;
    };

    CounterGroup() : CounterGroup(Options{}) {}
    explicit CounterGroup(const Options& options);
    ~CounterGroup();
    CounterGroup(const CounterGroup&) = delete;
    CounterGroup& operator=(const CounterGroup&) = delete;

    /// True when at least one event opened.
    bool available() const { return available_; }
    /// Why the group is unavailable (empty when available()).
    const std::string& reason() const { return reason_; }

    /// Reset all counters to zero and enable counting.
    void start();
    /// Disable counting (values hold until the next start()).
    void stop();
    /// Read every event, multiplex-corrected. Valid while running or after
    /// stop(). An unavailable group returns {available:false, reason}.
    CounterSnapshot read() const;

    /// Event names in snapshot order (also the JSON key order).
    static const std::vector<std::string>& event_names();

private:
    struct Event;
    std::vector<Event> events_;
    bool available_ = false;
    std::string reason_;
};

/// RAII measurement window: start() on construction, stop() on destruction.
class ScopedCount {
public:
    explicit ScopedCount(CounterGroup& group) : group_(group) { group_.start(); }
    ~ScopedCount() { group_.stop(); }
    ScopedCount(const ScopedCount&) = delete;
    ScopedCount& operator=(const ScopedCount&) = delete;

private:
    CounterGroup& group_;
};

}  // namespace dbsp::perf
