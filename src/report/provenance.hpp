#pragma once

/// \file provenance.hpp
/// The provenance envelope stamped onto every JSON artifact the repo emits
/// (experiment results, BENCH_experiments.json, BENCH_micro.json): enough
/// context to audit a committed baseline — which tree built it, how, on how
/// many threads it ran, and on what host (CPU count, and whether hardware
/// counters opened).

#include <string>
#include <vector>

#include "report/json.hpp"

namespace dbsp::report {

/// Wall-clock record of one timed section of a bench binary (a sweep, a
/// serial trace re-run, ...). Legs record the *actual* worker count the
/// section ran on, so a committed artifact shows whether a baseline was
/// produced serially or in parallel. Wall time is informational only —
/// the regression gate never compares it (model costs are what must be
/// bit-stable; seconds vary by host).
struct ProvenanceLeg {
    std::string name;
    double wall_seconds = 0.0;
    std::uint64_t threads = 1;  ///< worker count the leg actually used

    Json to_json() const;
    static ProvenanceLeg from_json(const Json& j);
};

struct Provenance {
    std::string git_sha;     ///< configure-time git SHA ("unknown" outside a checkout)
    std::string build_type;  ///< CMAKE_BUILD_TYPE
    std::string compiler;    ///< compiler id + version
    std::uint64_t threads = 1;  ///< harness worker count (util::default_threads)
    std::uint64_t nproc = 0;    ///< online CPUs of the host (0 = not recorded)
    /// Whether a perf::CounterGroup opened at least one hardware counter
    /// (false when not recorded).
    bool counters_available = false;
    std::string timestamp;   ///< UTC, ISO 8601
    /// Per-leg wall times (empty for binaries that don't record any).
    std::vector<ProvenanceLeg> legs;

    /// Collect the envelope for the current process/build.
    static Provenance collect();

    Json to_json() const;

    /// Parse from the "provenance" object of an artifact. Missing fields
    /// default to "unknown"/0/false — old artifacts without an envelope, or
    /// without the host fields, still load.
    static Provenance from_json(const Json& j);
};

}  // namespace dbsp::report
