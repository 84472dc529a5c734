/// Tests for src/perf/: CounterGroup degradation (the only path a container
/// without PMU access can exercise deterministically — DBSP_NO_PERF forces
/// it everywhere), snapshot JSON shape, accessor fallbacks, and the
/// zero-interference contract: arming counters changes no charged cost and
/// no serve-result byte.

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algos/bitonic_sort.hpp"
#include "check/program_gen.hpp"
#include "core/hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "perf/counters.hpp"
#include "serve/runner.hpp"
#include "util/rng.hpp"

namespace dbsp::perf {
namespace {

/// Scoped DBSP_NO_PERF=1: restores the prior value on destruction so the
/// kill switch never leaks into other tests.
class ScopedNoPerf {
public:
    ScopedNoPerf() {
        const char* prev = std::getenv("DBSP_NO_PERF");
        had_prev_ = prev != nullptr;
        if (had_prev_) prev_ = prev;
        ::setenv("DBSP_NO_PERF", "1", 1);
    }
    ~ScopedNoPerf() {
        if (had_prev_) {
            ::setenv("DBSP_NO_PERF", prev_.c_str(), 1);
        } else {
            ::unsetenv("DBSP_NO_PERF");
        }
    }

private:
    bool had_prev_ = false;
    std::string prev_;
};

TEST(CounterGroup, DbspNoPerfForcesDeterministicUnavailability) {
    ScopedNoPerf no_perf;
    CounterGroup group;
    EXPECT_FALSE(group.available());
    EXPECT_EQ(group.reason(), "disabled by DBSP_NO_PERF");
    // The object stays fully usable: start/stop are no-ops, read reports
    // the reason — downstream consumers waive rather than branch.
    group.start();
    group.stop();
    const CounterSnapshot snap = group.read();
    EXPECT_FALSE(snap.available);
    EXPECT_EQ(snap.reason, "disabled by DBSP_NO_PERF");
    { ScopedCount scoped(group); }  // RAII window on a dead group is safe
}

TEST(CounterGroup, EventNamesAreTheDocumentedSet) {
    const auto& names = CounterGroup::event_names();
    ASSERT_EQ(names.size(), 8u);
    EXPECT_EQ(names[0], "cycles");
    EXPECT_EQ(names[1], "instructions");
    for (const char* expected : {"l1d_read_accesses", "l1d_read_misses", "llc_accesses",
                                 "llc_misses", "dtlb_read_accesses", "dtlb_read_misses"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
            << expected;
    }
}

TEST(CounterGroup, NativeGroupReportsCoherentStateEitherWay) {
    // No PMU assumption: on bare metal the group opens, in a container it
    // degrades — both must be internally consistent.
    CounterGroup group;
    group.start();
    volatile std::uint64_t sink = 0;
    for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i;
    group.stop();
    const CounterSnapshot snap = group.read();
    EXPECT_EQ(snap.available, group.available());
    if (snap.available) {
        EXPECT_EQ(snap.values.size(), CounterGroup::event_names().size());
        for (const auto& v : snap.values) {
            if (!v.available) {
                EXPECT_FALSE(v.reason.empty()) << v.name;
                continue;
            }
            EXPECT_GE(v.duty, 0.0) << v.name;
            EXPECT_LE(v.duty, 1.0) << v.name;
            EXPECT_GE(v.scaled, 0.0) << v.name;
        }
        // A busy loop certainly retired instructions.
        EXPECT_GT(snap.scaled("instructions", 0.0), 0.0);
    } else {
        EXPECT_FALSE(snap.reason.empty());
        EXPECT_FALSE(group.reason().empty());
    }
}

TEST(CounterSnapshot, AccessorsFallBackOnMissingOrUnavailableEvents) {
    CounterSnapshot snap;  // empty: no events at all
    EXPECT_EQ(snap.find("cycles"), nullptr);
    EXPECT_EQ(snap.scaled("cycles", 42.0), 42.0);
    EXPECT_EQ(snap.ratio("l1d_read_misses", "l1d_read_accesses"), -1.0);

    CounterValue miss;
    miss.name = "l1d_read_misses";
    miss.available = true;
    miss.scaled = 10.0;
    CounterValue acc;
    acc.name = "l1d_read_accesses";
    acc.available = true;
    acc.scaled = 40.0;
    snap.values = {miss, acc};
    snap.available = true;
    EXPECT_DOUBLE_EQ(snap.ratio("l1d_read_misses", "l1d_read_accesses"), 0.25);
    // Zero denominator falls back rather than dividing.
    snap.values[1].scaled = 0.0;
    EXPECT_EQ(snap.ratio("l1d_read_misses", "l1d_read_accesses", -2.0), -2.0);
}

TEST(CounterSnapshot, JsonShapeMatchesTheSharedCountersSection) {
    {
        ScopedNoPerf no_perf;
        CounterGroup group;
        const report::Json j = group.read().to_json();
        EXPECT_FALSE(j["available"].as_bool(true));
        EXPECT_EQ(j["reason"].as_string(), "disabled by DBSP_NO_PERF");
    }
    CounterGroup native;
    native.start();
    native.stop();
    const report::Json j = native.read().to_json();
    ASSERT_TRUE(j["available"].is_bool());
    if (j["available"].as_bool()) {
        const report::Json& cycles = j["events"]["cycles"];
        ASSERT_TRUE(cycles["available"].is_bool());
        if (cycles["available"].as_bool()) {
            EXPECT_TRUE(cycles["scaled"].is_number());
            EXPECT_TRUE(cycles["duty"].is_number());
        } else {
            EXPECT_TRUE(cycles["reason"].is_string());
        }
    } else {
        EXPECT_TRUE(j["reason"].is_string());
    }
}

TEST(CounterGroup, ArmingCountersIsPureObservation) {
    // Charged cost: identical with a live (or degraded — whatever this host
    // gives us) group armed around the simulation.
    const auto f = model::AccessFunction::polynomial(0.5);
    SplitMix64 rng(5);
    std::vector<model::Word> keys(64);
    for (auto& k : keys) k = rng.next();
    const auto run_once = [&]() {
        algo::BitonicSortProgram prog(keys);
        auto sm = core::smooth(prog, core::hmm_label_set(f, prog.context_words(), 64));
        return core::HmmSimulator(f).simulate(*sm).hmm_cost;
    };
    const double plain = run_once();
    CounterGroup group;
    double counted = 0.0;
    {
        ScopedCount scoped(group);
        counted = run_once();
    }
    EXPECT_EQ(plain, counted);

    // Serve-result bytes: the full dbsp-serve-result-v1 document must be
    // byte-identical with counters armed (the daemon keeps a group running
    // for telemetry while serving deterministic replies).
    const auto spec = check::generate_spec(check::GenConfig{}, 12345);
    serve::RunOptions options;
    options.locality = locality::LocalityOptions{};
    const std::string without = serve::run_to_json(spec, options);
    CounterGroup serving;
    std::string with;
    {
        ScopedCount scoped(serving);
        with = serve::run_to_json(spec, options);
    }
    EXPECT_EQ(without, with);
}

}  // namespace
}  // namespace dbsp::perf
