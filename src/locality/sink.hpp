#pragma once

/// \file sink.hpp
/// LocalitySink: a trace::Sink that feeds the simulated machine's address
/// stream (linearized by AddressStream, see address_stream.hpp) through the
/// reuse-distance engine. Its reference count equals
/// hmm::Machine::words_touched() for an HMM run, and its range word count
/// equals the machine-published bt.range_words for a BT run — invariants
/// enforced by the differential oracle and bench_micro.
///
/// Bulk events go through the engine's O(log n + b) record_range path, and
/// single-word access() events are coalesced: an ascending run of adjacent
/// addresses is held pending and flushed as one record_range when the run
/// breaks (or any bulk event / profile read arrives). Coalescing only
/// *groups* the reference stream, never reorders it, and record_range is
/// event-for-event identical to per-word record(), so the resulting profile
/// is bit-identical to the per-word reference profiler beside the oracle
/// (check/per_word_locality.hpp; a fuzz-oracle invariant). kSampled mode
/// adds SHARDS spatial sampling on top (see reuse_distance.hpp).
///
/// Null-sink discipline (PR 2) is unchanged: a machine with no sink attached
/// executes zero locality-profiling instructions; the per-word events this
/// sink consumes exist only on the read_traced/write_traced path the
/// simulators select once per run.

#include <cstdint>

#include "locality/address_stream.hpp"
#include "locality/profile.hpp"
#include "locality/reuse_distance.hpp"

namespace dbsp::locality {

struct LocalityOptions {
    using Mode = ReuseDistanceProfiler::Mode;
    Mode mode = Mode::kExact;
    /// SHARDS spatial sampling rate for kSampled; >= 1.0 degenerates to
    /// exact measurement (and a profile bit-identical to kExact).
    double sample_rate = 0.01;
};

class LocalitySink final : public AddressStream<LocalitySink> {
public:
    explicit LocalitySink(const LocalityOptions& opts = {})
        : engine_(opts.mode, opts.sample_rate) {
        profile_.set_mode(
            opts.mode == LocalityOptions::Mode::kSampled && opts.sample_rate < 1.0,
            opts.sample_rate);
    }

    /// Snapshot of the analytics with distinct_addresses filled in. Flushes
    /// the pending coalesced run first (hence non-const).
    LocalityProfile profile() {
        flush_run();
        LocalityProfile p = profile_;
        p.distinct_addresses = engine_.distinct_addresses();
        return p;
    }

    /// Total references recorded (== hmm::Machine::words_touched for an HMM
    /// run). In sampled mode this still counts *every* reference; see
    /// sampled_accesses() for the measured subset. Flushes the pending
    /// coalesced run first.
    std::uint64_t recorded_accesses() {
        flush_run();
        return engine_.accesses();
    }
    /// References that passed the sampling filter (== recorded_accesses()
    /// in exact mode).
    std::uint64_t sampled_accesses() {
        flush_run();
        return engine_.sampled_accesses();
    }

private:
    friend class AddressStream<LocalitySink>;

    void touch(trace::Addr x) {
        if (run_len_ != 0 && x == run_begin_ + run_len_) {
            ++run_len_;
            return;
        }
        flush_run();
        run_begin_ = x;
        run_len_ = 1;
    }
    void touch_range(trace::Addr begin, trace::Addr end, unsigned touches) {
        flush_run();
        engine_.record_range(begin, end, touches,
                             [this](const ReuseDistanceProfiler::Event& e,
                                    std::uint64_t n) { profile_.note_run(e, n); });
    }
    /// Flush the pending coalesced run of single-word accesses (the run is
    /// cleared first, so touch_range's own flush is a no-op).
    void flush_run() {
        if (run_len_ == 0) return;
        const std::uint64_t len = run_len_;
        run_len_ = 0;
        if (len == 1) {
            profile_.note(engine_.record(run_begin_));  // same-address fast path
        } else {
            touch_range(run_begin_, run_begin_ + len, 1);
        }
    }

    ReuseDistanceProfiler engine_;
    LocalityProfile profile_;
    trace::Addr run_begin_ = 0;
    std::uint64_t run_len_ = 0;
};

// The event handlers are instantiated once, in sink.cpp, where they inline
// the engine's range path. A copy instantiated in a large translation unit
// inlined less and ran the profile-exact benchmark ~10% slower.
extern template class AddressStream<LocalitySink>;

}  // namespace dbsp::locality
