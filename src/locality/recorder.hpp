#pragma once

/// \file recorder.hpp
/// RecordingSink: captures the simulated machine's address stream verbatim,
/// linearized by the same AddressStream base that feeds LocalitySink (see
/// address_stream.hpp). So a RecordingSink and a LocalitySink attached to
/// the same run see the same reference stream in the same order — replaying
/// the recorded stream through a brute-force LRU cache (tests) or through a
/// host array under hardware counters (bench_e15) measures the very stream
/// the MRC predictor was computed from.

#include <algorithm>
#include <vector>

#include "locality/address_stream.hpp"

namespace dbsp::locality {

class RecordingSink final : public AddressStream<RecordingSink> {
public:
    const std::vector<trace::Addr>& stream() const { return stream_; }

    /// One past the highest address touched (the footprint extent a replay
    /// array must cover). 0 on an empty stream.
    trace::Addr extent() const {
        trace::Addr top = 0;
        for (trace::Addr x : stream_) top = std::max(top, x + 1);
        return top;
    }

    void clear() { stream_.clear(); }

private:
    friend class AddressStream<RecordingSink>;

    void touch(trace::Addr x) { stream_.push_back(x); }

    std::vector<trace::Addr> stream_;
};

}  // namespace dbsp::locality
