#pragma once

/// \file per_word_locality.hpp
/// The per-word reference profiler the differential oracle holds
/// locality::LocalitySink against: the same address stream (linearized by
/// locality::AddressStream), fed one reference at a time through
/// ReuseDistanceProfiler::record() — no coalescing, no batched engine path.
/// Slow by design; exact mode only.

#include "locality/address_stream.hpp"
#include "locality/profile.hpp"

namespace dbsp::check {

class PerWordLocalitySink final : public locality::AddressStream<PerWordLocalitySink> {
public:
    /// Analytics of the references seen so far, distinct_addresses filled in.
    locality::LocalityProfile profile() const {
        locality::LocalityProfile p = profile_;
        p.distinct_addresses = engine_.distinct_addresses();
        return p;
    }

private:
    friend class locality::AddressStream<PerWordLocalitySink>;

    void touch(trace::Addr x) { profile_.note(engine_.record(x)); }

    locality::ReuseDistanceProfiler engine_;
    locality::LocalityProfile profile_;
};

}  // namespace dbsp::check
