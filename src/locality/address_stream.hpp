#pragma once

/// \file address_stream.hpp
/// AddressStream: the one place where charge events are linearized into the
/// simulated machine's address stream — the reference sequence whose reuse
/// distances (Iacono et al., "Locality", arXiv:1902.07928) the profiler
/// measures. The conventions reproduce the machines' own word accounting:
///  * access touches its one word;
///  * access_log touches base + i for each log entry i, in log order;
///  * access_range touches [begin, end) once per cell, ascending;
///  * block_op touches each range in the given order, each cell `touches`
///    times in a row (a swap therefore contributes 4*len references: two per
///    cell of each block, exactly matching words_touched);
///  * block_transfer touches the source range, then the destination range,
///    once per cell each.
/// So the stream's length equals hmm::Machine::words_touched() for an HMM
/// run, and its access_range words equal bt.range_words, the registry
/// counter bt::Machine publishes, for a BT run.
///
/// A CRTP base, so the linearization adds no virtual call per event: Derived
/// receives the stream through non-virtual hooks,
///   void touch(Addr x);                                        // required
///   void touch_range(Addr begin, Addr end, unsigned touches);  // optional
/// The default touch_range expands a range into touch() calls in stream
/// order; a Derived that consumes whole ranges at once (LocalitySink's
/// batched engine path) defines its own. Charge-only events (charge,
/// messages, superstep, phase scopes) touch no memory and are ignored.

#include <cstdint>
#include <initializer_list>
#include <span>

#include "trace/sink.hpp"

namespace dbsp::locality {

template <typename Derived>
class AddressStream : public trace::Sink {
public:
    void access(trace::Addr x, double) final { self().touch(x); }

    void access_log(std::span<const double>, trace::Addr base,
                    std::span<const std::uint32_t> touches) final {
        for (const std::uint32_t i : touches) self().touch(base + i);
    }

    void access_range(std::span<const double>, trace::Addr begin, trace::Addr end) final {
        range_words_ += end - begin;
        self().touch_range(begin, end, 1);
    }

    void block_op(std::span<const double>, double, unsigned touches,
                  std::initializer_list<trace::AddrRange> ranges) final {
        for (const trace::AddrRange& r : ranges) self().touch_range(r.begin, r.end, touches);
    }

    void block_transfer(trace::Addr src, trace::Addr dst, std::uint64_t len, double,
                        double) final {
        self().touch_range(src, src + len, 1);
        self().touch_range(dst, dst + len, 1);
    }

    /// Words from access_range events (== bt.range_words for a BT run; part
    /// of hmm.bulk_words for an HMM run).
    std::uint64_t range_words() const { return range_words_; }

protected:
    /// Each cell of [begin, end) ascending, `touches` times in a row.
    void touch_range(trace::Addr begin, trace::Addr end, unsigned touches) {
        for (trace::Addr x = begin; x < end; ++x) {
            for (unsigned t = 0; t < touches; ++t) self().touch(x);
        }
    }

private:
    Derived& self() { return static_cast<Derived&>(*this); }

    std::uint64_t range_words_ = 0;
};

}  // namespace dbsp::locality
