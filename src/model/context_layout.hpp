#pragma once

/// \file context_layout.hpp
/// Fixed word layout of a D-BSP processor context. The paper requires message
/// buffers to be part of each processor's local memory ("buffers for incoming
/// and outgoing messages are provided as part of the processor's local
/// memory"), which also caps the relation degree at h <= mu. The layout is:
///
///   [0, D)                         user data words
///   [D]                            outgoing message count
///   [D+1, D+1+3B)                  outgoing records: (dest, payload0, payload1)
///   [D+1+3B, D+1+6B)               incoming records: (src, payload0, payload1)
///   [D+1+6B]                       incoming message count
///
/// so the context size is mu = D + 2 + 6B words. The incoming count sits
/// *after* the incoming records so that a context image can be produced as a
/// single sequential stream (the BT simulator rebuilds contexts from sorted
/// records in one forward pass). Both the direct D-BSP machine and the HMM/BT
/// simulators operate on this exact layout, which is what makes bit-for-bit
/// functional equivalence between them testable.

#include "model/types.hpp"

namespace dbsp::model {

struct ContextLayout {
    std::size_t data_words = 0;    ///< D: user-visible words.
    std::size_t max_messages = 0;  ///< B: per-superstep buffer capacity per direction.

    static constexpr std::size_t kRecordWords = 3;

    constexpr std::size_t out_count_offset() const { return data_words; }
    constexpr std::size_t out_records_offset() const { return data_words + 1; }
    constexpr std::size_t in_records_offset() const {
        return data_words + 1 + kRecordWords * max_messages;
    }
    constexpr std::size_t in_count_offset() const {
        return in_records_offset() + kRecordWords * max_messages;
    }

    /// Total context size mu in words.
    constexpr std::size_t context_words() const {
        return data_words + 2 + 2 * kRecordWords * max_messages;
    }

    constexpr std::size_t out_record_offset(std::size_t k) const {
        return out_records_offset() + kRecordWords * k;
    }
    constexpr std::size_t in_record_offset(std::size_t k) const {
        return in_records_offset() + kRecordWords * k;
    }
};

}  // namespace dbsp::model
