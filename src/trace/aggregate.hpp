#pragma once

/// \file aggregate.hpp
/// In-memory aggregating sink with a paper-style table printer: per-level
/// cost histogram (where in the hierarchy did the charges land) and
/// per-(phase, superstep-label) breakdown (which simulation activity paid
/// them), each with its share of the charged total. This is the instrument
/// for the paper's central claim — submachine locality showing up as charge
/// concentration at the cheap levels. Ranges are split at level boundaries,
/// so a bulk op spanning several levels lands in each of them (unlike
/// hmm::Machine's hmm.words_by_level telemetry, which files a whole bulk op
/// under its deepest address). The attributed word and transfer counts are
/// audited against the machines' own integer counters.

#include <cstdint>
#include <cstdio>
#include <map>
#include <span>
#include <vector>

#include "trace/sink.hpp"

namespace dbsp::trace {

class AggregateSink final : public Sink {
public:
    struct LevelStats {
        std::uint64_t words = 0;
        double cost = 0.0;
    };
    struct PhaseKey {
        Phase phase = Phase::kNone;
        unsigned label = 0;
        bool operator<(const PhaseKey& o) const {
            return phase != o.phase ? phase < o.phase : label < o.label;
        }
    };
    struct PhaseStats {
        std::uint64_t scopes = 0;  ///< phase_begin count (kSuperstep: supersteps)
        std::uint64_t words = 0;
        double cost = 0.0;
    };

    void access(Addr x, double cost) override;
    void access_range(std::span<const double> prefix, Addr begin, Addr end) override;
    void charge(double cost) override;
    void block_op(std::span<const double> prefix, double delta, unsigned touches,
                  std::initializer_list<AddrRange> ranges) override;
    void block_transfer(Addr src, Addr dst, std::uint64_t len, double latency,
                        double delta) override;
    void messages(std::uint64_t count) override;
    void superstep(unsigned label, std::uint64_t tau, std::size_t h, double comm_arg,
                   double cost) override;
    void phase_begin(Phase phase, unsigned label) override;
    void phase_end(Phase phase) override;

    /// Aggregated views (levels keyed by hierarchy level; kNoLevel collects
    /// pure-compute charges).
    const std::map<unsigned, LevelStats>& levels() const { return levels_; }
    const std::map<PhaseKey, PhaseStats>& phases() const { return phases_; }
    std::uint64_t block_transfers() const { return transfers_; }
    std::uint64_t transfer_volume() const { return transfer_volume_; }
    std::uint64_t message_count() const { return messages_; }

    /// Words attributed to memory levels: one per cell touch, plus one per
    /// block transfer for its latency access. Equals
    /// hmm::Machine::words_touched for an HMM run.
    std::uint64_t attributed_words() const { return words_; }

    /// Sum of attributed bucket costs. The buckets partition the charged
    /// events but sum them in their own order, so this equals the machine's
    /// charged cost only up to floating-point reassociation.
    double attributed_cost() const { return attributed_; }

    /// Paper-style report; shares are of \p charged_cost, the executor's own
    /// total, which the header prints next to the attributed sum.
    void print(std::FILE* out, double charged_cost) const;

private:
    void bucket(unsigned level, std::uint64_t words, double cost);

    std::map<unsigned, LevelStats> levels_;
    std::map<PhaseKey, PhaseStats> phases_;
    std::vector<PhaseKey> stack_;
    std::uint64_t words_ = 0;
    double attributed_ = 0.0;
    std::uint64_t transfers_ = 0;
    std::uint64_t transfer_volume_ = 0;
    std::uint64_t messages_ = 0;

    PhaseKey current_() const { return stack_.empty() ? PhaseKey{} : stack_.back(); }
};

}  // namespace dbsp::trace
