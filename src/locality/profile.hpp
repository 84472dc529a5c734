#pragma once

/// \file profile.hpp
/// Derived locality analytics over a stream of reuse events:
///  * reuse-distance histogram in log2 buckets (bucket b = bit_width(d),
///    i.e. d = 0 in bucket 0, d in [2^(b-1), 2^b) in bucket b) and its CDF;
///  * Denning working-set curve w(tau), evaluated exactly at tau = 2^j from
///    a (count, sum) histogram of reuse times via the identity
///    w(tau) = (1/T) sum_i min(r_i, tau) with cold references counting tau;
///  * per-HMM-level hit ratios: level l's band [2^(l-1), 2^l) brings the
///    cumulative capacity of levels 0..l to exactly 2^l words, and under LRU
///    inclusion a reference with distance d hits within that capacity iff
///    d < 2^l iff bit_width(d) <= l — so slicing the log2 CDF at the level
///    boundaries is exact, not an approximation;
///  * the scalar locality score: mean log2(d+1) over finite-distance
///    references (0 = every reuse is immediate; cold misses are reported
///    separately and excluded from the mean).
///
/// Accounting is replay-exact: reuse times are summed in 128-bit integers
/// (associative, so any run-length grouping of the event stream folds to the
/// same bits) and the score is accumulated run-length-encoded — consecutive
/// equal distances extend a pending (distance, count) run that is flushed as
/// one count * log2(d+1) term. Both make a batched event stream fold to a
/// profile bit-identical to the per-word stream's, which the differential
/// oracle asserts via identical(). The engine's bulk path reports whole runs
/// of cells, which note_cells folds in closed form under the same contract.
///
/// Sampled mode (SHARDS): only spatially sampled references carry events;
/// sampled distances are unbiased estimates of distance * rate, so note_run
/// rescales them by 1/rate before bucketing, and the ratio denominators use
/// sampled_accesses (reuse times need no correction — the clock advances for
/// every reference). At rate 1.0 every correction is the identity and the
/// profile is bit-identical to exact mode.

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>

#include "locality/reuse_distance.hpp"
#include "report/json.hpp"

namespace dbsp::locality {

/// log2(d + 1) for d < kLog2Entries, filled from std::log2 at startup
/// (profile.cpp), so an entry has exactly the bits the call would return.
inline constexpr std::size_t kLog2Entries = 8192;
extern const std::array<double, kLog2Entries> kLog2Plus1;

/// log2(d + 1): a table read for small \p d, std::log2 beyond it.
inline double log2_plus1(std::uint64_t d) {
    return d < kLog2Entries ? kLog2Plus1[d] : std::log2(static_cast<double>(d) + 1.0);
}

struct LocalityProfile {
    /// One bucket per possible bit_width of a 64-bit distance/time.
    static constexpr unsigned kBuckets = 65;

    std::uint64_t accesses = 0;          ///< every reference, sampled or not
    std::uint64_t sampled_accesses = 0;  ///< references that carried an event
    std::uint64_t cold_misses = 0;
    std::uint64_t distinct_addresses = 0;
    double score_sum = 0.0;  ///< flushed sum of count * log2(d+1) run terms

    /// Run-length score accumulator: the current run of equal distances.
    std::uint64_t pending_distance = 0;
    std::uint64_t pending_count = 0;

    /// Sampling configuration (mirrors the engine's; affects scaling and
    /// denominators only — see file comment).
    bool sampled_mode = false;
    double sample_rate = 1.0;
    double inv_rate = 1.0;

    std::array<std::uint64_t, kBuckets> distance_count{};
    std::array<std::uint64_t, kBuckets> time_count{};  ///< finite reuse times
    /// Exact integer reuse-time sums per bucket. 128 bits: a bucket-b sum is
    /// bounded by count * 2^b and the clock itself is < 2^64, so no stream
    /// can overflow this.
    std::array<unsigned __int128, kBuckets> time_sum{};

    void set_mode(bool sampled, double rate) {
        sampled_mode = sampled;
        sample_rate = sampled ? rate : 1.0;
        inv_rate = sampled && rate > 0.0 ? 1.0 / rate : 1.0;
    }

    /// Fold one reuse event into the histograms.
    void note(const ReuseDistanceProfiler::Event& e) { note_run(e, 1); }

    /// Fold \p n consecutive identical events — bit-identical to calling
    /// note(e) n times (integer adds are associative; the score run-length
    /// state advances the same way).
    void note_run(const ReuseDistanceProfiler::Event& e, std::uint64_t n) {
        accesses += n;
        if (!e.sampled) return;
        sampled_accesses += n;
        if (e.cold) {
            // Cold contract: first-touch distance and time are *infinite* —
            // whatever the event's numeric fields hold, they never reach the
            // finite histograms or the score.
            cold_misses += n;
            return;
        }
        std::uint64_t d = e.distance;
        if (sampled_mode) {
            d = static_cast<std::uint64_t>(
                std::llround(static_cast<double>(d) * inv_rate));
        }
        distance_count[std::bit_width(d)] += n;
        push_score(d, n);
        const unsigned tb = std::bit_width(e.time);
        time_count[tb] += n;
        time_sum[tb] += static_cast<unsigned __int128>(e.time) * n;
    }

    /// Fold one run of the engine's record_range(): \p cells cells, cell j's
    /// first reference being \p first with its time advanced by j * \p step,
    /// each followed by touches - 1 immediate reuses (distance 0, time 1).
    /// Bit-identical to the per-reference note() stream. The histograms fold
    /// in closed form; where that stream flushes the score once per cell
    /// (a non-zero distance with touches > 1) the score keeps one add per
    /// cell, so no bit moves. Sampled mode, and a run whose times cross a
    /// log2 bucket, fall back to note_run.
    void note_cells(const ReuseDistanceProfiler::Event& first, std::int64_t step,
                    std::uint64_t cells, unsigned touches) {
        const std::uint64_t repeats = cells * (touches - 1);
        const auto dstep = static_cast<std::uint64_t>(step);
        const std::uint64_t last_time = first.time + (cells - 1) * dstep;
        if (!first.sampled) {
            accesses += cells * touches;
            return;
        }
        if (sampled_mode ||
            (!first.cold && std::bit_width(first.time) != std::bit_width(last_time))) {
            const ReuseDistanceProfiler::Event reuse{false, 0, 1};
            ReuseDistanceProfiler::Event e = first;
            for (std::uint64_t j = 0; j < cells; ++j, e.time += dstep) {
                note_run(e, 1);
                if (touches > 1) note_run(reuse, touches - 1);
            }
            return;
        }
        accesses += cells * touches;
        sampled_accesses += cells * touches;
        distance_count[0] += repeats;
        time_count[1] += repeats;
        time_sum[1] += repeats;
        if (first.cold) {
            cold_misses += cells;
            if (repeats != 0) push_score(0, repeats);
            return;
        }
        const std::uint64_t d = first.distance;
        distance_count[std::bit_width(d)] += cells;
        const unsigned tb = std::bit_width(first.time);
        time_count[tb] += cells;
        // Sum of the arithmetic series, exact in 128 bits (times < 2^63).
        time_sum[tb] += static_cast<unsigned __int128>(
            static_cast<__int128>(first.time) * cells +
            static_cast<__int128>(step) * (static_cast<__int128>(cells) * (cells - 1) / 2));
        if (d == 0 || touches == 1) {
            push_score(d, d == 0 ? cells * touches : cells);
            return;
        }
        // Per cell the stream is d then touches - 1 zeros: the first cell
        // may extend a carried run of d, and every later cell flushes a
        // (d, 1) run of its own.
        push_score(d, 1);
        push_score(0, touches - 1);
        const double term = log2_plus1(d);
        for (std::uint64_t j = 1; j < cells; ++j) score_sum += term;
    }

    /// Profiles are bit-identical: every counter, histogram bucket, and the
    /// score accumulator state match exactly (mode fields are excluded, so an
    /// exact profile and a rate-1.0 sampled profile of the same stream
    /// compare equal).
    bool identical(const LocalityProfile& o) const {
        return accesses == o.accesses && sampled_accesses == o.sampled_accesses &&
               cold_misses == o.cold_misses &&
               distinct_addresses == o.distinct_addresses && score_sum == o.score_sum &&
               pending_distance == o.pending_distance &&
               pending_count == o.pending_count && distance_count == o.distance_count &&
               time_count == o.time_count && time_sum == o.time_sum;
    }

    /// Mean log2(d+1) over finite-distance references; 0 when there are none.
    double locality_score() const;

    /// Fraction of references with distance < 2^level — the hit ratio of an
    /// LRU memory spanning HMM levels 0..level. Cold misses miss everywhere.
    double hit_fraction(unsigned level) const;

    /// Average working-set size w(2^j) over the stream (Denning-Schwartz).
    double working_set(unsigned j) const;

    /// Smallest L such that every finite distance is < 2^L (i.e. the highest
    /// occupied bucket index + ... = one past the last level that still adds
    /// hits). At least 1 so tables always have a row.
    unsigned max_level() const;

    /// `dbsp-locality-v2` JSON document fragment.
    report::Json to_json() const;

    /// Paper-style text report (histogram + per-level hit ratios + w(tau)).
    void print(std::FILE* out, const std::string& title) const;

private:
    /// Extend the pending score run by n references at distance d, or
    /// flush it and start a new one.
    void push_score(std::uint64_t d, std::uint64_t n) {
        if (pending_count != 0 && pending_distance == d) {
            pending_count += n;
        } else {
            flush_score();
            pending_distance = d;
            pending_count = n;
        }
    }
    void flush_score() {
        if (pending_count != 0) {
            // d = 0 contributes count * log2(1) = count * 0.0; adding +0.0 to
            // a (always non-negative, non-NaN) sum is a bitwise no-op, so the
            // dominant zero-distance runs skip the FP work entirely.
            if (pending_distance != 0) {
                score_sum +=
                    static_cast<double>(pending_count) * log2_plus1(pending_distance);
            }
            pending_count = 0;
        }
    }
    /// score_sum including the pending run, without mutating state.
    double score_total() const {
        double s = score_sum;
        if (pending_count != 0 && pending_distance != 0) {
            s += static_cast<double>(pending_count) * log2_plus1(pending_distance);
        }
        return s;
    }
    /// Sample-corrected distinct-address estimate (identity in exact mode).
    double distinct_estimate() const {
        return static_cast<double>(distinct_addresses) * (sampled_mode ? inv_rate : 1.0);
    }
};

}  // namespace dbsp::locality
