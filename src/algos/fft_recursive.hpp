#pragma once

/// \file fft_recursive.hpp
/// The second n-DFT algorithm of Proposition 8: recursive decomposition of
/// the n-input FFT into two layers of sqrt(n) independent sqrt(n)-input
/// transforms, executed inside (log n)/2-clusters — Bailey's four-step method
/// on the D-BSP:
///
///   1. transpose within the cluster (a 0-superstep relative to the cluster);
///   2. recursive sqrt(m)-DFTs in the sub-clusters (columns, now contiguous);
///   3. twiddle by w_m^(c r') locally, transpose again;
///   4. recursive sqrt(m)-DFTs (rows);
///   5. transpose once more, yielding natural-order output.
///
/// Superstep profile: Theta(2^i) supersteps with label (1 - 1/2^i) log n for
/// 0 <= i < log log n, which gives O(log n log log n) time on
/// D-BSP(n, O(1), log x) — and, after the BT simulation with the transposes
/// delivered as rational permutations (Section 6), the optimal O(n log n).
///
/// Every transpose superstep is declared PermutationClass::kTranspose. To
/// keep all transposes square, n must be 2^(2^k) (4, 16, 256, 65536, ...);
/// clusters of size <= 4 compute the DFT directly by an all-to-all exchange.
/// Output is in natural order: processor k holds X[k].

#include <complex>

#include "model/program.hpp"

namespace dbsp::algo {

using model::ProcId;
using model::Program;
using model::StepContext;
using model::StepIndex;
using model::Word;

class FftRecursiveProgram final : public Program {
public:
    /// \p input: n complex values, with valid_size(n).
    explicit FftRecursiveProgram(std::vector<std::complex<double>> input);

    /// The sizes whose transposes all stay square: n = 2^(2^k) (4, 16, 256,
    /// 65536, ...), or n <= 4.
    static bool valid_size(std::uint64_t n);

    std::string name() const override { return "fft-recursive"; }
    std::uint64_t num_processors() const override { return input_.size(); }
    std::size_t data_words() const override { return 2; }  // re, im
    std::size_t max_messages() const override { return 4; }
    StepIndex num_supersteps() const override { return actions_.size(); }
    unsigned label(StepIndex s) const override { return actions_[s].label; }
    model::PermutationClass permutation_class(StepIndex s) const override;
    std::uint64_t permutation_grain(StepIndex s) const override;
    void init(ProcId p, std::span<Word> data) const override;
    void step(StepIndex s, ProcId p, StepContext& ctx) override;

private:
    enum class Finalize : std::uint8_t { kNone, kTakeValue, kBaseCombine };
    enum class Send : std::uint8_t { kNone, kTranspose, kBaseExchange };
    struct Action {
        unsigned label;        ///< superstep label
        Finalize finalize;     ///< how to fold the inbox into the value
        std::uint64_t fin_m;   ///< cluster size of the finalized phase
        bool twiddle;          ///< multiply by w_m^(c r') before sending
        std::uint64_t twid_m;  ///< m for the twiddle factors
        Send send;             ///< communication issued by this superstep
        std::uint64_t send_m;  ///< cluster size of the send
    };

    /// Emit the schedule of an m-point DFT in label-l clusters; the caller
    /// absorbs the trailing message (pending = how).
    void build(unsigned l, std::uint64_t m);

    std::vector<std::complex<double>> input_;
    unsigned log_v_;
    std::vector<Action> actions_;
    Finalize pending_ = Finalize::kNone;  ///< construction-time bookkeeping
    std::uint64_t pending_m_ = 0;
};

}  // namespace dbsp::algo
