#include "algos/fft_recursive.hpp"

#include <bit>
#include <cmath>
#include <numbers>

#include "util/bits.hpp"
#include "util/contracts.hpp"

namespace dbsp::algo {

namespace {

std::complex<double> unit_root(std::uint64_t m, std::uint64_t exponent) {
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>(exponent) / static_cast<double>(m);
    return {std::cos(angle), std::sin(angle)};
}

std::uint64_t transpose_index(std::uint64_t x, std::uint64_t side) {
    return (x % side) * side + x / side;
}

}  // namespace

FftRecursiveProgram::FftRecursiveProgram(std::vector<std::complex<double>> input)
    : input_(std::move(input)), log_v_(ilog2(input_.size())) {
    DBSP_REQUIRE(valid_size(input_.size()));
    build(0, input_.size());
    actions_.push_back(Action{0, pending_, pending_m_, false, 0, Send::kNone, 0});
}

bool FftRecursiveProgram::valid_size(std::uint64_t n) {
    // The recursion halves log m; every split must stay square.
    return is_pow2(n) && (ilog2(n) <= 2 || is_pow2(ilog2(n)));
}

void FftRecursiveProgram::build(unsigned l, std::uint64_t m) {
    if (m <= 4) {
        actions_.push_back(
            Action{l, pending_, pending_m_, false, 0, Send::kBaseExchange, m});
        pending_ = Finalize::kBaseCombine;
        pending_m_ = m;
        return;
    }
    const unsigned half_log = ilog2(m) / 2;
    const std::uint64_t root_m = std::uint64_t{1} << half_log;
    // Step 1: transpose, so columns become contiguous sub-clusters.
    actions_.push_back(Action{l, pending_, pending_m_, false, 0, Send::kTranspose, m});
    pending_ = Finalize::kTakeValue;
    pending_m_ = m;
    build(l + half_log, root_m);  // column DFTs
    // Step 2: twiddle + transpose, so rows become contiguous sub-clusters.
    actions_.push_back(Action{l, pending_, pending_m_, true, m, Send::kTranspose, m});
    pending_ = Finalize::kTakeValue;
    pending_m_ = m;
    build(l + half_log, root_m);  // row DFTs
    // Step 3: final transpose for natural output order.
    actions_.push_back(Action{l, pending_, pending_m_, false, 0, Send::kTranspose, m});
    pending_ = Finalize::kTakeValue;
    pending_m_ = m;
}

model::PermutationClass FftRecursiveProgram::permutation_class(StepIndex s) const {
    return actions_[s].send == Send::kTranspose ? model::PermutationClass::kTranspose
                                                : model::PermutationClass::kGeneral;
}

std::uint64_t FftRecursiveProgram::permutation_grain(StepIndex s) const {
    return actions_[s].send == Send::kTranspose ? actions_[s].send_m : 0;
}

void FftRecursiveProgram::init(ProcId p, std::span<Word> data) const {
    data[0] = std::bit_cast<Word>(input_[p].real());
    data[1] = std::bit_cast<Word>(input_[p].imag());
}

void FftRecursiveProgram::step(StepIndex s, ProcId p, StepContext& ctx) {
    const Action& act = actions_[s];
    std::complex<double> value(ctx.load_double(0), ctx.load_double(1));

    switch (act.finalize) {
        case Finalize::kNone:
            break;
        case Finalize::kTakeValue: {
            DBSP_REQUIRE(ctx.inbox_size() == 1);
            const model::Message m = ctx.inbox(0);
            value = {std::bit_cast<double>(m.payload0), std::bit_cast<double>(m.payload1)};
            break;
        }
        case Finalize::kBaseCombine: {
            // Direct m-point DFT from the all-to-all exchange: this processor
            // computes coefficient k of its (aligned) fin_m-cluster.
            const std::uint64_t m = act.fin_m;
            const std::uint64_t k = p & (m - 1);
            const std::size_t received = ctx.inbox_size();
            DBSP_REQUIRE(received == m - 1);
            std::complex<double> sum = value * unit_root(m, (k * k) % m);
            for (std::size_t i = 0; i < received; ++i) {
                const model::Message msg = ctx.inbox(i);
                const std::uint64_t j = msg.src & (m - 1);
                const std::complex<double> xj(std::bit_cast<double>(msg.payload0),
                                              std::bit_cast<double>(msg.payload1));
                sum += xj * unit_root(m, (j * k) % m);
            }
            value = sum;
            ctx.charge_ops(8 * m);
            break;
        }
    }

    if (act.twiddle) {
        // value is Y[c][r'] at in-cluster position x = c * sqrt(m) + r'.
        const std::uint64_t m = act.twid_m;
        const std::uint64_t side = std::uint64_t{1} << (ilog2(m) / 2);
        const std::uint64_t x = p & (m - 1);
        value *= unit_root(m, ((x / side) * (x % side)) % m);
        ctx.charge_ops(8);
    }

    ctx.store_double(0, value.real());
    ctx.store_double(1, value.imag());

    switch (act.send) {
        case Send::kNone:
            break;
        case Send::kTranspose: {
            const std::uint64_t m = act.send_m;
            const std::uint64_t side = std::uint64_t{1} << (ilog2(m) / 2);
            const ProcId cluster_first = p & ~(m - 1);
            ctx.send_double(cluster_first + transpose_index(p & (m - 1), side),
                            value.real(), value.imag());
            break;
        }
        case Send::kBaseExchange: {
            const std::uint64_t m = act.send_m;
            const ProcId cluster_first = p & ~(m - 1);
            for (std::uint64_t j = 0; j < m; ++j) {
                if (cluster_first + j != p) {
                    ctx.send_double(cluster_first + j, value.real(), value.imag());
                }
            }
            break;
        }
    }
}

}  // namespace dbsp::algo
