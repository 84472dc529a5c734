#pragma once

/// \file odd_even_sort.hpp
/// Odd-even transposition sort as a D-BSP program — the *anti-case-study*.
///
/// The network sorts n keys in n rounds of neighbour compare-exchanges, which
/// is fine-grained parallelism with no submachine structure at all: every odd
/// round pairs processors (2i+1, 2i+2), and the middle such pair straddles the
/// root of the cluster tree, so odd rounds are 0-supersteps. The D-BSP time is
/// Theta(n g(mu n)) and the Theorem 5 simulation inherits a Theta(n^2)-ish
/// cost — whereas bitonic sorting, solving the same problem with structured
/// (submachine-local) parallelism, simulates to Theta(n^(1+alpha)).
///
/// This contrast is the point of the paper's introduction: it is not
/// parallelism per se that becomes locality of reference, but *submachine
/// locality*. Experiment E13 measures the gap.

#include "model/program.hpp"

namespace dbsp::algo {

using model::ProcId;
using model::Program;
using model::StepContext;
using model::StepIndex;
using model::Word;

class OddEvenTranspositionSortProgram final : public Program {
public:
    /// \p keys: one per processor, with valid_size(keys.size()).
    explicit OddEvenTranspositionSortProgram(std::vector<Word> keys);

    /// True iff the network can sort \p n keys: a power of two, at least 2
    /// (a 1-key network has no exchanges).
    static bool valid_size(std::uint64_t n);

    std::string name() const override { return "odd-even-transposition-sort"; }
    std::uint64_t num_processors() const override { return keys_.size(); }
    std::size_t data_words() const override { return 1; }
    std::size_t max_messages() const override { return 1; }
    StepIndex num_supersteps() const override { return keys_.size() + 1; }
    unsigned label(StepIndex s) const override;
    void init(ProcId p, std::span<Word> data) const override { data[0] = keys_[p]; }
    void step(StepIndex s, ProcId p, StepContext& ctx) override;

private:
    /// Partner of p in round r, or p itself if unpaired this round.
    ProcId partner(StepIndex round, ProcId p) const;

    std::vector<Word> keys_;
    unsigned log_v_;
};

}  // namespace dbsp::algo
