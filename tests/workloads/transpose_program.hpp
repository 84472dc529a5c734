#pragma once

/// \file transpose_program.hpp
/// Matrix transposition as a one-superstep D-BSP program: v = s^2 processors
/// hold one element each in row-major order; processor r*s + c sends its
/// value to processor c*s + r. This is the paper's canonical rational
/// permutation (Section 6) in isolation — the minimal program whose BT
/// simulation can choose between sort-based and transpose-based delivery.
/// Only the tests run it, as a microscope on the E11 effect.

#include "model/program.hpp"

namespace dbsp::algo {

using model::ProcId;
using model::Program;
using model::StepContext;
using model::StepIndex;
using model::Word;

class TransposeProgram final : public Program {
public:
    /// \p values: one word per processor; the count must be an even power of
    /// two (a square grid). \p rounds transposes are performed back-to-back
    /// (an even count restores the input).
    TransposeProgram(std::vector<Word> values, std::size_t rounds = 1);

    std::string name() const override { return "transpose"; }
    std::uint64_t num_processors() const override { return values_.size(); }
    std::size_t data_words() const override { return 1; }
    std::size_t max_messages() const override { return 1; }
    StepIndex num_supersteps() const override { return rounds_ + 1; }
    unsigned label(StepIndex) const override { return 0; }
    model::PermutationClass permutation_class(StepIndex s) const override {
        return s < rounds_ ? model::PermutationClass::kTranspose
                           : model::PermutationClass::kGeneral;
    }
    std::uint64_t permutation_grain(StepIndex s) const override {
        return s < rounds_ ? values_.size() : 0;
    }
    void init(ProcId p, std::span<Word> data) const override { data[0] = values_[p]; }
    void step(StepIndex s, ProcId p, StepContext& ctx) override;

private:
    std::vector<Word> values_;
    std::size_t rounds_;
    std::uint64_t side_;
};

}  // namespace dbsp::algo
