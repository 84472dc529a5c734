#pragma once

/// \file collectives.hpp
/// Elementary tree-structured D-BSP programs: broadcast, sum-reduction and
/// exclusive prefix sums. They are not case studies from the paper's
/// evaluation, and no shipped binary runs them; the tests use them because
/// they exercise the full label range 0..log v - 1 with h = 1 relations and
/// have answers that are easy to check.

#include "model/program.hpp"

namespace dbsp::algo {

using model::ProcId;
using model::Program;
using model::StepContext;
using model::StepIndex;
using model::Word;

/// Binomial-tree broadcast of processor 0's input word to everyone.
/// Superstep s (label s) doubles the set of informed processors; data word 0
/// holds the value, word 1 a has-value flag.
class BroadcastProgram final : public Program {
public:
    explicit BroadcastProgram(std::uint64_t v, Word value);

    std::string name() const override { return "broadcast"; }
    std::uint64_t num_processors() const override { return v_; }
    std::size_t data_words() const override { return 2; }
    std::size_t max_messages() const override { return 1; }
    StepIndex num_supersteps() const override { return log_v_ + 1; }
    unsigned label(StepIndex s) const override {
        return s < log_v_ ? static_cast<unsigned>(s) : 0u;
    }
    void init(ProcId p, std::span<Word> data) const override;
    void step(StepIndex s, ProcId p, StepContext& ctx) override;

private:
    std::uint64_t v_;
    unsigned log_v_;
    Word value_;
};

/// Binary-tree sum reduction: every processor contributes its input word;
/// processor 0 ends with the total (mod 2^64). Labels descend from
/// log v - 1 to 0 (pairs at distance 2^s combine in superstep s).
class ReduceProgram final : public Program {
public:
    /// \p inputs must have one word per processor.
    explicit ReduceProgram(std::vector<Word> inputs);

    std::string name() const override { return "reduce"; }
    std::uint64_t num_processors() const override { return inputs_.size(); }
    std::size_t data_words() const override { return 1; }
    std::size_t max_messages() const override { return 1; }
    StepIndex num_supersteps() const override { return log_v_ + 1; }
    unsigned label(StepIndex s) const override {
        return s < log_v_ ? static_cast<unsigned>(log_v_ - 1 - s) : 0u;
    }
    void init(ProcId p, std::span<Word> data) const override;
    void step(StepIndex s, ProcId p, StepContext& ctx) override;

private:
    std::vector<Word> inputs_;
    unsigned log_v_;
};

/// Blelloch-style exclusive prefix sum (mod 2^64): processor p ends with
/// sum of inputs of processors < p. Up-sweep labels descend log v-1 .. 0,
/// down-sweep labels ascend 0 .. log v-1, then a final global sync.
/// Data words: 0 = running value, 1 = tree-cell value.
class PrefixSumProgram final : public Program {
public:
    explicit PrefixSumProgram(std::vector<Word> inputs);

    std::string name() const override { return "prefix-sum"; }
    std::uint64_t num_processors() const override { return inputs_.size(); }
    std::size_t data_words() const override { return 2; }
    std::size_t max_messages() const override { return 2; }
    StepIndex num_supersteps() const override { return 2 * log_v_ + 1; }
    unsigned label(StepIndex s) const override;
    void init(ProcId p, std::span<Word> data) const override;
    void step(StepIndex s, ProcId p, StepContext& ctx) override;

private:
    std::vector<Word> inputs_;
    unsigned log_v_;
};

}  // namespace dbsp::algo
