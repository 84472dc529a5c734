#pragma once

/// \file matmul.hpp
/// The n-MM algorithm of Proposition 7 (Fig. 3): semiring multiplication of
/// two sqrt(n) x sqrt(n) matrices on n processors via the standard
/// decomposition into eight (n/4)-MM subproblems solved in two rounds by the
/// four 2-clusters, recursively.
///
/// Layout: processor p holds the A, B and C entries at Morton position p
/// (row = odd bits, col = even bits), so the four quadrants of the matrices
/// are exactly the four 2-clusters, recursively at every level — submachine
/// locality falls straight out of the index encoding.
///
/// Superstep profile: Theta(2^i) supersteps with label 2i for each level i
/// (the data-routing 0-supersteps of the recursion, relative to the level's
/// clusters), giving the Proposition 7 running times
///   O(n^alpha) (alpha > 1/2), O(sqrt n log n) (alpha = 1/2),
///   O(sqrt n) (alpha < 1/2) on x^alpha, and O(sqrt n) on log x.
///
/// Arithmetic is over the (mod 2^64) semiring of uint64 words, so results are
/// exactly comparable with a serial reference.

#include "model/program.hpp"

namespace dbsp::algo {

using model::ProcId;
using model::Program;
using model::StepContext;
using model::StepIndex;
using model::Word;

class MatMulProgram final : public Program {
public:
    /// \p a, \p b: n-element inputs in Morton order, with valid_size(n).
    MatMulProgram(std::vector<Word> a, std::vector<Word> b);

    /// The processor counts the recursion supports: powers of 4.
    static bool valid_size(std::uint64_t n);

    std::string name() const override { return "matmul"; }
    std::uint64_t num_processors() const override { return a_.size(); }
    std::size_t data_words() const override { return 3; }  // a, b, c
    std::size_t max_messages() const override { return 2; }
    StepIndex num_supersteps() const override { return actions_.size(); }
    unsigned label(StepIndex s) const override { return actions_[s].label; }
    void init(ProcId p, std::span<Word> data) const override;
    void step(StepIndex s, ProcId p, StepContext& ctx) override;

private:
    enum class Kind : std::uint8_t {
        kRoute,    ///< exchange A/B quadrant tokens between sibling clusters
        kLeaf,     ///< c += a * b on a single processor
        kFinal,    ///< global synchronization (absorb only)
    };
    struct Action {
        Kind kind;
        unsigned label;     ///< superstep label
        unsigned depth;     ///< recursion depth d (clusters of label 2d)
        std::uint8_t from;  ///< token configuration before the route (0..2)
        std::uint8_t to;    ///< token configuration after the route
    };

    void build(unsigned depth);
    void absorb(ProcId p, StepContext& ctx);

    std::vector<Word> a_, b_;
    unsigned log_v_;
    std::vector<Action> actions_;
};

}  // namespace dbsp::algo
