#include "algos/matmul.hpp"

#include "util/bits.hpp"
#include "util/contracts.hpp"

namespace dbsp::algo {

namespace {

/// Quadrant token tables (Fig. 3). Quadrants are indexed by their two Morton
/// bits: 0 = top-left (A11), 1 = top-right (A12), 2 = bottom-left (A21),
/// 3 = bottom-right (A22). kTokenA[cfg][q] = which A-quadrant the processors
/// of quadrant q hold in configuration cfg (0 = initial, 1 = round 1,
/// 2 = round 2); likewise for B. Configurations realize
///   round 1: C_q += A-part * B-part with products A11B11, A12B22, A22B21, A21B12
///   round 2: products A12B21, A11B12, A21B11, A22B22
/// so quadrant q accumulates exactly the two products of C_q.
constexpr std::uint8_t kTokenA[3][4] = {{0, 1, 2, 3}, {0, 1, 3, 2}, {1, 0, 2, 3}};
constexpr std::uint8_t kTokenB[3][4] = {{0, 1, 2, 3}, {0, 3, 2, 1}, {2, 1, 0, 3}};

}  // namespace

MatMulProgram::MatMulProgram(std::vector<Word> a, std::vector<Word> b)
    : a_(std::move(a)), b_(std::move(b)), log_v_(ilog2(a_.size())) {
    DBSP_REQUIRE(valid_size(a_.size()));
    DBSP_REQUIRE(a_.size() == b_.size());
    build(0);
    actions_.push_back(Action{Kind::kFinal, 0, 0, 0, 0});
}

bool MatMulProgram::valid_size(std::uint64_t n) { return is_pow2(n) && ilog2(n) % 2 == 0; }

void MatMulProgram::build(unsigned depth) {
    if (2 * depth == log_v_) {
        actions_.push_back(Action{Kind::kLeaf, log_v_, depth, 0, 0});
        return;
    }
    const auto d = static_cast<unsigned>(depth);
    actions_.push_back(Action{Kind::kRoute, 2 * d, d, 0, 1});
    build(depth + 1);
    actions_.push_back(Action{Kind::kRoute, 2 * d, d, 1, 2});
    build(depth + 1);
    actions_.push_back(Action{Kind::kRoute, 2 * d, d, 2, 0});  // restore
}

void MatMulProgram::init(ProcId p, std::span<Word> data) const {
    data[0] = a_[p];
    data[1] = b_[p];
    data[2] = 0;
}

void MatMulProgram::absorb(ProcId p, StepContext& ctx) {
    (void)p;
    const std::size_t n = ctx.inbox_size();
    for (std::size_t k = 0; k < n; ++k) {
        const model::Message m = ctx.inbox(k);
        ctx.store(m.payload1 == 0 ? 0 : 1, m.payload0);
    }
}

void MatMulProgram::step(StepIndex s, ProcId p, StepContext& ctx) {
    const Action& act = actions_[s];
    absorb(p, ctx);
    switch (act.kind) {
        case Kind::kFinal:
            return;
        case Kind::kLeaf:
            // Semiring multiply-accumulate on the processor's scalar block.
            ctx.store(2, ctx.load(2) + ctx.load(0) * ctx.load(1));
            ctx.charge_ops(1);
            return;
        case Kind::kRoute: {
            const unsigned shift = log_v_ - 2 * act.depth - 2;
            const auto q = static_cast<std::uint8_t>((p >> shift) & 3);
            auto route = [&](const std::uint8_t table[3][4], std::size_t word, Word tag) {
                const std::uint8_t token = table[act.from][q];
                std::uint8_t q_next = 4;
                for (std::uint8_t i = 0; i < 4; ++i) {
                    if (table[act.to][i] == token) q_next = i;
                }
                DBSP_ASSERT(q_next < 4);
                if (q_next != q) {
                    const ProcId dest = (p & ~(ProcId{3} << shift)) |
                                        (static_cast<ProcId>(q_next) << shift);
                    ctx.send(dest, ctx.load(word), tag);
                }
            };
            route(kTokenA, 0, 0);
            route(kTokenB, 1, 1);
            return;
        }
    }
}

}  // namespace dbsp::algo
