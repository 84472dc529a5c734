#include "workloads/transpose_program.hpp"

#include "util/bits.hpp"
#include "util/contracts.hpp"

namespace dbsp::algo {

TransposeProgram::TransposeProgram(std::vector<Word> values, std::size_t rounds)
    : values_(std::move(values)), rounds_(rounds) {
    DBSP_REQUIRE(is_pow2(values_.size()));
    DBSP_REQUIRE(ilog2(values_.size()) % 2 == 0);  // square grid
    DBSP_REQUIRE(rounds_ >= 1);
    side_ = std::uint64_t{1} << (ilog2(values_.size()) / 2);
}

void TransposeProgram::step(StepIndex s, ProcId p, StepContext& ctx) {
    if (ctx.inbox_size() > 0) {
        ctx.store(0, ctx.inbox(0).payload0);
    }
    if (s >= rounds_) return;  // final sync
    const ProcId dest = (p % side_) * side_ + p / side_;
    ctx.send(dest, ctx.load(0));
}

}  // namespace dbsp::algo
