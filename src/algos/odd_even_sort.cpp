#include "algos/odd_even_sort.hpp"

#include <algorithm>

#include "util/bits.hpp"
#include "util/contracts.hpp"

namespace dbsp::algo {

OddEvenTranspositionSortProgram::OddEvenTranspositionSortProgram(std::vector<Word> keys)
    : keys_(std::move(keys)), log_v_(ilog2(keys_.size())) {
    DBSP_REQUIRE(valid_size(keys_.size()));
}

bool OddEvenTranspositionSortProgram::valid_size(std::uint64_t n) {
    return is_pow2(n) && n >= 2;
}

ProcId OddEvenTranspositionSortProgram::partner(StepIndex round, ProcId p) const {
    const std::uint64_t v = keys_.size();
    if (round % 2 == 0) {
        return p ^ 1;  // pairs (2i, 2i+1): always defined for power-of-two v
    }
    // Pairs (2i+1, 2i+2): the ends are unpaired.
    if (p == 0 || p == v - 1) return p;
    return (p % 2 == 1) ? p + 1 : p - 1;
}

unsigned OddEvenTranspositionSortProgram::label(StepIndex s) const {
    const std::uint64_t v = keys_.size();
    if (s >= v) return 0;  // final sync
    if (s % 2 == 0) {
        // Even rounds: partners differ only in bit 0 — deepest clusters.
        return log_v_ - 1;
    }
    // Odd rounds: the pair (v/2 - 1, v/2) spans the whole machine, so the
    // superstep's label is forced to 0 — no submachine locality whatsoever.
    return 0;
}

void OddEvenTranspositionSortProgram::step(StepIndex s, ProcId p, StepContext& ctx) {
    // Absorb the previous round's exchange.
    if (s > 0) {
        const ProcId prev_partner = partner(s - 1, p);
        if (prev_partner != p) {
            DBSP_REQUIRE(ctx.inbox_size() == 1);
            const Word theirs = ctx.inbox(0).payload0;
            const Word mine = ctx.load(0);
            // Lower index keeps the minimum.
            ctx.store(0, p < prev_partner ? std::min(mine, theirs)
                                          : std::max(mine, theirs));
            ctx.charge_ops(1);
        } else {
            (void)ctx.inbox_size();  // consume (empty) inbox for uniformity
        }
    }
    const std::uint64_t v = keys_.size();
    if (s >= v) return;  // final sync
    const ProcId q = partner(s, p);
    if (q != p) ctx.send(q, ctx.load(0));
}

}  // namespace dbsp::algo
