#include "algos/permutation.hpp"

#include <algorithm>
#include <numeric>

#include "util/bits.hpp"
#include "util/contracts.hpp"

namespace dbsp::algo {

namespace {

/// A uniformly random permutation of the processors that fixes every
/// l-cluster setwise (Fisher-Yates within each cluster, on the cluster's
/// slice of the identity in place).
std::vector<ProcId> cluster_permutation(std::uint64_t v, unsigned l, SplitMix64& rng) {
    const std::uint64_t csize = v >> l;
    std::vector<ProcId> out(v);
    std::iota(out.begin(), out.end(), ProcId{0});
    for (std::uint64_t first = 0; first < v; first += csize) {
        ProcId* const perm = out.data() + first;
        for (std::uint64_t i = csize; i > 1; --i) {
            std::swap(perm[i - 1], perm[rng.next_below(i)]);
        }
    }
    return out;
}

}  // namespace

RandomRoutingProgram::RandomRoutingProgram(std::uint64_t v,
                                           std::vector<unsigned> round_labels,
                                           std::uint64_t seed, std::uint64_t local_ops,
                                           std::size_t fill_messages)
    : v_(v), local_ops_(local_ops), fill_messages_(fill_messages) {
    DBSP_REQUIRE(is_pow2(v));
    const unsigned log_v = ilog2(v);
    SplitMix64 rng(seed);
    // Fillers draw from an independent stream so that adding them never
    // perturbs the value-routing permutations (same seed => same result,
    // regardless of fill_messages).
    SplitMix64 fill_rng(seed ^ 0x9e3779b97f4a7c15ull);

    labels_ = round_labels;
    labels_.push_back(0);  // final global synchronization

    dest_.resize(round_labels.size());
    fill_dest_.resize(round_labels.size());
    for (std::size_t r = 0; r < round_labels.size(); ++r) {
        const unsigned l = round_labels[r];
        DBSP_REQUIRE(l <= log_v);
        dest_[r] = cluster_permutation(v, l, rng);
        if (fill_messages_ > 0) {
            fill_dest_[r] = cluster_permutation(v, l, fill_rng);
        }
    }

    // Track where each initial value ends up: value starts at p and follows
    // the per-round destinations.
    std::vector<ProcId> pos(v);
    std::iota(pos.begin(), pos.end(), 0);
    for (const auto& round : dest_) {
        for (auto& at : pos) at = round[at];
    }
    expected_.assign(v, 0);
    for (std::uint64_t value = 0; value < v; ++value) expected_[pos[value]] = value;
}

void RandomRoutingProgram::step(StepIndex s, ProcId p, StepContext& ctx) {
    const std::size_t received = ctx.inbox_size();
    for (std::size_t k = 0; k < received; ++k) {
        const model::Message m = ctx.inbox(k);
        if (m.payload1 == 0) {
            ctx.store(0, m.payload0);  // the routed value; fillers are ignored
        }
    }
    if (s >= dest_.size()) return;  // final sync
    ctx.charge_ops(local_ops_);
    ctx.send(dest_[s][p], ctx.load(0), 0);
    for (std::size_t k = 0; k < fill_messages_; ++k) {
        ctx.send(fill_dest_[s][p], p, 1);
    }
}

}  // namespace dbsp::algo
