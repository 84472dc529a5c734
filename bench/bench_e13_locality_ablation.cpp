/// Experiment E13 (ablation, beyond the paper's numbered results): it is
/// *submachine* locality, not parallelism per se, that translates into
/// locality of reference.
///
/// Two fine-grained parallel sorting networks solve the same problem:
///   * bitonic sort — structured parallelism, communication telescoping
///     through ever-smaller clusters (labels log v - k .. log v - 1 per merge
///     stage);
///   * odd-even transposition sort — flat parallelism: its odd rounds pair
///     neighbours across the cluster-tree root, forcing 0-supersteps, so the
///     program exposes no submachine locality at all.
/// Under the Theorem 5 simulation the first becomes a Theta(n^(1+alpha))
/// hierarchy-conscious algorithm; the second inherits a Theta(n) factor of
/// full-memory traffic per round, i.e. ~Theta(n^2 f'(n)) — the gap grows
/// without bound. This quantifies the introduction's thesis and the paper's
/// contrast with flat (PRAM/BSP) simulation approaches.

#include <cmath>

#include "algos/bitonic_sort.hpp"
#include "algos/odd_even_sort.hpp"
#include "bench/common.hpp"
#include "core/hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "locality/sink.hpp"
#include "model/dbsp_machine.hpp"
#include "util/rng.hpp"

int main(int argc, char** argv) {
    using namespace dbsp;
    bench::Experiment ex("e13", "E13 Locality ablation: structured vs flat parallelism",
                         "only submachine locality translates into locality of reference; "
                         "a flat network pays full-memory traffic every round");
    if (!ex.parse_args(argc, argv)) return 2;

    const auto f = model::AccessFunction::polynomial(0.5);
    bench::section("same sorting problem, two networks, x^0.5 everywhere");
    Table table({"n", "T bitonic", "T odd-even", "HMM sim bitonic", "HMM sim odd-even",
                 "sim gap", "loc score bitonic", "loc score odd-even"});
    std::vector<double> gaps, ns, score_bitonic, score_oddeven;
    for (std::uint64_t n = 1 << 5; n <= (1 << 10); n <<= 1) {
        SplitMix64 rng(n);
        std::vector<model::Word> keys(n);
        for (auto& k : keys) k = rng.next();

        algo::BitonicSortProgram bitonic(keys);
        algo::OddEvenTranspositionSortProgram oddeven(keys);
        model::DbspMachine machine(f);
        const auto rb = machine.run(bitonic);
        const auto ro = machine.run(oddeven);

        // Profile the simulations' address streams while simulating; the
        // sinks only observe, so the cost columns are unchanged.
        locality::LocalitySink sink_b, sink_o;
        core::HmmSimulator::Options opt_b, opt_o;
        opt_b.trace = &sink_b;
        opt_o.trace = &sink_o;

        algo::BitonicSortProgram bitonic2(keys);
        auto sb = core::smooth(bitonic2, core::hmm_label_set(f, bitonic2.context_words(), n));
        const auto hb = core::HmmSimulator(f, opt_b).simulate(*sb);

        algo::OddEvenTranspositionSortProgram oddeven2(keys);
        auto so = core::smooth(oddeven2, core::hmm_label_set(f, oddeven2.context_words(), n));
        const auto ho = core::HmmSimulator(f, opt_o).simulate(*so);

        // Both must sort identically.
        for (std::uint64_t p = 0; p < n; ++p) {
            if (hb.data_of(p)[0] != ho.data_of(p)[0]) {
                std::printf("SORTERS DISAGREE\n");
                return 1;
            }
        }

        table.add_row_values({static_cast<double>(n), rb.time, ro.time, hb.hmm_cost,
                              ho.hmm_cost, ho.hmm_cost / hb.hmm_cost,
                              sink_b.profile().locality_score(),
                              sink_o.profile().locality_score()});
        gaps.push_back(ho.hmm_cost / hb.hmm_cost);
        ns.push_back(static_cast<double>(n));
        score_bitonic.push_back(sink_b.profile().locality_score());
        score_oddeven.push_back(sink_o.profile().locality_score());
    }
    table.print();
    ex.check_slope("flat/structured simulated-cost gap vs n", ns, gaps, 1.0, 0.35);
    ex.series("locality score vs n (bitonic, recursive sim)", ns, score_bitonic);
    ex.series("locality score vs n (odd-even, recursive sim)", ns, score_oddeven);
    // Drift tolerance 0.05: the gap is computed from exact locality scores,
    // whose last decimals are fold-order artifacts — engine changes that
    // regroup the identical event stream (batched folds, run compression)
    // legitimately move the third decimal without any behavioral change.
    ex.check_min("locality score gap odd-even minus bitonic at n=1024",
                 score_oddeven.back() - score_bitonic.back(), 0.25,
                 /*drift_tolerance=*/0.05);
    std::printf("(bitonic's simulation is Theta(n^1.5); odd-even transposition's is "
                "~Theta(n^2.5) (n rounds of full-memory traffic): the gap grows like n — structured submachine "
                "locality is what the simulation converts into temporal locality)\n"
                "(the per-point locality scores measure the same effect on the address "
                "stream itself:\n the flat network's mean log2 reuse distance stays pinned "
                "near full-memory depth)\n");
    return ex.finish();
}
