/// Experiment E8 — Theorem 12: a fine-grained D-BSP(v, mu, g) program
/// simulates on f(x)-BT in time
///     O( v (tau + mu sum_i lambda_i log(mu v / 2^i)) ),
/// *independent of the access function f* — block transfer flattens the
/// hierarchy's access costs. We measure (a) the cost/bound band across v and
/// (b) the near-coincidence of the x^0.35-, x^0.5- and log x-BT costs on the
/// same program.
///
/// All sweep points — the routing/bound sweep for every f AND the
/// f-independence bitonic grid — are evaluated through ONE parallel_sweep, so
/// the harness keeps every worker busy across heterogeneous task sizes. Each
/// point is an independent simulation; the tables are printed afterwards from
/// the ordered result vector, and every model cost is bit-identical to a
/// serial run (the executors guarantee this at any thread count).

#include "algos/bitonic_sort.hpp"
#include "algos/permutation.hpp"
#include <cmath>

#include "bench/common.hpp"
#include "core/bounds.hpp"
#include "core/bt_simulator.hpp"
#include "core/smoothing.hpp"
#include "model/dbsp_machine.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace {

std::vector<unsigned> workload_labels(std::uint64_t v) {
    std::vector<unsigned> labels;
    const unsigned log_v = dbsp::ilog2(v);
    for (unsigned l = 0; l <= log_v; ++l) labels.push_back(log_v - l);
    for (unsigned l = 0; l < log_v; l += 2) labels.push_back(l);
    return labels;
}

/// One unit of work for the combined sweep: either a routing point (BT cost
/// vs the Theorem 12 bound under functions[f_index]) or a bitonic point (BT
/// cost only, for the f-independence spread).
struct Point {
    enum Kind { kRouting, kBitonic } kind;
    std::size_t f_index;
    std::uint64_t v;
};

struct Row {
    double bt_cost = 0.0;
    double bound = 0.0;  ///< Theorem 12 bound (routing points only)
};

}  // namespace

int main(int argc, char** argv) {
    using namespace dbsp;
    bench::Experiment ex("e8", "E8  D-BSP -> BT simulation (Theorem 12)",
                         "simulation on f(x)-BT costs O(v(tau + mu sum lambda_i "
                         "log(mu v / 2^i))), independent of f");
    if (!ex.parse_args(argc, argv)) return 2;

    const auto functions = bench::case_study_functions();

    std::vector<Point> points;
    for (std::size_t fi = 0; fi < functions.size(); ++fi) {
        for (std::uint64_t v = 1 << 5; v <= (1 << 10); v <<= 1) {
            points.push_back({Point::kRouting, fi, v});
        }
    }
    for (std::uint64_t v = 1 << 5; v <= (1 << 9); v <<= 2) {
        for (std::size_t fi = 0; fi < functions.size(); ++fi) {
            points.push_back({Point::kBitonic, fi, v});
        }
    }

    const auto rows = ex.timed_leg("e8 combined sweep", [&] {
        return bench::parallel_sweep(points, [&](const Point& pt) {
            const auto& f = functions[pt.f_index];
            Row row;
            if (pt.kind == Point::kRouting) {
                const auto labels = workload_labels(pt.v);
                algo::RandomRoutingProgram direct_prog(pt.v, labels, 31);
                const auto run = model::DbspMachine(model::AccessFunction::logarithmic())
                                     .run(direct_prog);
                algo::RandomRoutingProgram prog(pt.v, labels, 31);
                auto smoothed =
                    core::smooth(prog, core::bt_label_set(f, prog.context_words(), pt.v));
                const auto res = core::BtSimulator(f).simulate(*smoothed);
                row.bt_cost = res.bt_cost;
                row.bound = core::theorem12_bound(run, pt.v, prog.context_words());
            } else {
                SplitMix64 rng(pt.v);
                std::vector<model::Word> keys(pt.v);
                for (auto& k : keys) k = rng.next();
                algo::BitonicSortProgram prog(keys);
                auto smoothed =
                    core::smooth(prog, core::bt_label_set(f, prog.context_words(), pt.v));
                row.bt_cost = core::BtSimulator(f).simulate(*smoothed).bt_cost;
            }
            return row;
        });
    });

    // Print / check the routing section per f, reading rows in point order.
    std::size_t next = 0;
    for (std::size_t fi = 0; fi < functions.size(); ++fi) {
        const auto& f = functions[fi];
        bench::section("routing workload on " + f.name() + "-BT: cost vs Thm 12 bound");
        Table table({"v", "BT sim", "Thm12 bound", "ratio"});
        std::vector<double> ratios;
        for (std::uint64_t v = 1 << 5; v <= (1 << 10); v <<= 1) {
            const Row& row = rows[next++];
            table.add_row_values(
                {static_cast<double>(v), row.bt_cost, row.bound, row.bt_cost / row.bound});
            ratios.push_back(row.bt_cost / row.bound);
        }
        table.print();
        ex.check_band("BT sim / Thm12 bound [" + f.name() + "]", ratios, 1.5);
    }

    bench::section("f-independence: same bitonic program under all three f");
    {
        Table table({"v", "x^0.35-BT", "x^0.50-BT", "log x-BT", "max/min"});
        std::vector<double> spreads;
        for (std::uint64_t v = 1 << 5; v <= (1 << 9); v <<= 2) {
            std::vector<double> costs;
            for (std::size_t fi = 0; fi < functions.size(); ++fi) {
                costs.push_back(rows[next++].bt_cost);
            }
            table.add_row_values({static_cast<double>(v), costs[0], costs[1], costs[2],
                                  spread(costs)});
            spreads.push_back(spread(costs));
        }
        table.print();
        std::printf("(contrast with the HMM, where the same program's cost varies with "
                    "f by polynomial factors)\n");
        // The f-independence claim: the three BT costs stay within a small
        // constant of one another at the largest machine size (and the spread
        // must not *grow* with v, unlike on the HMM).
        ex.check_max("f-independence max/min BT cost at largest v", spreads.back(), 3.0);
        ex.check_max("f-independence spread growth across sweep",
                     spreads.back() / spreads.front(), 1.05);
    }

    return ex.finish();
}
