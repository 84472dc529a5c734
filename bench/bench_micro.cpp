/// Wall-clock microbenchmarks (google-benchmark) of the simulator
/// implementations themselves — not paper results, but useful for keeping
/// the cost-model machinery fast enough to run the E1-E12 experiments.
///
/// `bench_micro --json [path]` skips google-benchmark and instead times the
/// E3 simulation workload with the bulk fast path and cost-table cache on
/// vs. off, writing the measurements (words simulated per second, table
/// builds avoided, speedup) to BENCH_micro.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "algos/bitonic_sort.hpp"
#include "algos/permutation.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "hmm/machine.hpp"
#include "hmm/primitives.hpp"
#include "locality/sink.hpp"
#include "model/cost_table_cache.hpp"
#include "perf/counters.hpp"
#include "model/dbsp_machine.hpp"
#include "model/superstep_exec.hpp"
#include "report/experiment.hpp"
#include "report/json.hpp"
#include "report/provenance.hpp"
#include "trace/aggregate.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace {

using namespace dbsp;

void BM_HmmScan(benchmark::State& state) {
    const auto n = static_cast<std::uint64_t>(state.range(0));
    hmm::Machine m(model::AccessFunction::polynomial(0.5), n);
    for (auto _ : state) {
        m.reset_cost();
        benchmark::DoNotOptimize(hmm::touch_all(m, n));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HmmScan)->Arg(1 << 14)->Arg(1 << 18);

void BM_DirectDbspExecution(benchmark::State& state) {
    const auto v = static_cast<std::uint64_t>(state.range(0));
    SplitMix64 rng(1);
    std::vector<model::Word> keys(v);
    for (auto& k : keys) k = rng.next();
    model::DbspMachine machine(model::AccessFunction::polynomial(0.5));
    for (auto _ : state) {
        algo::BitonicSortProgram prog(keys);
        benchmark::DoNotOptimize(machine.run(prog).time);
    }
}
BENCHMARK(BM_DirectDbspExecution)->Arg(1 << 8)->Arg(1 << 10);

void BM_HmmSimulator(benchmark::State& state) {
    const auto v = static_cast<std::uint64_t>(state.range(0));
    const auto f = model::AccessFunction::polynomial(0.5);
    for (auto _ : state) {
        algo::RandomRoutingProgram prog(v, {0, 3, 5, 2, 7, 1}, 9);
        auto smoothed = core::smooth(prog, core::hmm_label_set(f, prog.context_words(), v));
        benchmark::DoNotOptimize(core::HmmSimulator(f).simulate(*smoothed).hmm_cost);
    }
}
BENCHMARK(BM_HmmSimulator)->Arg(1 << 8)->Arg(1 << 10);

void BM_BtSimulator(benchmark::State& state) {
    const auto v = static_cast<std::uint64_t>(state.range(0));
    const auto f = model::AccessFunction::polynomial(0.5);
    for (auto _ : state) {
        algo::RandomRoutingProgram prog(v, {0, 3, 5, 2, 7, 1}, 9);
        auto smoothed = core::smooth(prog, core::bt_label_set(f, prog.context_words(), v));
        benchmark::DoNotOptimize(core::BtSimulator(f).simulate(*smoothed).bt_cost);
    }
}
BENCHMARK(BM_BtSimulator)->Arg(1 << 8)->Arg(1 << 10);

// --- the --json mode --------------------------------------------------------

/// The E3 workload: a random cluster-respecting routing program simulated on
/// the x^0.5-HMM via the Figure 1 schedule (the hottest loop in the suite).
std::vector<unsigned> e3_labels(std::uint64_t v) {
    SplitMix64 rng(7);
    std::vector<unsigned> labels;
    const unsigned log_v = ilog2(v);
    for (unsigned l = 0; l <= log_v; ++l) {
        labels.push_back(log_v - l);
        if (l % 2 == 0) labels.push_back(static_cast<unsigned>(rng.next_below(log_v + 1)));
    }
    return labels;
}

struct JsonMeasurement {
    double seconds = 0.0;
    std::uint64_t words = 0;
    double hmm_cost = 0.0;
    std::uint64_t table_builds = 0;
    std::uint64_t builds_avoided = 0;
    bool counts_exact = true;  ///< the sink's words == words_touched on every rep
    double locality_score = 0.0;  ///< profile score of a locality leg (else 0)

    double words_per_sec() const {
        return seconds > 0.0 ? static_cast<double>(words) / seconds : 0.0;
    }
};

/// Which sink (if any) rides along on the timed leg.
enum class TraceLeg { kNone, kAggregate, kLocality, kLocalitySampled };

/// SHARDS rate of the sampled locality leg (the production default).
constexpr double kSampleRate = 0.01;

JsonMeasurement run_e3_workload(std::uint64_t v, int reps, bool fast_paths,
                                TraceLeg leg = TraceLeg::kNone) {
    // fill_messages = 8 makes the program full (h = 9): most context words
    // are message records, the regime the bulk delivery path targets.
    constexpr std::size_t kFill = 8;
    const auto f = model::AccessFunction::polynomial(0.5);
    model::ScopedBulkAccess bulk(fast_paths);
    model::ScopedCostTableCache cache(fast_paths);
    model::CostTableCache::global().clear();
    const auto stats0 = model::CostTableCache::global().stats();

    JsonMeasurement m;
    trace::AggregateSink agg;
    locality::LocalityOptions loc_opts;
    if (leg == TraceLeg::kLocalitySampled) {
        loc_opts.mode = locality::LocalityOptions::Mode::kSampled;
        loc_opts.sample_rate = kSampleRate;
    }
    locality::LocalitySink loc(loc_opts);
    const bool locality_leg =
        leg == TraceLeg::kLocality || leg == TraceLeg::kLocalitySampled;
    core::HmmSimulator::Options options;
    if (leg == TraceLeg::kAggregate) options.trace = &agg;
    if (locality_leg) options.trace = &loc;
    std::uint64_t seen = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < reps; ++r) {
        algo::RandomRoutingProgram prog(v, e3_labels(v), 101, 0, kFill);
        auto smoothed = core::smooth(prog, core::hmm_label_set(f, prog.context_words(), v));
        const auto res = core::HmmSimulator(f, options).simulate(*smoothed);
        m.words += res.words_touched;
        m.hmm_cost = res.hmm_cost;
        if (options.trace != nullptr) {
            // Sinks accumulate across reps; each rep must add exactly the
            // machine's charged word touches to the sink's word count
            // (sampled mode still counts every reference — only measurement
            // is sampled).
            const std::uint64_t now =
                locality_leg ? loc.recorded_accesses() : agg.attributed_words();
            if (now - seen != res.words_touched) m.counts_exact = false;
            seen = now;
        }
    }
    const auto t1 = std::chrono::steady_clock::now();
    m.seconds = std::chrono::duration<double>(t1 - t0).count();
    if (locality_leg) m.locality_score = loc.profile().locality_score();
    const auto stats1 = model::CostTableCache::global().stats();
    m.table_builds = stats1.builds - stats0.builds;
    m.builds_avoided = stats1.builds_avoided() - stats0.builds_avoided();
    return m;
}

report::Json measurement_json(const JsonMeasurement& m) {
    report::Json j = report::Json::object();
    j.set("wall_seconds", m.seconds);
    j.set("words_simulated", m.words);
    j.set("words_per_sec", m.words_per_sec());
    j.set("hmm_cost", m.hmm_cost);
    j.set("cost_table_builds", m.table_builds);
    j.set("cost_table_builds_avoided", m.builds_avoided);
    if (m.locality_score != 0.0) j.set("locality_score", m.locality_score);
    return j;
}

/// Median of a (small, odd-ordered by sort) vector of per-round estimates.
double median_of(std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
}

int run_json_mode(const std::string& path) {
    constexpr std::uint64_t kProcessors = 1 << 11;
    constexpr int kReps = 16;
    constexpr int kRounds = 5;
    // Enabled-path legs: the exact engine runs the workload tens of times
    // slower than untraced (treap + stamp-slot work on every reference), the
    // sampled engine a few times slower, so their rep counts are scaled down
    // to bound wall-clock share; overheads compare *throughput*, so unequal
    // rep counts stay comparable.
    constexpr int kEnabledRounds = 3;
    constexpr int kExactReps = 2;
    constexpr int kSampledReps = 8;
    constexpr int kTracedRounds = 2;

    // Warm-up outside the timed region (page faults, first-touch, clocks).
    (void)run_e3_workload(kProcessors, 1, true);

    // Alternate the untraced legs, flipping their order every round, and keep
    // each leg's best round: robust against one-sided frequency/cache
    // transients that a single A-then-B pass folds entirely into whichever
    // leg ran first. `loff` is a second, independent run of the null-sink
    // leg: the LocalitySink disabled path *is* the null-sink path, so its
    // measured overhead is this A/A delta — pure harness noise by
    // construction, which is exactly the claim being audited.
    JsonMeasurement fast, loff, slow, traced;
    bool trace_counts_exact = true;
    bool loc_counts_exact = true;
    std::vector<double> aa_deltas;  // per-round paired A/A deltas, percent
    for (int round = 0; round < kRounds; ++round) {
        JsonMeasurement f, l;
        if (round % 2 == 0) {
            f = run_e3_workload(kProcessors, kReps, true);
            l = run_e3_workload(kProcessors, kReps, true);
        } else {
            l = run_e3_workload(kProcessors, kReps, true);
            f = run_e3_workload(kProcessors, kReps, true);
        }
        aa_deltas.push_back(100.0 * (l.seconds - f.seconds) / f.seconds);
        const JsonMeasurement s = run_e3_workload(kProcessors, kReps, false);
        if (round == 0 || f.seconds < fast.seconds) fast = f;
        if (round == 0 || l.seconds < loff.seconds) loff = l;
        if (round == 0 || s.seconds < slow.seconds) slow = s;
    }
    // The paired-median estimator: within each round the two legs run back to
    // back (order flipped every round), so slow monotonic drift — thermal
    // ramps, allocator growth — contributes deltas of alternating sign and
    // the median sits at the true A/A gap, which for identical code is noise
    // around zero. A best-of-N difference, by contrast, keeps any systematic
    // position bias.
    const double aa_median_pct = median_of(aa_deltas);
    // The sink-attached legs run after the untraced rounds finish: the
    // AggregateSink's per-level buckets and the LocalitySink's hash map and
    // treap churn the cache, and interleaving them would bleed that pollution
    // into the untraced (disabled-path) timings.
    for (int round = 0; round < kTracedRounds; ++round) {
        const JsonMeasurement t = run_e3_workload(kProcessors, kReps, true,
                                                  TraceLeg::kAggregate);
        trace_counts_exact = trace_counts_exact && t.counts_exact;
        if (round == 0 || t.seconds < traced.seconds) traced = t;
    }
    // Enabled-path overhead, measured with the same paired-rounds/median
    // scheme as the A/A audit above: each round runs a fresh untraced
    // reference leg and both enabled legs back to back (order flipped every
    // round) and contributes one per-round throughput ratio; the medians are
    // the reported overheads. A single-shot ratio against the best-of
    // untraced leg would fold any transient the enabled legs happened to
    // absorb — and the untraced best never did — straight into the overhead.
    JsonMeasurement locon, locsamp;
    std::vector<double> exact_pcts, sampled_pcts;
    for (int round = 0; round < kEnabledRounds; ++round) {
        JsonMeasurement u, ex, sa;
        if (round % 2 == 0) {
            u = run_e3_workload(kProcessors, kReps, true);
            ex = run_e3_workload(kProcessors, kExactReps, true, TraceLeg::kLocality);
            sa = run_e3_workload(kProcessors, kSampledReps, true,
                                 TraceLeg::kLocalitySampled);
        } else {
            sa = run_e3_workload(kProcessors, kSampledReps, true,
                                 TraceLeg::kLocalitySampled);
            ex = run_e3_workload(kProcessors, kExactReps, true, TraceLeg::kLocality);
            u = run_e3_workload(kProcessors, kReps, true);
        }
        exact_pcts.push_back(100.0 * (u.words_per_sec() / ex.words_per_sec() - 1.0));
        sampled_pcts.push_back(100.0 * (u.words_per_sec() / sa.words_per_sec() - 1.0));
        loc_counts_exact = loc_counts_exact && ex.counts_exact && sa.counts_exact;
        if (round == 0 || ex.words_per_sec() > locon.words_per_sec()) locon = ex;
        if (round == 0 || sa.words_per_sec() > locsamp.words_per_sec()) locsamp = sa;
    }
    // Sampled-mode accuracy: one rep of the identical workload through each
    // engine (fresh sinks — reps accumulate into one profile, so the two
    // legs must see streams of equal length for their scores to be
    // comparable). The absolute score error is the SHARDS estimation error
    // at the production rate, gated by the conformance baseline.
    const JsonMeasurement acc_exact =
        run_e3_workload(kProcessors, 1, true, TraceLeg::kLocality);
    const JsonMeasurement acc_sampled =
        run_e3_workload(kProcessors, 1, true, TraceLeg::kLocalitySampled);
    const double sampled_score_abs_err =
        std::abs(acc_sampled.locality_score - acc_exact.locality_score);
    // Hardware-counter leg: the same workload once more with a CounterGroup
    // armed around the rep loop. The counters observe the process from the
    // outside (perf_event_open fds), so the charged cost must stay
    // bit-identical to the untraced best-of — that invariant is recorded and
    // gated; the snapshot itself is informational (and auto-waived wherever
    // the PMU is unavailable, e.g. containers without CAP_PERFMON).
    perf::CounterGroup hw_counters;
    hw_counters.start();
    const JsonMeasurement ctr = run_e3_workload(kProcessors, kReps, true);
    hw_counters.stop();
    const perf::CounterSnapshot hw_snapshot = hw_counters.read();
    const bool costs_counters = ctr.hmm_cost == fast.hmm_cost;
    const double speedup = fast.seconds > 0.0 ? slow.seconds / fast.seconds : 0.0;
    // The untraced leg runs with the null sink, i.e. it *is* the disabled
    // path whose overhead must stay within noise; the traced legs measure
    // the cost of attaching each sink. The AggregateSink's overhead compares
    // against the untraced best-of; the locality overheads are the
    // paired-round medians computed above.
    const double tracing_overhead_pct =
        traced.words_per_sec() > 0.0
            ? 100.0 * (fast.words_per_sec() / traced.words_per_sec() - 1.0)
            : 0.0;
    const double locality_overhead_pct = aa_median_pct;
    const double locality_enabled_overhead_pct = median_of(exact_pcts);
    const double locality_sampled_overhead_pct = median_of(sampled_pcts);

    report::Json doc = report::Json::object();
    doc.set("workload", "E3 random routing, v=" + std::to_string(kProcessors) +
                            ", x^0.5-HMM, " + std::to_string(kReps) + " reps");
    doc.set("provenance", report::Provenance::collect().to_json());
    report::Json measurements = report::Json::object();
    measurements.set("bulk_with_cache", measurement_json(fast));
    measurements.set("bulk_with_cache_locality_off", measurement_json(loff));
    measurements.set("bulk_with_cache_traced", measurement_json(traced));
    measurements.set("bulk_with_cache_locality", measurement_json(locon));
    measurements.set("bulk_with_cache_locality_sampled", measurement_json(locsamp));
    measurements.set("per_word_no_cache", measurement_json(slow));
    measurements.set("bulk_with_cache_counters", measurement_json(ctr));
    doc.set("measurements", std::move(measurements));
    doc.set("speedup_bulk_vs_per_word", speedup);
    doc.set("costs_bit_identical", fast.hmm_cost == slow.hmm_cost);
    doc.set("costs_bit_identical_counters", costs_counters);
    doc.set("counters", hw_snapshot.to_json());
    doc.set("tracing_overhead_pct", tracing_overhead_pct);
    doc.set("locality_overhead_pct", locality_overhead_pct);
    doc.set("locality_enabled_overhead_pct", locality_enabled_overhead_pct);
    doc.set("locality_sampled_overhead_pct", locality_sampled_overhead_pct);
    doc.set("locality_sampled_rate", kSampleRate);
    doc.set("locality_sampled_score_abs_err", sampled_score_abs_err);
    doc.set("trace_counts_exact", trace_counts_exact);
    doc.set("locality_counts_exact", loc_counts_exact);
    doc.set("metrics", report::metrics_to_json());
    std::string error;
    if (!doc.save_file(path, &error)) {
        std::fprintf(stderr, "bench_micro: cannot write %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }

    std::printf("E3 workload (v=%llu, %d reps):\n",
                static_cast<unsigned long long>(kProcessors), kReps);
    std::printf("  bulk+cache:    %.3fs  (%.0f words/s, %llu table builds, %llu avoided)\n",
                fast.seconds, fast.words_per_sec(),
                static_cast<unsigned long long>(fast.table_builds),
                static_cast<unsigned long long>(fast.builds_avoided));
    std::printf("  per-word:      %.3fs  (%.0f words/s, %llu table builds)\n",
                slow.seconds, slow.words_per_sec(),
                static_cast<unsigned long long>(slow.table_builds));
    std::printf("  traced:        %.3fs  (AggregateSink attached, overhead %+.1f%%, "
                "counts exact: %s)\n",
                traced.seconds, tracing_overhead_pct, trace_counts_exact ? "yes" : "NO");
    std::printf("  locality off:  %.3fs  (A/A re-run of the null-sink leg, "
                "paired-median delta %+.1f%%)\n",
                loff.seconds, locality_overhead_pct);
    std::printf("  locality on:   %.3fs  (exact engine, %d reps, paired-median overhead "
                "%+.1f%%, counts exact: %s)\n",
                locon.seconds, kExactReps, locality_enabled_overhead_pct,
                loc_counts_exact ? "yes" : "NO");
    std::printf("  locality smp:  %.3fs  (SHARDS @%.2f, %d reps, paired-median overhead "
                "%+.1f%%, score abs err %.4f)\n",
                locsamp.seconds, kSampleRate, kSampledReps,
                locality_sampled_overhead_pct, sampled_score_abs_err);
    std::printf("  speedup:       %.2fx   costs bit-identical: %s\n", speedup,
                fast.hmm_cost == slow.hmm_cost ? "yes" : "NO");
    std::printf("  wrote %s\n", path.c_str());
    const bool ok = fast.hmm_cost == slow.hmm_cost && trace_counts_exact && loc_counts_exact &&
                    traced.hmm_cost == fast.hmm_cost && locon.hmm_cost == fast.hmm_cost &&
                    locsamp.hmm_cost == fast.hmm_cost;
    return ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--json") == 0) {
            const std::string path =
                (i + 1 < argc && argv[i + 1][0] != '-') ? argv[i + 1] : "BENCH_micro.json";
            return run_json_mode(path);
        }
    }
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
