/// Wall-clock microbenchmarks of the simulator implementations themselves —
/// not paper results, but useful for keeping the cost-model machinery fast
/// enough to run the E1-E15 experiments.
///
/// `bench_micro --json [PATH]` times the E3 simulation workload untraced and
/// with each kind of observer attached, writing the measurements (words
/// simulated per second, table builds avoided, observer overheads) to PATH
/// (default BENCH_micro.json); every observed leg must charge the untraced
/// leg's cost bits. Two primitive legs time one machine job alone: the exact
/// reuse engine on a recorded charge stream, and the BT merge sort that
/// delivers the BT simulator's messages. Any other argument prints usage and
/// exits 2.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "algos/permutation.hpp"
#include "bt/sort.hpp"
#include "core/hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "locality/sink.hpp"
#include "model/cost_table_cache.hpp"
#include "perf/counters.hpp"
#include "report/experiment.hpp"
#include "report/json.hpp"
#include "report/provenance.hpp"
#include "telemetry/span.hpp"
#include "trace/aggregate.hpp"
#include "util/bits.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

using namespace dbsp;

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

/// Which sink (if any) rides along on the timed leg. kPhaseObserver attaches
/// the serve daemon's span sink as the simulator's phase observer, the way
/// serve::run_to_json times a cache miss.
enum class TraceLeg { kNone, kAggregate, kLocality, kLocalitySampled, kPhaseObserver };

/// SHARDS rate of the sampled locality leg (the production default).
constexpr double kSampleRate = 0.01;

JsonMeasurement run_e3_workload(std::uint64_t v, int reps, TraceLeg leg = TraceLeg::kNone) {
    // fill_messages = 8 makes the program full (h = 9): most context words
    // are message records, moved by delivery's range accessors.
    constexpr std::size_t kFill = 8;
    const auto f = model::AccessFunction::polynomial(0.5);
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
    telemetry::SpanSink spans(telemetry::steady_now_ns());
    const bool locality_leg =
        leg == TraceLeg::kLocality || leg == TraceLeg::kLocalitySampled;
    core::HmmSimulator::Options options;
    if (leg == TraceLeg::kAggregate) options.trace = &agg;
    if (locality_leg) options.trace = &loc;
    if (leg == TraceLeg::kPhaseObserver) options.phases = &spans;
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

/// A run's charge events as a profiler sees them, recorded once and
/// replayed into another sink. Costs are not kept (an AddressStream reads
/// addresses only), so a replay passes an empty cost table and zero costs.
class ChargeStream final : public trace::Sink {
public:
    void access(trace::Addr x, double) override {
        events_.push_back({Kind::kAccess, 0, x});
    }
    void access_log(std::span<const double>, trace::Addr base,
                    std::span<const std::uint32_t> touches) override {
        events_.push_back({Kind::kLog, 0, base, logs_.size(), touches.size()});
        logs_.insert(logs_.end(), touches.begin(), touches.end());
    }
    void access_range(std::span<const double>, trace::Addr begin,
                      trace::Addr end) override {
        events_.push_back({Kind::kRange, 0, begin, end});
    }
    void block_op(std::span<const double>, double, unsigned touches,
                  std::initializer_list<trace::AddrRange> ranges) override {
        // The machines' block ops (swap, copy) pass two ranges.
        DBSP_REQUIRE(ranges.size() == 2);
        const trace::AddrRange* r = ranges.begin();
        events_.push_back({Kind::kBlockOp, touches, r[0].begin, r[0].end, r[1].begin, r[1].end});
    }
    void block_transfer(trace::Addr src, trace::Addr dst, std::uint64_t len, double,
                        double) override {
        events_.push_back({Kind::kTransfer, 0, src, dst, len});
    }

    std::size_t events() const { return events_.size(); }

    void replay(trace::Sink& sink) const {
        for (const Event& e : events_) {
            switch (e.kind) {
                case Kind::kAccess: sink.access(e.a, 0.0); break;
                case Kind::kLog:
                    sink.access_log({}, e.a, std::span(logs_).subspan(e.b, e.c));
                    break;
                case Kind::kRange: sink.access_range({}, e.a, e.b); break;
                case Kind::kBlockOp:
                    sink.block_op({}, 0.0, e.touches, {{e.a, e.b}, {e.c, e.d}});
                    break;
                case Kind::kTransfer: sink.block_transfer(e.a, e.b, e.c, 0.0, 0.0); break;
            }
        }
    }

private:
    enum class Kind : unsigned char { kAccess, kLog, kRange, kBlockOp, kTransfer };
    struct Event {
        Kind kind;
        unsigned touches;
        std::uint64_t a, b = 0, c = 0, d = 0;
    };
    std::vector<Event> events_;
    std::vector<std::uint32_t> logs_;  ///< the access_log entries, back to back
};

/// The exact reuse engine alone: one E3-shaped routing job's charge stream
/// at v = 2^7 (the profile-exact benchmark's size), recorded once.
struct EngineStream {
    ChargeStream stream;
    std::uint64_t refs = 0;  ///< the job's words_touched
};

EngineStream record_engine_stream() {
    constexpr std::uint64_t kV = 1 << 7;
    const auto f = model::AccessFunction::polynomial(0.5);
    algo::RandomRoutingProgram prog(kV, e3_labels(kV), 101, 0, 8);
    auto smoothed = core::smooth(prog, core::hmm_label_set(f, prog.context_words(), kV));
    EngineStream out;
    core::HmmSimulator::Options options;
    options.trace = &out.stream;
    out.refs = core::HmmSimulator(f, options).simulate(*smoothed).words_touched;
    return out;
}

/// References per second of \p replays replays of \p s, each into a fresh
/// exact LocalitySink; false in \p exact if a sink counts other than the
/// job's references.
double replay_refs_per_sec(const EngineStream& s, int replays, bool& exact) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int r = 0; r < replays; ++r) {
        locality::LocalitySink sink;
        s.stream.replay(sink);
        if (sink.recorded_accesses() != s.refs) exact = false;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return static_cast<double>(s.refs) * replays / seconds;
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

/// The BT simulator's delivery primitive alone: records per second of the
/// staged merge sort on 2^14 five-word records (the simulator's record size)
/// under x^0.5, median of \p rounds sorts. Each round refills the same input
/// before the clock starts.
double bt_merge_sort_records_per_sec(int rounds) {
    constexpr std::uint64_t kRecords = 1 << 14;
    constexpr std::uint64_t kRecordWords = 5;
    constexpr std::uint64_t kStageWords = 2048;  // stage at [0, 2048)
    constexpr model::Addr kBase = 4096;
    constexpr model::Addr kScratch = kBase + kRecords * kRecordWords;
    bt::Machine m(model::AccessFunction::polynomial(0.5),
                  kScratch + kRecords * kRecordWords);
    SplitMix64 rng(3);
    std::vector<model::Word> input(kRecords * kRecordWords);
    for (auto& w : input) w = rng.next();
    std::vector<double> rates;
    for (int r = 0; r < rounds; ++r) {
        std::copy(input.begin(), input.end(), m.raw().begin() + kBase);
        const auto t0 = std::chrono::steady_clock::now();
        bt::merge_sort_records(m, kBase, kRecords, kRecordWords, kScratch, 0, kStageWords);
        const double seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
        rates.push_back(static_cast<double>(kRecords) / seconds);
    }
    return median_of(rates);
}

/// Throughput overhead of \p leg over the untraced reference \p base, percent.
double overhead_pct(const JsonMeasurement& base, const JsonMeasurement& leg) {
    return 100.0 * (base.words_per_sec() / leg.words_per_sec() - 1.0);
}

int run_json_mode(const std::string& path) {
    constexpr std::uint64_t kProcessors = 1 << 11;
    constexpr int kReps = 16;
    constexpr int kRounds = 5;
    // Enabled-path legs: the exact engine runs the workload about ten times
    // slower than untraced (stack-slot work on every reference), the
    // AggregateSink about five times and the sampled engine a few times
    // slower, so their rep counts are scaled down to bound wall-clock share;
    // overheads compare *throughput*, so unequal rep counts stay comparable.
    constexpr int kEnabledRounds = 3;
    constexpr int kExactReps = 2;
    constexpr int kSampledReps = 8;
    constexpr int kTracedRounds = 3;
    constexpr int kTracedReps = 4;
    constexpr int kReplays = 8;  // recorded-stream replays per enabled round
    constexpr int kSortRounds = 9;

    // Warm-up outside the timed region (page faults, first-touch, clocks).
    (void)run_e3_workload(kProcessors, 1);

    // Alternate the untraced legs, flipping their order every round, and keep
    // each leg's best round: robust against one-sided frequency/cache
    // transients that a single A-then-B pass folds entirely into whichever
    // leg ran first. `loff` is a second, independent run of the null-sink
    // leg: the LocalitySink disabled path *is* the null-sink path, so its
    // measured overhead is this A/A delta — pure harness noise by
    // construction, which is exactly the claim being audited.
    JsonMeasurement fast, loff;
    bool trace_counts_exact = true;
    bool loc_counts_exact = true;
    std::vector<double> aa_deltas;  // per-round paired A/A deltas, percent
    for (int round = 0; round < kRounds; ++round) {
        JsonMeasurement f, l;
        if (round % 2 == 0) {
            f = run_e3_workload(kProcessors, kReps);
            l = run_e3_workload(kProcessors, kReps);
        } else {
            l = run_e3_workload(kProcessors, kReps);
            f = run_e3_workload(kProcessors, kReps);
        }
        aa_deltas.push_back(100.0 * (l.seconds - f.seconds) / f.seconds);
        if (round == 0 || f.seconds < fast.seconds) fast = f;
        if (round == 0 || l.seconds < loff.seconds) loff = l;
    }
    // The paired-median estimator: within each round the two legs run back to
    // back (order flipped every round), so slow monotonic drift — thermal
    // ramps, allocator growth — contributes deltas of alternating sign and
    // the median sits at the true A/A gap, which for identical code is noise
    // around zero. A best-of-N difference, by contrast, keeps any systematic
    // position bias.
    const double aa_median_pct = median_of(aa_deltas);
    // The sink-attached legs run after the untraced rounds finish: the
    // AggregateSink's per-level buckets and the LocalitySink's entries and
    // slot bitmap churn the cache, and interleaving them would bleed that
    // pollution into the untraced (disabled-path) timings.
    //
    // Observer overheads use the same paired-rounds/median scheme as the A/A
    // audit above: each round runs a fresh untraced reference leg and the
    // observed legs back to back (order flipped every round) and contributes
    // one per-round throughput ratio per leg; the medians are the reported
    // overheads. A ratio against the best-of untraced leg would fold any
    // transient the observed legs happened to absorb — and the untraced best
    // never did — straight into the overhead.
    JsonMeasurement traced, phased;
    std::vector<double> traced_pcts, phased_pcts;
    for (int round = 0; round < kTracedRounds; ++round) {
        JsonMeasurement u, t, p;
        if (round % 2 == 0) {
            u = run_e3_workload(kProcessors, kReps);
            t = run_e3_workload(kProcessors, kTracedReps, TraceLeg::kAggregate);
            p = run_e3_workload(kProcessors, kReps, TraceLeg::kPhaseObserver);
        } else {
            p = run_e3_workload(kProcessors, kReps, TraceLeg::kPhaseObserver);
            t = run_e3_workload(kProcessors, kTracedReps, TraceLeg::kAggregate);
            u = run_e3_workload(kProcessors, kReps);
        }
        traced_pcts.push_back(overhead_pct(u, t));
        phased_pcts.push_back(overhead_pct(u, p));
        trace_counts_exact = trace_counts_exact && t.counts_exact;
        if (round == 0 || t.words_per_sec() > traced.words_per_sec()) traced = t;
        if (round == 0 || p.words_per_sec() > phased.words_per_sec()) phased = p;
    }
    // The locality engines, by the same scheme, and the exact engine alone
    // on a recorded stream (informational: its rate, not a ratio).
    const EngineStream engine_stream = record_engine_stream();
    bool replay_counts_exact = true;
    JsonMeasurement locon, locsamp;
    std::vector<double> exact_pcts, sampled_pcts, engine_rates;
    for (int round = 0; round < kEnabledRounds; ++round) {
        JsonMeasurement u, ex, sa;
        if (round % 2 == 0) {
            u = run_e3_workload(kProcessors, kReps);
            ex = run_e3_workload(kProcessors, kExactReps, TraceLeg::kLocality);
            sa = run_e3_workload(kProcessors, kSampledReps, TraceLeg::kLocalitySampled);
            engine_rates.push_back(
                replay_refs_per_sec(engine_stream, kReplays, replay_counts_exact));
        } else {
            engine_rates.push_back(
                replay_refs_per_sec(engine_stream, kReplays, replay_counts_exact));
            sa = run_e3_workload(kProcessors, kSampledReps, TraceLeg::kLocalitySampled);
            ex = run_e3_workload(kProcessors, kExactReps, TraceLeg::kLocality);
            u = run_e3_workload(kProcessors, kReps);
        }
        exact_pcts.push_back(overhead_pct(u, ex));
        sampled_pcts.push_back(overhead_pct(u, sa));
        loc_counts_exact = loc_counts_exact && ex.counts_exact && sa.counts_exact;
        if (round == 0 || ex.words_per_sec() > locon.words_per_sec()) locon = ex;
        if (round == 0 || sa.words_per_sec() > locsamp.words_per_sec()) locsamp = sa;
    }
    // Sampled-mode accuracy: one rep of the identical workload through each
    // engine (fresh sinks — reps accumulate into one profile, so the two
    // legs must see streams of equal length for their scores to be
    // comparable). The absolute score error is the SHARDS estimation error
    // at the production rate, gated by the conformance baseline.
    const JsonMeasurement acc_exact = run_e3_workload(kProcessors, 1, TraceLeg::kLocality);
    const JsonMeasurement acc_sampled =
        run_e3_workload(kProcessors, 1, TraceLeg::kLocalitySampled);
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
    const JsonMeasurement ctr = run_e3_workload(kProcessors, kReps);
    hw_counters.stop();
    const perf::CounterSnapshot hw_snapshot = hw_counters.read();
    const bool costs_counters = ctr.hmm_cost == fast.hmm_cost;
    // Last, so that no leg above moves: the BT merge sort alone
    // (informational: its rate, not a ratio). The registry is read first so
    // that the metrics section still describes the E3 legs alone.
    report::Json registry = report::metrics_to_json();
    const double bt_merge_sort_records_per_s = bt_merge_sort_records_per_sec(kSortRounds);
    // Attaching an observer never changes a charged bit: every observed leg
    // charges what the untraced leg charged.
    const bool costs_bit_identical =
        traced.hmm_cost == fast.hmm_cost && phased.hmm_cost == fast.hmm_cost &&
        locon.hmm_cost == fast.hmm_cost && locsamp.hmm_cost == fast.hmm_cost;
    // The untraced leg runs with the null sink, i.e. it *is* the disabled
    // path whose overhead must stay within noise; the traced legs measure
    // the cost of attaching each sink, as the paired-round medians computed
    // above.
    const double tracing_overhead_pct = median_of(traced_pcts);
    const double phase_observer_overhead_pct = median_of(phased_pcts);
    const double locality_overhead_pct = aa_median_pct;
    const double locality_enabled_overhead_pct = median_of(exact_pcts);
    const double locality_sampled_overhead_pct = median_of(sampled_pcts);
    const double reuse_engine_refs_per_s = median_of(engine_rates);

    report::Json doc = report::Json::object();
    doc.set("workload", "E3 random routing, v=" + std::to_string(kProcessors) +
                            ", x^0.5-HMM, " + std::to_string(kReps) + " reps");
    doc.set("provenance", report::Provenance::collect().to_json());
    report::Json measurements = report::Json::object();
    measurements.set("bulk_with_cache", measurement_json(fast));
    measurements.set("bulk_with_cache_locality_off", measurement_json(loff));
    measurements.set("bulk_with_cache_traced", measurement_json(traced));
    measurements.set("bulk_with_cache_phase_observer", measurement_json(phased));
    measurements.set("bulk_with_cache_locality", measurement_json(locon));
    measurements.set("bulk_with_cache_locality_sampled", measurement_json(locsamp));
    measurements.set("bulk_with_cache_counters", measurement_json(ctr));
    doc.set("measurements", std::move(measurements));
    doc.set("costs_bit_identical", costs_bit_identical);
    doc.set("costs_bit_identical_counters", costs_counters);
    doc.set("counters", hw_snapshot.to_json());
    doc.set("tracing_overhead_pct", tracing_overhead_pct);
    doc.set("phase_observer_overhead_pct", phase_observer_overhead_pct);
    doc.set("locality_overhead_pct", locality_overhead_pct);
    doc.set("locality_enabled_overhead_pct", locality_enabled_overhead_pct);
    doc.set("locality_sampled_overhead_pct", locality_sampled_overhead_pct);
    doc.set("locality_sampled_rate", kSampleRate);
    doc.set("locality_sampled_score_abs_err", sampled_score_abs_err);
    doc.set("trace_counts_exact", trace_counts_exact);
    doc.set("locality_counts_exact", loc_counts_exact);
    doc.set("reuse_engine_refs_per_s", reuse_engine_refs_per_s);
    report::Json replay = report::Json::object();
    replay.set("events", static_cast<std::uint64_t>(engine_stream.stream.events()));
    replay.set("refs", engine_stream.refs);
    replay.set("counts_exact", replay_counts_exact);
    doc.set("reuse_engine_replay", std::move(replay));
    doc.set("bt_merge_sort_records_per_s", bt_merge_sort_records_per_s);
    doc.set("metrics", std::move(registry));
    std::string error;
    if (!doc.save_file(path, &error)) {
        std::fprintf(stderr, "bench_micro: cannot write %s: %s\n", path.c_str(),
                     error.c_str());
        return 1;
    }

    std::printf("E3 workload (v=%llu, %d reps):\n",
                static_cast<unsigned long long>(kProcessors), kReps);
    std::printf("  untraced:      %.3fs  (%.0f words/s, %llu table builds, %llu avoided)\n",
                fast.seconds, fast.words_per_sec(),
                static_cast<unsigned long long>(fast.table_builds),
                static_cast<unsigned long long>(fast.builds_avoided));
    std::printf("  traced:        %.3fs  (AggregateSink attached, %d reps, paired-median "
                "overhead %+.1f%%, counts exact: %s)\n",
                traced.seconds, kTracedReps, tracing_overhead_pct,
                trace_counts_exact ? "yes" : "NO");
    std::printf("  phase obs.:    %.3fs  (SpanSink as phase observer, paired-median "
                "overhead %+.1f%%)\n",
                phased.seconds, phase_observer_overhead_pct);
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
    std::printf("  reuse engine:  %.0f refs/s  (exact LocalitySink on a recorded v=128 "
                "stream, %zu events, %llu refs, median of %d rounds)\n",
                reuse_engine_refs_per_s, engine_stream.stream.events(),
                static_cast<unsigned long long>(engine_stream.refs), kEnabledRounds);
    std::printf("  bt merge sort: %.0f records/s  (2^14 five-word records, x^0.5-BT, "
                "median of %d sorts)\n",
                bt_merge_sort_records_per_s, kSortRounds);
    std::printf("  costs bit-identical: %s\n", costs_bit_identical ? "yes" : "NO");
    std::printf("  wrote %s\n", path.c_str());
    const bool ok = costs_bit_identical && trace_counts_exact && loc_counts_exact;
    return ok ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc >= 2 && argc <= 3 && std::strcmp(argv[1], "--json") == 0 &&
        (argc == 2 || argv[2][0] != '-')) {
        return run_json_mode(argc == 3 ? argv[2] : "BENCH_micro.json");
    }
    std::fprintf(stderr, "usage: %s --json [PATH]  (PATH defaults to BENCH_micro.json)\n",
                 argv[0]);
    return 2;
}
