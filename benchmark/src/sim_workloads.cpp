/// The four simulation workloads: one caller runs jobs back to back (a
/// closed loop) for the run's duration, cycling over a fixed pool of seeded
/// inputs. A job is program construction -> core::smooth -> simulate()
/// [-> locality profile + miss-ratio-curve fold], with the simulators at
/// their default Options (serial).

#include <algorithm>
#include <memory>
#include <optional>

#include "algos/bitonic_sort.hpp"
#include "algos/permutation.hpp"
#include "common.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "locality/cache_model.hpp"
#include "locality/sink.hpp"
#include "model/cost_table_cache.hpp"
#include "spans.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace bench {

namespace {

using namespace dbsp;

enum class Target { kHmm, kBt };
enum class Profiler { kNone, kExact, kSampled };

struct SimWorkload {
    const char* name;
    Target target;
    std::uint64_t v;
    Profiler profiler;
};

// Sizes put one job near 15-40 ms on a 4-CPU x86-64 host: short enough to
// sit between two probe runs at one host speed, and a run holds hundreds.
constexpr SimWorkload kSimWorkloads[] = {
    // Full-h random routing on the HMM: range accessors, delivery, context
    // moves. Touches neither the BT sort, the profiler nor serve.
    {"hmm-sim", Target::kHmm, 1 << 11, Profiler::kNone},
    // Bitonic sort on the BT: dominated by sort-based delivery.
    {"bt-sim", Target::kBt, 1 << 8, Profiler::kNone},
    // The hmm-sim job with the exact reuse-distance engine attached.
    {"profile-exact", Target::kHmm, 1 << 7, Profiler::kExact},
    // The same job with the SHARDS-sampled engine: the filter runs on every
    // reference, the engine on about 1% of them.
    {"profile-sampled", Target::kHmm, 1 << 9, Profiler::kSampled},
};

/// Distinct inputs per run. Jobs cycle through them, and every repeat of an
/// input must reproduce its first run bit for bit.
constexpr std::size_t kPoolSize = 16;
/// Filler messages per processor per round (the E3 shape): h = 9, a full
/// program, the regime the bulk delivery path targets.
constexpr std::size_t kFillMessages = 8;
constexpr double kSampleRate = 0.01;
/// Set-ups per untraced run; setup_s is their median.
constexpr std::size_t kSetups = 9;
/// The profile fold evaluates the predicted LRU miss ratio at 2^0..2^kMrcLevels words.
constexpr unsigned kMrcLevels = 24;

const model::AccessFunction& access_function() {
    static const model::AccessFunction f = model::AccessFunction::polynomial(0.5);
    return f;
}

const SimWorkload* find_workload(const std::string& name) {
    for (const SimWorkload& w : kSimWorkloads) {
        if (name == w.name) return &w;
    }
    return nullptr;
}

struct Input {
    std::uint64_t routing_seed = 0;
    std::vector<model::Word> keys;   ///< bitonic input
    std::vector<model::Word> sorted; ///< its expected output
};

/// Routing rounds in the E3 shape: every level once, coarse to fine, plus a
/// pseudorandom level after every other one. The sequence is the same for
/// every seed (the seed picks the routing permutations), so a job's cost,
/// and with it its time, does not depend on the seed.
std::vector<unsigned> routing_labels(std::uint64_t v) {
    SplitMix64 rng(7);
    std::vector<unsigned> labels;
    const unsigned log_v = ilog2(v);
    for (unsigned l = 0; l <= log_v; ++l) {
        labels.push_back(log_v - l);
        if (l % 2 == 0) labels.push_back(static_cast<unsigned>(rng.next_below(log_v + 1)));
    }
    return labels;
}

std::vector<Input> make_pool(const SimWorkload& w, std::uint64_t seed) {
    SplitMix64 rng(seed);
    std::vector<Input> pool(kPoolSize);
    for (Input& in : pool) {
        if (w.target == Target::kBt) {
            in.keys.resize(w.v);
            for (auto& k : in.keys) k = rng.next();
            in.sorted = in.keys;
            std::sort(in.sorted.begin(), in.sorted.end());
        } else {
            in.routing_seed = rng.next();
        }
    }
    return pool;
}

struct JobOut {
    bool ok = true;
    std::string why;
    double cost = 0.0;
    std::uint64_t words_touched = 0;
    std::uint64_t rounds = 0;
    std::uint64_t block_transfers = 0;
    std::uint64_t sorts = 0;
    double transfer_volume = 0.0;
    std::uint64_t refs = 0;
    std::uint64_t sampled_refs = 0;
    std::string mrc_digest;    ///< FNV of the hex miss ratios
    std::string image_digest;  ///< FNV of every processor's final data word

    double total_ms = 0.0;
    double build_ms = 0.0;
    double smooth_ms = 0.0;
    double simulate_ms = 0.0;
    double fold_ms = 0.0;

    bool same_outputs(const JobOut& o) const {
        return cost == o.cost && words_touched == o.words_touched && rounds == o.rounds &&
               block_transfers == o.block_transfers && sorts == o.sorts &&
               transfer_volume == o.transfer_volume && refs == o.refs &&
               sampled_refs == o.sampled_refs && mrc_digest == o.mrc_digest &&
               image_digest == o.image_digest;
    }
};

/// Set when a job runs traced: spans go to \p log, phases through \p clock.
struct TraceCtx {
    SpanLog* log;
    PhaseClock* clock;
    std::uint64_t job;
};

/// One job on \p in. With \p profile false a profiling workload runs its
/// job without the LocalitySink (the baseline of locality.overhead_pct).
JobOut run_job(const SimWorkload& w, const Input& in, bool profile, const TraceCtx* tr) {
    JobOut out;
    const model::AccessFunction& f = access_function();
    const std::int64_t job_span = tr != nullptr ? tr->log->open("job", tr->job, -1) : -1;
    const auto open = [&](const char* name) {
        return tr != nullptr ? tr->log->open(name, tr->job, job_span) : -1;
    };
    const auto close = [&](std::int64_t id) {
        if (tr != nullptr) tr->log->close(id);
    };

    const Clock::time_point t0 = Clock::now();
    {
        std::int64_t span = open("algos.build");
        std::unique_ptr<algo::RandomRoutingProgram> routing;
        std::unique_ptr<algo::BitonicSortProgram> bitonic;
        if (w.target == Target::kBt) {
            bitonic = std::make_unique<algo::BitonicSortProgram>(in.keys);
        } else {
            routing = std::make_unique<algo::RandomRoutingProgram>(
                w.v, routing_labels(w.v), in.routing_seed, 0, kFillMessages);
        }
        model::Program& prog = routing ? static_cast<model::Program&>(*routing) : *bitonic;
        close(span);
        const Clock::time_point t1 = Clock::now();

        span = open("core.smooth");
        const std::size_t mu = prog.context_words();
        auto smoothed = core::smooth(prog, w.target == Target::kHmm
                                               ? core::hmm_label_set(f, mu, w.v)
                                               : core::bt_label_set(f, mu, w.v));
        close(span);
        const Clock::time_point t2 = Clock::now();

        span = open("core.simulate");
        std::optional<locality::LocalitySink> loc;
        if (profile && w.profiler != Profiler::kNone) {
            locality::LocalityOptions opts;
            if (w.profiler == Profiler::kSampled) {
                opts.mode = locality::LocalityOptions::Mode::kSampled;
                opts.sample_rate = kSampleRate;
            }
            loc.emplace(opts);
        }
        trace::Sink* sink = loc ? &*loc : nullptr;
        std::optional<trace::MultiSink> both;
        if (tr != nullptr) {
            tr->clock->start(tr->log, tr->job, span);
            if (loc) {
                sink = &both.emplace(std::initializer_list<trace::Sink*>{tr->clock, &*loc});
            } else {
                sink = tr->clock;
            }
        }
        std::optional<core::HmmSimResult> hmm;
        std::optional<core::BtSimResult> bt;
        if (w.target == Target::kHmm) {
            core::HmmSimulator::Options options;
            options.trace = sink;
            hmm = core::HmmSimulator(f, options).simulate(*smoothed);
        } else {
            core::BtSimulator::Options options;
            options.trace = sink;
            bt = core::BtSimulator(f, options).simulate(*smoothed);
        }
        if (tr != nullptr) tr->clock->finish();
        close(span);
        const Clock::time_point t3 = Clock::now();

        if (loc) {
            span = open("locality.fold");
            const locality::LocalityProfile p = loc->profile();
            std::string ratios;
            for (unsigned l = 0; l <= kMrcLevels; ++l) {
                ratios += hex_double(locality::predicted_miss_ratio(p, std::uint64_t{1} << l));
                ratios += ' ';
            }
            out.mrc_digest = fnv_hex(ratios);
            out.refs = loc->recorded_accesses();
            out.sampled_refs = loc->sampled_accesses();
            close(span);
            out.fold_ms = ms_between(t3, Clock::now());
        }
        out.build_ms = ms_between(t0, t1);
        out.smooth_ms = ms_between(t1, t2);
        out.simulate_ms = ms_between(t2, t3);

        // Functional checks: the routed values reach their expected
        // processors, the sort's output is the sorted input, and the
        // profiler saw exactly the references the machine charged.
        const auto& contexts = hmm ? hmm->contexts : bt->contexts;
        std::string image;
        for (const auto& ctx : contexts) {
            image.append(reinterpret_cast<const char*>(ctx.data()), sizeof(model::Word));
        }
        out.image_digest = fnv_hex(image);
        if (hmm) {
            out.cost = hmm->hmm_cost;
            out.words_touched = hmm->words_touched;
            out.rounds = hmm->rounds;
            for (model::ProcId p = 0; p < w.v; ++p) {
                if (hmm->contexts[p][0] != routing->expected(p)) {
                    out.ok = false;
                    out.why = "routed value at processor " + std::to_string(p) + " is wrong";
                    break;
                }
            }
            if (loc && out.refs != out.words_touched) {
                out.ok = false;
                out.why = "profile references " + std::to_string(out.refs) +
                          " != words_touched " + std::to_string(out.words_touched);
            }
        } else {
            out.cost = bt->bt_cost;
            out.rounds = bt->rounds;
            out.block_transfers = bt->block_transfers;
            out.sorts = bt->sort_invocations;
            out.transfer_volume = bt->transfer_volume;
            for (model::ProcId p = 0; p < w.v; ++p) {
                if (bt->contexts[p][0] != in.sorted[p]) {
                    out.ok = false;
                    out.why = "sorted output wrong at processor " + std::to_string(p);
                    break;
                }
            }
        }
    }
    out.total_ms = ms_between(t0, Clock::now());
    if (tr != nullptr) tr->log->close(job_span);
    return out;
}

report::Json exact_json(const SimWorkload& w, const JobOut& o) {
    report::Json j = report::Json::object();
    j.set("cost", hex_double(o.cost));
    j.set("rounds", o.rounds);
    j.set("image_digest", o.image_digest);
    if (w.target == Target::kHmm) {
        j.set("words_touched", o.words_touched);
    } else {
        j.set("block_transfers", o.block_transfers);
        j.set("sort_invocations", o.sorts);
        j.set("transfer_volume", hex_double(o.transfer_volume));
    }
    if (w.profiler != Profiler::kNone) {
        j.set("refs", o.refs);
        j.set("sampled_refs", o.sampled_refs);
        j.set("mrc_digest", o.mrc_digest);
    }
    return j;
}

void check_job(const JobOut& o, const JobOut* reference, std::uint64_t job, RunResult* r) {
    ++r->attempted;
    if (!o.ok) {
        r->fail("job " + std::to_string(job) + ": " + o.why);
    } else if (reference != nullptr && !o.same_outputs(*reference)) {
        r->fail("job " + std::to_string(job) +
                ": costs or counts differ from the same input's first run");
    }
}

}  // namespace

bool is_sim_workload(const std::string& name) { return find_workload(name) != nullptr; }

RunResult run_sim_workload(const RunConfig& cfg) {
    const SimWorkload& w = *find_workload(cfg.workload);
    const bool profiled = w.profiler != Profiler::kNone;
    RunResult result;

    // Set-up: fresh cost-table cache, input generation, one untimed warm-up
    // job; the first one also pays process start. Like a job, every set-up
    // sits between two probe runs. An untraced run repeats it at even
    // intervals through its window and reports the median.
    RelativeTimer timer;
    std::vector<double> setups;
    std::vector<Input> pool;
    Layers layers;
    const auto set_up = [&](Clock::time_point t0) {
        setups.push_back(timer.setup_s(t0, [&] {
            model::CostTableCache::global().clear();
            const auto builds0 = model::CostTableCache::global().stats().builds;
            pool = make_pool(w, cfg.seed);
            const JobOut warm = run_job(w, pool[0], true, nullptr);
            if (!warm.ok) result.fail("warm-up job: " + warm.why);
            layers.cost_table_builds =
                static_cast<double>(model::CostTableCache::global().stats().builds - builds0);
        }));
    };
    set_up(cfg.process_start);

    // The first kPoolSize jobs form the reference pass: one job per input,
    // untraced, whose outputs every later job on the same input must
    // reproduce bit for bit and whose counts are the run's exact counts.
    std::vector<JobOut> reference;
    const RegistryCounts reg0 = RegistryCounts::read();
    const auto avoided0 = model::CostTableCache::global().stats().builds_avoided();
    const auto finish_reference = [&](const JobOut& o) {
        reference.push_back(o);
        if (reference.size() < kPoolSize) return;
        RegistryCounts::read().delta_into(reg0, &layers);
        layers.cost_table_builds_avoided = static_cast<double>(
            model::CostTableCache::global().stats().builds_avoided() - avoided0);
        for (const JobOut& ref : reference) {
            layers.words_touched += static_cast<double>(ref.words_touched);
            layers.rounds += static_cast<double>(ref.rounds);
            layers.block_transfers += static_cast<double>(ref.block_transfers);
            layers.sort_invocations += static_cast<double>(ref.sorts);
            layers.transfer_volume += ref.transfer_volume;
            layers.locality_refs += static_cast<double>(ref.refs);
            layers.locality_sampled_refs += static_cast<double>(ref.sampled_refs);
        }
    };

    const double budget_ms = cfg.seconds * 1e3;
    const Clock::time_point w0 = Clock::now();
    const auto in_window = [&] { return ms_between(w0, Clock::now()) < budget_ms; };
    std::uint64_t job = 0;

    if (!cfg.trace) {
        // Every job sits between two probe runs; the probe that closes one
        // job or set-up opens the next job.
        std::vector<double> times, rel;
        for (;; ++job) {
            if (setups.size() < kSetups - 1 &&
                ms_between(w0, Clock::now()) >= budget_ms * static_cast<double>(setups.size()) /
                                                    (kSetups - 1)) {
                set_up(Clock::now());
            }
            const bool timed = in_window();
            if (!timed && job >= kPoolSize) break;
            const std::size_t idx = job % kPoolSize;
            const JobOut o = run_job(w, pool[idx], true, nullptr);
            const double ratio = timer.end(o.total_ms);
            check_job(o, job < kPoolSize ? nullptr : &reference[idx], job, &result);
            if (job < kPoolSize) finish_reference(o);
            if (timed) {
                times.push_back(o.total_ms);
                rel.push_back(ratio);
            }
        }
        while (setups.size() < kSetups) set_up(Clock::now());
        EndToEnd e;
        e.setup_s = median(setups);
        e.job_rel_p50 = median(rel);
        e.job_rel_p90 = quantile(rel, 0.9);
        e.peak_rss_mb = peak_rss_mb(0);
        emit_end_to_end(e, &result);
        result.info.set("setups_s", json_array(setups));
        result.info.set("raw_setups_s", json_array(timer.raw_setups_s()));
        result.info.set("timed_jobs", static_cast<std::uint64_t>(times.size()));
        result.info.set("job_ms_p10", quantile(times, 0.1));
        result.info.set("job_ms_p50", median(times));
        result.info.set("job_ms_p90", quantile(times, 0.9));
        result.info.set("probe_ms_p50", median(timer.probe_ms()));
    } else {
        SpanLog log(w0);
        PhaseClock clock;
        LayerSamples samples;
        std::vector<double> noprof, folds;
        for (; job < kPoolSize; ++job) {
            const JobOut o = run_job(w, pool[job], true, nullptr);
            check_job(o, nullptr, job, &result);
            finish_reference(o);
            samples.untraced_ms.push_back(o.total_ms);
            folds.push_back(o.fold_ms);
        }
        // Alternate the variants on each input, rotating their order, so slow
        // drift of the host lands on all of them alike.
        const int variants = profiled ? 3 : 2;
        for (std::uint64_t round = 0; in_window() || samples.traced.empty(); ++round) {
            const std::size_t idx = round % kPoolSize;
            for (int k = 0; k < variants; ++k, ++job) {
                const int variant = static_cast<int>((k + round) % variants);
                if (variant == 0) {
                    const JobOut o = run_job(w, pool[idx], true, nullptr);
                    check_job(o, &reference[idx], job, &result);
                    samples.untraced_ms.push_back(o.total_ms);
                    folds.push_back(o.fold_ms);
                } else if (variant == 1) {
                    const TraceCtx tr{&log, &clock, job};
                    const JobOut o = run_job(w, pool[idx], true, &tr);
                    check_job(o, &reference[idx], job, &result);
                    TracedJob t;
                    t.total_ms = o.total_ms;
                    t.build_ms = o.build_ms;
                    t.smooth_ms = o.smooth_ms;
                    t.simulate_ms = o.simulate_ms;
                    t.fold_ms = o.fold_ms;
                    t.add_phases(clock);
                    samples.traced.push_back(t);
                } else {
                    const JobOut o = run_job(w, pool[idx], false, nullptr);
                    // Without the profiler there are no profile counts to compare.
                    JobOut expect = reference[idx];
                    expect.refs = expect.sampled_refs = 0;
                    expect.mrc_digest.clear();
                    check_job(o, &expect, job, &result);
                    noprof.push_back(o.total_ms);
                }
            }
        }
        samples.reduce(&layers);
        if (profiled) {
            const double untraced = median(samples.untraced_ms);
            layers.locality_overhead_pct = 100.0 * (untraced / median(noprof) - 1.0);
            layers.locality_fold_pct = 100.0 * median(folds) / untraced;
            layers.locality_sampled_fraction =
                layers.locality_sampled_refs / layers.locality_refs;
        }
        emit_layers(layers, &result);
        result.info.set("traced_jobs", static_cast<std::uint64_t>(samples.traced.size()));

        report::Json doc = log.to_json();
        doc.set("workload", cfg.workload);
        doc.set("seed", cfg.seed);
        if (!save_spans(cfg, doc)) result.fail("cannot write the spans file");
    }

    report::Json inputs = report::Json::array();
    for (const JobOut& ref : reference) inputs.push_back(exact_json(w, ref));
    result.exact.set("inputs", std::move(inputs));
    result.info.set("pool_size", static_cast<std::uint64_t>(kPoolSize));
    result.info.set("v", w.v);
    return result;
}

}  // namespace bench
