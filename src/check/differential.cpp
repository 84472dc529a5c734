#include "check/differential.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "check/per_word_locality.hpp"
#include "core/bounds.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/naive_bt_simulator.hpp"
#include "core/naive_hmm_simulator.hpp"
#include "core/self_simulator.hpp"
#include "core/smoothing.hpp"
#include "locality/cache_model.hpp"
#include "locality/sink.hpp"
#include "model/cost_table_cache.hpp"
#include "model/dbsp_machine.hpp"
#include "model/recorded_program.hpp"
#include "model/superstep_exec.hpp"
#include "report/metrics.hpp"
#include "trace/aggregate.hpp"
#include "trace/sink.hpp"
#include "util/contracts.hpp"

namespace dbsp::check {

using model::ContextLayout;
using model::ProcId;
using model::StepIndex;
using model::Word;

namespace {

/// Empirical slack for the Theorem 5/12 tripwires. The theorems are O()
/// statements; these constants were calibrated by sweeping the fuzzer's own
/// program distribution and sit an order of magnitude above the largest
/// observed simulator/bound ratio, so a trip means a gross charging
/// regression, not an unlucky constant.
constexpr double kTheorem5Slack = 64.0;
constexpr double kTheorem12Slack = 64.0;

/// Machines the theorem tripwires apply to: below this the BT staging pad
/// (>= 4096 words) and per-round fixed costs dominate the asymptotic terms.
constexpr std::uint64_t kBoundMinProcessors = 8;

std::string describe_word_diff(const std::vector<Word>& a, const std::vector<Word>& b) {
    std::ostringstream os;
    if (a.size() != b.size()) {
        os << "image sizes differ: " << a.size() << " vs " << b.size();
        return os.str();
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i]) {
            os << "word " << i << ": " << a[i] << " vs " << b[i];
            return os.str();
        }
    }
    os << "identical";
    return os.str();
}

/// Collects failures with a shared context prefix (access-function name).
class Reporter {
public:
    Reporter(DiffReport& report, std::string context)
        : report_(report), context_(std::move(context)) {}

    void fail(const std::string& tag, const std::string& detail) {
        report_.failures.push_back({tag, "[" + context_ + "] " + detail});
    }

    void check_cost(const std::string& tag, const std::string& what, double expected,
                    double actual) {
        // Bit-identical, not approximately equal: the mode axes promise the
        // exact same fold of the exact same doubles.
        if (expected != actual) {
            std::ostringstream os;
            os.precision(17);
            os << what << ": expected " << expected << ", got " << actual;
            fail(tag, os.str());
        }
    }

    /// Integer audit, e.g. a count a sink attributed against the executor's.
    void check_count(const std::string& tag, const std::string& what,
                     std::uint64_t expected, std::uint64_t actual) {
        if (expected != actual) {
            std::ostringstream os;
            os << what << ": expected " << expected << ", got " << actual;
            fail(tag, os.str());
        }
    }

    /// A sink's attributed cost sums the charged deltas in its own order, so
    /// it matches the executor's charged cost only to roundoff.
    void check_attributed(const std::string& tag, const std::string& what, double charged,
                          double attributed) {
        if (!(std::abs(attributed - charged) <= 1e-9 * std::max(1.0, charged))) {
            std::ostringstream os;
            os.precision(17);
            os << what << ": charged " << charged << ", attributed " << attributed;
            fail(tag, os.str());
        }
    }

    void check_images(const std::string& tag, const std::string& what,
                      const std::vector<std::vector<Word>>& expected,
                      const std::vector<std::vector<Word>>& actual) {
        DBSP_REQUIRE(expected.size() == actual.size());
        for (ProcId p = 0; p < expected.size(); ++p) {
            if (expected[p] != actual[p]) {
                std::ostringstream os;
                os << what << ": processor " << p << " diverges ("
                   << describe_word_diff(expected[p], actual[p]) << ")";
                fail(tag, os.str());
                return;  // one image failure per comparison is enough
            }
        }
    }

private:
    DiffReport& report_;
    std::string context_;
};

/// Locality-profiler mode axes, shared by the HMM and BT blocks: \p exact is
/// a default LocalitySink's profile of the simulation, which \p run re-runs
/// deterministically with the given sink attached (same reference stream).
///  * batched vs per-word: the engine's O(log n + b) bulk path promises an
///    event stream — and therefore a profile — bit-identical to feeding
///    every word through record() alone (PerWordLocalitySink);
///  * sampled rate 1.0: the SHARDS filter passes every address and all rate
///    corrections are the identity, so the profile must equal exact's;
///  * sampled rate 0.25: the estimates are unbiased but noisy; the band
///    below is a tripwire calibrated like the theorem slacks — wide enough
///    that only a broken rate correction (not an unlucky sample) trips it,
///    and gated on a minimum measured-reference count so tiny programs
///    don't produce degenerate estimates.
template <typename RunTraced>
void check_locality_modes(Reporter& rep, const std::string& tag,
                          const locality::LocalityProfile& exact, RunTraced&& run) {
    // MRC comparison capacities: powers of two (exact predictions) and
    // interior points (interpolated) — the cache-model axis of each mode
    // promise below. Bit-identical profiles must predict bit-identical miss
    // ratios at *every* capacity, interpolated or not.
    constexpr std::uint64_t kMrcCapacities[] = {1, 2, 5, 8, 64, 1000, 4096};

    {
        PerWordLocalitySink per_word;
        run(per_word);
        if (!exact.identical(per_word.profile())) {
            rep.fail(tag, "batched profile differs from per-word profile");
        }
        for (const std::uint64_t c : kMrcCapacities) {
            const double mb = locality::predicted_miss_ratio(exact, c);
            const double mw = locality::predicted_miss_ratio(per_word.profile(), c);
            if (mb != mw) {
                std::ostringstream os;
                os.precision(17);
                os << "predicted miss ratio at capacity " << c << " differs between "
                   << "batched (" << mb << ") and per-word (" << mw << ") engines";
                rep.fail(tag, os.str());
            }
        }
    }
    {
        locality::LocalityOptions opts;
        opts.mode = locality::LocalityOptions::Mode::kSampled;
        opts.sample_rate = 1.0;
        locality::LocalitySink full(opts);
        run(full);
        if (!exact.identical(full.profile())) {
            rep.fail(tag, "rate-1.0 sampled profile differs from exact profile");
        }
        for (const std::uint64_t c : kMrcCapacities) {
            const double me = locality::predicted_miss_ratio(exact, c);
            const double mf = locality::predicted_miss_ratio(full.profile(), c);
            if (me != mf) {
                std::ostringstream os;
                os.precision(17);
                os << "predicted miss ratio at capacity " << c << " differs between "
                   << "exact (" << me << ") and rate-1.0 sampled (" << mf << ") modes";
                rep.fail(tag, os.str());
            }
        }
    }
    {
        locality::LocalityOptions opts;
        opts.mode = locality::LocalityOptions::Mode::kSampled;
        opts.sample_rate = 0.25;
        locality::LocalitySink sampled_sink(opts);
        run(sampled_sink);
        locality::LocalityProfile approx = sampled_sink.profile();
        rep.check_count(tag, "sampled-mode references vs exact", exact.accesses,
                        approx.accesses);
        // SHARDS estimation error scales with the *sampled working set*
        // (roughly 1/sqrt(distinct sampled addresses)), so the band is only
        // meaningful once the sample holds enough addresses — tiny fuzz
        // programs where three sampled addresses decide every hit fraction
        // are skipped rather than band-checked.
        constexpr std::uint64_t kMinSampledRefs = 512;
        constexpr std::uint64_t kMinSampledAddrs = 64;
        if (approx.sampled_accesses >= kMinSampledRefs &&
            approx.distinct_addresses >= kMinSampledAddrs) {
            const double ds = std::abs(approx.locality_score() - exact.locality_score());
            if (!(ds <= std::max(1.5, 0.5 * exact.locality_score()))) {
                std::ostringstream os;
                os.precision(17);
                os << "sampled locality score " << approx.locality_score()
                   << " outside band of exact " << exact.locality_score();
                rep.fail(tag, os.str());
            }
            for (unsigned level = 1; level <= exact.max_level(); ++level) {
                const double dh =
                    std::abs(approx.hit_fraction(level) - exact.hit_fraction(level));
                if (!(dh <= 0.45)) {
                    std::ostringstream os;
                    os.precision(17);
                    os << "sampled hit fraction at level " << level << " is "
                       << approx.hit_fraction(level) << ", exact "
                       << exact.hit_fraction(level);
                    rep.fail(tag, os.str());
                }
                // Same band for the predicted MRC at the level's capacity:
                // SHARDS rate correction feeds the miss-ratio denominator,
                // so a broken correction skews the whole curve, not just
                // one hit fraction.
                const std::uint64_t cap = std::uint64_t{1} << level;
                const double dm = std::abs(locality::predicted_miss_ratio(approx, cap) -
                                           locality::predicted_miss_ratio(exact, cap));
                if (!(dm <= 0.45)) {
                    std::ostringstream os;
                    os.precision(17);
                    os << "sampled predicted miss ratio at capacity " << cap << " is "
                       << locality::predicted_miss_ratio(approx, cap) << ", exact "
                       << locality::predicted_miss_ratio(exact, cap);
                    rep.fail(tag, os.str());
                }
            }
        }
    }
}

std::vector<std::vector<Word>> images_of(const std::vector<std::vector<Word>>& contexts,
                                         const ContextLayout& layout) {
    std::vector<std::vector<Word>> images;
    images.reserve(contexts.size());
    for (const auto& ctx : contexts) images.push_back(functional_image(ctx, layout));
    return images;
}

/// Self-simulation host sizes to exercise: the degenerate single-HMM host,
/// the identity host, and one strictly intermediate size when it exists.
std::vector<std::uint64_t> self_sim_hosts(std::uint64_t v) {
    std::vector<std::uint64_t> hosts{1};
    const std::uint64_t mid = std::uint64_t{1} << (ilog2(v) / 2);
    if (mid > 1 && mid < v) hosts.push_back(mid);
    if (v > 1) hosts.push_back(v);
    return hosts;
}

}  // namespace

bool DiffReport::has_tag(const std::string& tag) const {
    return std::any_of(failures.begin(), failures.end(),
                       [&](const DiffFailure& f) { return f.tag == tag; });
}

std::string DiffReport::summary() const {
    std::ostringstream os;
    for (const auto& f : failures) os << f.tag << ": " << f.detail << "\n";
    return os.str();
}

std::vector<Word> functional_image(const std::vector<Word>& context,
                                   const ContextLayout& layout) {
    DBSP_REQUIRE(context.size() == layout.context_words());
    std::vector<Word> image(context.begin(),
                            context.begin() + static_cast<std::ptrdiff_t>(layout.data_words));
    const Word in_count = context[layout.in_count_offset()];
    DBSP_REQUIRE(in_count <= layout.max_messages);
    image.push_back(in_count);
    for (Word k = 0; k < in_count; ++k) {
        const std::size_t off = layout.in_record_offset(k);
        image.push_back(context[off]);
        image.push_back(context[off + 1]);
        image.push_back(context[off + 2]);
    }
    image.push_back(context[layout.out_count_offset()]);
    return image;
}

DiffReport check_program(model::Program& program, const DiffConfig& config) {
    DiffReport report;
    const std::vector<model::AccessFunction> functions =
        config.functions.empty()
            ? std::vector<model::AccessFunction>{model::AccessFunction::polynomial(0.35),
                                                 model::AccessFunction::polynomial(0.5),
                                                 model::AccessFunction::logarithmic()}
            : config.functions;

    const std::uint64_t v = program.num_processors();
    const ContextLayout layout = program.layout();
    const std::size_t mu = layout.context_words();

    for (const model::AccessFunction& f : functions) {
        Reporter rep(report, "f=" + f.name());

        // --- direct executor: the functional + cost reference -------------
        const auto run_direct = [&](bool bulk, bool cache,
                                    trace::Sink* sink) -> model::DbspResult {
            model::ScopedBulkAccess sb(bulk);
            model::ScopedCostTableCache sc(cache);
            model::DbspMachine machine(f);
            machine.set_trace(sink);
            return machine.run(program);
        };
        const model::DbspResult ref = run_direct(true, true, nullptr);
        const auto ref_images = images_of(ref.contexts, layout);

        {
            // Monotone accumulation: every superstep adds >= 1, and the total
            // is exactly the in-order fold of the per-superstep costs.
            double fold = 0.0;
            for (const auto& s : ref.supersteps) {
                if (!(s.cost >= 1.0)) {
                    std::ostringstream os;
                    os.precision(17);
                    os << "superstep cost " << s.cost << " < 1";
                    rep.fail("direct-cost-monotone", os.str());
                }
                fold += s.cost;
            }
            rep.check_cost("direct-cost-fold", "sum of superstep costs vs total", ref.time,
                           fold);
        }
        for (const bool bulk : {false, true}) {
            const model::DbspResult alt = run_direct(bulk, /*cache=*/bulk, nullptr);
            rep.check_cost("direct-cost-mode",
                           bulk ? "bulk direct time" : "per-word direct time", ref.time,
                           alt.time);
            rep.check_images("direct-image-mode",
                             bulk ? "bulk direct image" : "per-word direct image",
                             ref.contexts, alt.contexts);
        }
        {
            trace::AggregateSink sink;
            const model::DbspResult traced = run_direct(true, true, &sink);
            std::uint64_t supersteps = 0;
            for (const auto& [key, stats] : sink.phases()) {
                if (key.phase == trace::Phase::kSuperstep) supersteps += stats.scopes;
            }
            rep.check_count("direct-trace-counts", "superstep events vs supersteps run",
                            traced.supersteps.size(), supersteps);
            rep.check_attributed("direct-trace-cost", "attributed vs direct time",
                                 traced.time, sink.attributed_cost());
            rep.check_cost("direct-cost-mode", "traced direct time", ref.time, traced.time);
        }

        // --- HMM simulator on an hmm_label_set smoothing ------------------
        {
            const std::vector<unsigned> labels = core::hmm_label_set(f, mu, v);
            auto smoothed = core::smooth(program, labels);
            if (!core::is_smooth(*smoothed, labels)) {
                rep.fail("smooth-hmm-def3", "hmm_label_set smoothing is not L-smooth");
            }
            // Smoothing must be functionally invisible.
            const model::DbspResult sm_direct = [&] {
                model::DbspMachine machine(f);
                return machine.run(*smoothed);
            }();
            rep.check_images("smooth-hmm-image", "direct run of smoothed program",
                             ref_images, images_of(sm_direct.contexts, layout));

            const auto run_hmm = [&](bool bulk, bool cache,
                                     trace::Sink* sink) -> core::HmmSimResult {
                model::ScopedBulkAccess sb(bulk);
                model::ScopedCostTableCache sc(cache);
                core::HmmSimulator::Options opt;
                opt.trace = sink;
                opt.check_invariants = true;  // Theorem 4's Invariants 1-2
                return core::HmmSimulator(f, opt).simulate(*smoothed);
            };
            const core::HmmSimResult hmm = run_hmm(true, true, nullptr);
            rep.check_images("hmm-image", "HMM simulation image", ref_images,
                             images_of(hmm.contexts, layout));
            for (const auto& [bulk, cache] :
                 {std::pair{false, true}, std::pair{true, false}, std::pair{false, false}}) {
                const core::HmmSimResult alt = run_hmm(bulk, cache, nullptr);
                std::ostringstream what;
                what << "HMM cost (bulk=" << bulk << " cache=" << cache << ")";
                rep.check_cost("hmm-cost-mode", what.str(), hmm.hmm_cost, alt.hmm_cost);
                rep.check_images("hmm-image-mode", what.str() + " image", hmm.contexts,
                                 alt.contexts);
            }
            {
                // The traced run charges the untraced bits, and the
                // LocalitySink's references equal the machine's word
                // accounting: the result field and the registry counter the
                // machine publishes on destruction (the oracle runs
                // serially, so the registry delta is this run's).
                locality::LocalitySink sink;
                auto& touched = report::metric_counter("hmm.words_touched");
                const std::uint64_t touched_before = touched.value();
                const core::HmmSimResult traced = run_hmm(true, true, &sink);
                const std::uint64_t touched_delta = touched.value() - touched_before;
                rep.check_cost("hmm-cost-mode", "traced HMM cost", hmm.hmm_cost,
                               traced.hmm_cost);
                rep.check_count("locality-counts", "LocalitySink references vs words_touched",
                                traced.words_touched, sink.recorded_accesses());
                rep.check_count("locality-counts", "hmm.words_touched registry delta",
                                traced.words_touched, touched_delta);
                if (config.check_locality) {
                    check_locality_modes(
                        rep, "hmm-locality-modes", sink.profile(),
                        [&](trace::Sink& s) { (void)run_hmm(true, true, &s); });
                }
            }
            if (config.check_bounds && v >= kBoundMinProcessors) {
                const double bound =
                    kTheorem5Slack * core::theorem5_bound(sm_direct, f, v, mu);
                if (!(hmm.hmm_cost <= bound)) {
                    std::ostringstream os;
                    os.precision(17);
                    os << "hmm_cost " << hmm.hmm_cost << " exceeds slacked Theorem 5 bound "
                       << bound;
                    rep.fail("hmm-bound", os.str());
                }
            }
        }

        // --- BT simulator on a bt_label_set smoothing ---------------------
        {
            const std::vector<unsigned> labels = core::bt_label_set(f, mu, v);
            auto smoothed = core::smooth(program, labels);
            if (!core::is_smooth(*smoothed, labels)) {
                rep.fail("smooth-bt-def3", "bt_label_set smoothing is not L-smooth");
            }
            const model::DbspResult sm_direct = [&] {
                model::DbspMachine machine(f);
                return machine.run(*smoothed);
            }();
            rep.check_images("smooth-bt-image", "direct run of BT-smoothed program",
                             ref_images, images_of(sm_direct.contexts, layout));

            const auto run_bt = [&](bool bulk, bool cache,
                                    trace::Sink* sink) -> core::BtSimResult {
                model::ScopedBulkAccess sb(bulk);
                model::ScopedCostTableCache sc(cache);
                core::BtSimulator::Options opt;
                opt.trace = sink;
                opt.check_invariants = true;  // layout invariants + round checker
                return core::BtSimulator(f, opt).simulate(*smoothed);
            };
            const core::BtSimResult bt = run_bt(true, true, nullptr);
            rep.check_images("bt-image", "BT simulation image", ref_images,
                             images_of(bt.contexts, layout));
            for (const auto& [bulk, cache] :
                 {std::pair{false, true}, std::pair{true, false}, std::pair{false, false}}) {
                const core::BtSimResult alt = run_bt(bulk, cache, nullptr);
                std::ostringstream what;
                what << "BT cost (bulk=" << bulk << " cache=" << cache << ")";
                rep.check_cost("bt-cost-mode", what.str(), bt.bt_cost, alt.bt_cost);
                rep.check_images("bt-image-mode", what.str() + " image", bt.contexts,
                                 alt.contexts);
            }
            {
                // Same on the BT side, through one MultiSink as dbsp_explore
                // attaches it: transfers, transfer words and range words
                // against the result and the counters bt::Machine publishes
                // when run_bt's simulator is destroyed.
                trace::AggregateSink aggregate;
                locality::LocalitySink sink;
                trace::MultiSink both{&aggregate, &sink};
                auto& range_words = report::metric_counter("bt.range_words");
                auto& transfer_words = report::metric_counter("bt.transfer_words");
                const std::uint64_t ranged_before = range_words.value();
                const std::uint64_t transferred_before = transfer_words.value();
                const core::BtSimResult traced = run_bt(true, true, &both);
                const std::uint64_t ranged = range_words.value() - ranged_before;
                const std::uint64_t transferred =
                    transfer_words.value() - transferred_before;
                rep.check_count("bt-trace-counts", "attributed transfers vs block_transfers",
                                traced.block_transfers, aggregate.block_transfers());
                rep.check_count("bt-trace-counts", "attributed transfer words",
                                transferred, aggregate.transfer_volume());
                rep.check_attributed("bt-trace-cost", "attributed vs bt_cost", traced.bt_cost,
                                     aggregate.attributed_cost());
                rep.check_cost("bt-cost-mode", "traced BT cost", bt.bt_cost, traced.bt_cost);
                rep.check_count("locality-counts", "LocalitySink range words vs bt.range_words",
                                ranged, sink.range_words());
                if (config.check_locality) {
                    check_locality_modes(
                        rep, "bt-locality-modes", sink.profile(),
                        [&](trace::Sink& s) { (void)run_bt(true, true, &s); });
                }
            }
            {
                // Component attribution must account for the whole charge.
                // The components are window differences of one accumulator
                // summed in separate buckets, so allow only fp re-association
                // noise, not a structural gap.
                const double components =
                    bt.compute_cost + bt.deliver_cost + bt.layout_cost;
                const double tol = 1e-9 * std::max(1.0, bt.bt_cost);
                if (!(std::abs(components - bt.bt_cost) <= tol)) {
                    std::ostringstream os;
                    os.precision(17);
                    os << "compute+deliver+layout = " << components << " vs bt_cost "
                       << bt.bt_cost;
                    rep.fail("bt-components", os.str());
                }
            }
            if (config.check_bounds && v >= kBoundMinProcessors) {
                const double bound = kTheorem12Slack * core::theorem12_bound(sm_direct, v, mu);
                if (!(bt.bt_cost <= bound)) {
                    std::ostringstream os;
                    os.precision(17);
                    os << "bt_cost " << bt.bt_cost << " exceeds slacked Theorem 12 bound "
                       << bound;
                    rep.fail("bt-bound", os.str());
                }
            }
        }

        // --- naive (pinned-context) baselines -----------------------------
        {
            const auto run_naive_hmm = [&](bool bulk, bool cache) -> core::HmmSimResult {
                model::ScopedBulkAccess sb(bulk);
                model::ScopedCostTableCache sc(cache);
                return core::NaiveHmmSimulator(f).simulate(program);
            };
            const core::HmmSimResult nh = run_naive_hmm(true, true);
            rep.check_images("naive-hmm-image", "naive HMM image", ref_images,
                             images_of(nh.contexts, layout));
            const core::HmmSimResult nh_alt = run_naive_hmm(false, false);
            rep.check_cost("naive-hmm-cost-mode", "per-word naive HMM cost", nh.hmm_cost,
                           nh_alt.hmm_cost);
            rep.check_images("naive-hmm-image", "per-word naive HMM image", nh.contexts,
                             nh_alt.contexts);

            const auto run_naive_bt = [&](bool bulk, bool cache) -> core::BtSimResult {
                model::ScopedBulkAccess sb(bulk);
                model::ScopedCostTableCache sc(cache);
                return core::NaiveBtSimulator(f).simulate(program);
            };
            const core::BtSimResult nb = run_naive_bt(true, true);
            rep.check_images("naive-bt-image", "naive BT image", ref_images,
                             images_of(nb.contexts, layout));
            const core::BtSimResult nb_alt = run_naive_bt(false, false);
            rep.check_cost("naive-bt-cost-mode", "per-word naive BT cost", nb.bt_cost,
                           nb_alt.bt_cost);
            rep.check_images("naive-bt-image", "per-word naive BT image", nb.contexts,
                             nb_alt.contexts);
        }

        // --- Section 4 self-simulation ------------------------------------
        if (config.check_self_sim) {
            for (const std::uint64_t v_prime : self_sim_hosts(v)) {
                const auto run_self = [&](bool bulk, bool cache,
                                          trace::Sink* sink) -> core::SelfSimResult {
                    model::ScopedBulkAccess sb(bulk);
                    model::ScopedCostTableCache sc(cache);
                    core::SelfSimulator sim(f, v_prime);
                    sim.set_trace(sink);
                    return sim.simulate(program);
                };
                const core::SelfSimResult self = run_self(true, true, nullptr);
                std::ostringstream what;
                what << "self-sim v'=" << v_prime;
                rep.check_images("self-image", what.str() + " image", ref_images,
                                 images_of(self.contexts, layout));
                const core::SelfSimResult alt = run_self(false, false, nullptr);
                rep.check_cost("self-cost-mode", what.str() + " per-word host time",
                               self.host_time, alt.host_time);
                rep.check_images("self-image", what.str() + " per-word image",
                                 self.contexts, alt.contexts);
                // Self-simulation charges are unit-op terms without words:
                // only the attributed cost can be audited.
                trace::AggregateSink sink;
                const core::SelfSimResult traced = run_self(true, true, &sink);
                rep.check_attributed("self-trace-cost", what.str() + " attributed host time",
                                     traced.host_time, sink.attributed_cost());
                rep.check_cost("self-cost-mode", what.str() + " traced host time",
                               self.host_time, traced.host_time);
            }
        }

        // --- recorded-trace replay ----------------------------------------
        if (config.check_recorded) {
            model::Trace trace = model::record(program);
            model::RecordedProgram replay(std::move(trace));
            model::DbspMachine machine(f);
            const model::DbspResult rr = machine.run(replay);
            if (rr.supersteps.size() != ref.supersteps.size()) {
                std::ostringstream os;
                os << "replay has " << rr.supersteps.size() << " supersteps, original "
                   << ref.supersteps.size();
                rep.fail("recorded-shape", os.str());
            } else {
                for (StepIndex s = 0; s < rr.supersteps.size(); ++s) {
                    if (rr.supersteps[s].label != ref.supersteps[s].label) {
                        std::ostringstream os;
                        os << "superstep " << s << " label " << rr.supersteps[s].label
                           << " vs " << ref.supersteps[s].label;
                        rep.fail("recorded-labels", os.str());
                        break;
                    }
                    if (rr.supersteps[s].h != ref.supersteps[s].h) {
                        std::ostringstream os;
                        os << "superstep " << s << " h " << rr.supersteps[s].h << " vs "
                           << ref.supersteps[s].h;
                        rep.fail("recorded-h", os.str());
                        break;
                    }
                }
            }
        }
    }
    return report;
}

}  // namespace dbsp::check
