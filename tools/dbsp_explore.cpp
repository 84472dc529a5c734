/// dbsp_explore — command-line cost-model explorer.
///
/// Runs one of the built-in D-BSP workloads on a chosen machine size and
/// reports the D-BSP time plus the simulated HMM and/or BT costs, the
/// theorem bounds, and (with --trace) the full charge-trace breakdown. A
/// quick way to poke at the models without writing code.
///
/// Usage:
///   dbsp_explore --program fft|fft-rec|matmul|bitonic|oddeven|route
///                [--v N] [--f x^A | log] [--model hmm|bt|both|none]
///                [--seed S] [--rational]
///                [--trace[=chrome.json]]
///                [--locality[=profile.json][:sampled[@rate]]]
///                [--counters[=counters.json]]
///   dbsp_explore --spec FILE [--f x^A | log] [--model hmm|bt|both|none]
///                [--locality[:sampled[@rate]]]
///
/// Examples:
///   dbsp_explore --program bitonic --v 1024 --f x^0.5 --model both
///   dbsp_explore --program fft-rec --v 256 --f x^0.35 --model bt --rational
///   dbsp_explore --program matmul --v 4096 --f log --trace
///   dbsp_explore --program fft --v 256 --model both --trace=trace.json
///   dbsp_explore --program fft --v 4096 --model hmm --locality=profile.json
///   dbsp_explore --program fft --v 65536 --model hmm --locality:sampled@0.05
///   dbsp_explore --program bitonic --v 1024 --model hmm --counters=hw.json
///
/// The observability flag family — all three attach to the same HMM/BT
/// simulation legs, can be combined freely, and never change a charged cost:
///  * --trace observes *costs* (where the charged f()-time went, by phase
///    and level);
///  * --locality observes the *address stream* (reuse distances, working
///    set, per-level hit ratios of the simulated run). `:sampled[@rate]`
///    switches the profiler to the SHARDS-sampled engine (default rate
///    0.01): rate-corrected approximate analytics at a fraction of the
///    exact engine's cost — the right mode for large runs where the score
///    and CDF shape matter more than the last decimal;
///  * --counters observes the *host*: each leg runs under a hardware
///    perf-counter group (cycles, instructions, L1D/LLC/dTLB traffic,
///    multiplex-corrected) and the locality profile is folded through the
///    stack-distance cache model into predicted LRU miss ratios at the
///    host's own L1/L2/LLC geometries (dbsp-cachemodel-v1). Where
///    perf_event_open is denied (containers, CI) the counters report
///    unavailable with the errno reason and the predictions still print.
/// The direct D-BSP leg has no memory address stream, so --locality and
/// --counters cover only the HMM/BT legs.
///
/// --spec FILE is the offline twin of a dbsp_serve run request: it executes
/// the `dbsp-spec v1` program in FILE through the same serve::run_to_json
/// runner and prints the compact "dbsp-serve-result-v1" document (one line).
/// The serve conformance check compares a daemon reply byte-for-byte against
/// this output.

#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "algos/bitonic_sort.hpp"
#include "check/trace_io.hpp"
#include "serve/runner.hpp"
#include "algos/fft_direct.hpp"
#include "algos/fft_recursive.hpp"
#include "algos/matmul.hpp"
#include "algos/odd_even_sort.hpp"
#include "algos/permutation.hpp"
#include "core/bounds.hpp"
#include "core/bt_simulator.hpp"
#include "core/hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "locality/cache_model.hpp"
#include "locality/sink.hpp"
#include "model/dbsp_machine.hpp"
#include "perf/counters.hpp"
#include "report/provenance.hpp"
#include "trace/aggregate.hpp"
#include "trace/chrome_trace.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"
#include "cli.hpp"

namespace {

using namespace dbsp;

constexpr const char* kTool = "dbsp_explore";

[[noreturn]] void usage(const char* self) {
    std::fprintf(stderr,
                 "usage: %s --program fft|fft-rec|matmul|bitonic|oddeven|route\n"
                 "          [--v N] [--f x^A|log] [--model hmm|bt|both|none]\n"
                 "          [--seed S] [--rational]\n"
                 "          [observability flags]\n"
                 "       %s --spec FILE [--f x^A|log] [--model hmm|bt|both|none]\n"
                 "          [--locality[:sampled[@rate]]]\n"
                 "observability flags (attach to the HMM/BT legs; charged costs are\n"
                 "never affected):\n"
                 "  --trace[=chrome.json]     charge-trace breakdown by phase and level\n"
                 "  --locality[=profile.json][:sampled[@rate]]\n"
                 "                            reuse-distance profile of the simulated\n"
                 "                            address stream (SHARDS-sampled with\n"
                 "                            :sampled, default rate 0.01)\n"
                 "  --counters[=hw.json]      hardware perf counters around each leg +\n"
                 "                            stack-distance cache-model predictions\n"
                 "                            (reports unavailable where perf_event_open\n"
                 "                            is denied)\n",
                 self,
                 self);
    std::exit(2);
}

std::unique_ptr<model::Program> make_program(const std::string& name, std::uint64_t v,
                                             std::uint64_t seed) {
    SplitMix64 rng(seed);
    if (name == "fft" || name == "fft-rec") {
        std::vector<std::complex<double>> x(v);
        for (auto& c : x) c = {rng.next_double() - 0.5, rng.next_double() - 0.5};
        if (name == "fft") return std::make_unique<algo::FftDirectProgram>(x);
        return std::make_unique<algo::FftRecursiveProgram>(x);
    }
    if (name == "matmul") {
        std::vector<model::Word> a(v), b(v);
        for (auto& w : a) w = rng.next_below(1 << 20);
        for (auto& w : b) w = rng.next_below(1 << 20);
        return std::make_unique<algo::MatMulProgram>(a, b);
    }
    if (name == "bitonic" || name == "oddeven") {
        std::vector<model::Word> keys(v);
        for (auto& k : keys) k = rng.next();
        if (name == "bitonic") return std::make_unique<algo::BitonicSortProgram>(keys);
        return std::make_unique<algo::OddEvenTranspositionSortProgram>(keys);
    }
    if (name == "route") {
        std::vector<unsigned> labels;
        for (unsigned l = 0; l <= ilog2(v); ++l) labels.push_back(ilog2(v) - l);
        return std::make_unique<algo::RandomRoutingProgram>(v, labels, seed);
    }
    return nullptr;
}

/// One leg's observers. The flags pick which of them reach the run: the
/// aggregate table under --trace, the Chrome track when --trace names a
/// file, the profiler under --locality or --counters. sinks.target() is
/// the one charge sink to attach (nullptr when no flag is on).
struct Leg {
    Leg(const char* track, bool traced, bool chrome_track, bool profiled,
        const locality::LocalityOptions& profile)
        : chrome(track), loc(profile),
          sinks{traced ? &aggregate : nullptr, chrome_track ? &chrome : nullptr,
                profiled ? &loc : nullptr} {}

    trace::AggregateSink aggregate;
    trace::ChromeTraceSink chrome;
    locality::LocalitySink loc;
    trace::MultiSink sinks;
};

/// One leg's hardware-counter summary line (multiplex-corrected ratios), or
/// the degradation reason.
void print_counters(const char* leg, const perf::CounterSnapshot& snap) {
    if (!snap.available) {
        std::printf("hw counters (%s): unavailable (%s)\n", leg, snap.reason.c_str());
        return;
    }
    auto pct = [&snap](const char* misses, const char* accesses) {
        const double r = snap.ratio(misses, accesses);
        return r < 0.0 ? 0.0 : 100.0 * r;
    };
    const double cycles = snap.scaled("cycles");
    std::printf("hw counters (%s): cycles %.4g  ipc %.2f  l1d-miss %.2f%%  "
                "llc-miss %.2f%%  dtlb-miss %.3f%%\n",
                leg, cycles, cycles > 0.0 ? snap.scaled("instructions") / cycles : 0.0,
                pct("l1d_read_misses", "l1d_read_accesses"),
                pct("llc_misses", "llc_accesses"),
                pct("dtlb_read_misses", "dtlb_read_accesses"));
}

/// Stack-distance predictions at the host's own cache geometries.
void print_cache_model(const std::string& leg, const locality::LocalityProfile& profile) {
    const auto host = locality::host_cache_geometries();
    if (host.empty()) {
        std::printf("cache model (%s): host geometries unavailable (no sysfs)\n",
                    leg.c_str());
        return;
    }
    std::printf("cache model (%s): predicted LRU miss ratios at host geometries\n",
                leg.c_str());
    for (const auto& g : host) {
        std::printf("  %-4s %12llu words: %.4f%s\n", g.name.c_str(),
                    static_cast<unsigned long long>(g.capacity_words),
                    locality::predicted_miss_ratio(profile, g.capacity_words),
                    locality::prediction_is_exact(g.capacity_words) ? ""
                                                                    : " (interpolated)");
    }
}

/// The geometry set emitted into dbsp-cachemodel-v1 sections: host caches
/// plus the simulated machine's own level boundaries.
std::vector<locality::CacheGeometry> artifact_geometries(
    const locality::LocalityProfile& profile) {
    auto geos = locality::host_cache_geometries();
    auto levels = locality::level_geometries(profile.max_level());
    geos.insert(geos.end(), levels.begin(), levels.end());
    return geos;
}

}  // namespace

int main(int argc, char** argv) {
    if (dbsp::tools::handle_version_flag(argc, argv, kTool)) return 0;
    std::string program_name = "bitonic";
    std::string model_name = "both";
    std::uint64_t v = 256;
    std::uint64_t seed = 1;
    bool trace_enabled = false;
    std::string trace_path;
    bool locality_enabled = false;
    locality::LocalityOptions locality_options;
    std::string locality_path;
    bool counters_enabled = false;
    std::string counters_path;
    bool rational = false;
    std::string spec_path;
    model::AccessFunction f = model::AccessFunction::polynomial(0.5);

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--program") {
            program_name = next();
        } else if (arg == "--spec") {
            spec_path = next();
        } else if (arg == "--v") {
            v = tools::parse_u64(kTool, "--v", next());
            if (v == 0) tools::bad_arg(kTool, "--v", "0", "a positive power of two");
        } else if (arg == "--f") {
            std::string error;
            auto parsed = serve::parse_function(next(), &error);
            if (!parsed.has_value()) {
                std::fprintf(stderr, "dbsp_explore: invalid --f: %s\n", error.c_str());
                std::exit(2);
            }
            f = *std::move(parsed);
        } else if (arg == "--model") {
            model_name = next();
        } else if (arg == "--seed") {
            seed = tools::parse_u64(kTool, "--seed", next());
        } else if (arg == "--trace") {
            trace_enabled = true;
        } else if (arg.rfind("--trace=", 0) == 0) {
            trace_enabled = true;
            trace_path = arg.substr(std::strlen("--trace="));
            if (trace_path.empty()) {
                tools::bad_arg(kTool, "--trace", arg.c_str(), "a file path");
            }
        } else if (arg.rfind("--locality", 0) == 0) {
            // --locality[=path][:sampled[@rate]] — optional JSON output path,
            // optional SHARDS-sampled engine with an optional explicit rate.
            locality_enabled = true;
            std::string rest = arg.substr(std::strlen("--locality"));
            const std::size_t colon = rest.rfind(":sampled");
            if (colon != std::string::npos) {
                const std::string mode = rest.substr(colon + 1);
                rest = rest.substr(0, colon);
                locality_options.mode = locality::LocalityOptions::Mode::kSampled;
                if (mode != "sampled") {
                    const char* rate_str = mode.c_str() + std::strlen("sampled");
                    char* end = nullptr;
                    const double rate =
                        (*rate_str == '@') ? std::strtod(rate_str + 1, &end) : 0.0;
                    if (*rate_str != '@' || rate_str[1] == '\0' || end == nullptr ||
                        *end != '\0' || !serve::valid_sample_rate(rate)) {
                        tools::bad_arg(kTool, "--locality", arg.c_str(),
                                       ":sampled or :sampled@R with R in (0, 1]");
                    }
                    locality_options.sample_rate = rate;
                }
            }
            if (!rest.empty()) {
                if (rest[0] != '=' || rest.size() == 1) {
                    tools::bad_arg(kTool, "--locality", arg.c_str(),
                                   "--locality[=path][:sampled[@rate]]");
                }
                locality_path = rest.substr(1);
            }
        } else if (arg == "--counters") {
            counters_enabled = true;
        } else if (arg.rfind("--counters=", 0) == 0) {
            counters_enabled = true;
            counters_path = arg.substr(std::strlen("--counters="));
            if (counters_path.empty()) {
                tools::bad_arg(kTool, "--counters", arg.c_str(), "a file path");
            }
        } else if (arg == "--rational") {
            rational = true;
        } else {
            usage(argv[0]);
        }
    }
    if (!is_pow2(v)) {
        std::fprintf(stderr, "dbsp_explore: --v must be a power of two (got %llu)\n",
                     static_cast<unsigned long long>(v));
        return 2;
    }
    if (model_name != "hmm" && model_name != "bt" && model_name != "both" &&
        model_name != "none") {
        tools::bad_arg(kTool, "--model", model_name.c_str(), "hmm, bt, both, or none");
    }

    if (!spec_path.empty()) {
        // Offline twin of a dbsp_serve run request: same runner, same bytes.
        if (trace_enabled || counters_enabled || !locality_path.empty()) {
            std::fprintf(stderr,
                         "dbsp_explore: --spec cannot be combined with --trace, "
                         "--counters, or a --locality output path\n");
            return 2;
        }
        std::ifstream in(spec_path);
        if (!in) {
            std::fprintf(stderr, "dbsp_explore: cannot open spec \"%s\"\n",
                         spec_path.c_str());
            return 1;
        }
        std::ostringstream buf;
        buf << in.rdbuf();
        check::ProgramSpec spec;
        std::string error;
        if (!check::parse_spec(buf.str(), &spec, &error)) {
            std::fprintf(stderr, "dbsp_explore: bad spec \"%s\": %s\n", spec_path.c_str(),
                         error.c_str());
            return 2;
        }
        serve::RunOptions run;
        run.model = model_name;
        run.f = f;
        if (locality_enabled) run.locality = locality_options;
        std::printf("%s\n", serve::run_to_json(spec, run).c_str());
        return 0;
    }

    // Program-specific sizes; each rule is the program class's own.
    if (program_name == "matmul" && !algo::MatMulProgram::valid_size(v)) {
        tools::bad_arg(kTool, "--v", std::to_string(v).c_str(),
                       "a power of 4 for --program matmul");
    }
    if (program_name == "fft-rec" && !algo::FftRecursiveProgram::valid_size(v)) {
        tools::bad_arg(kTool, "--v", std::to_string(v).c_str(),
                       "2^(2^k) or at most 4 for --program fft-rec");
    }
    if (program_name == "oddeven" && !algo::OddEvenTranspositionSortProgram::valid_size(v)) {
        tools::bad_arg(kTool, "--v", std::to_string(v).c_str(),
                       "at least 2 for --program oddeven");
    }
    auto program = make_program(program_name, v, seed);
    if (!program) usage(argv[0]);
    const std::size_t mu = program->context_words();

    const bool chrome = !trace_path.empty();

    // Direct execution + cost model.
    Leg direct_leg("dbsp", trace_enabled, chrome, false, locality_options);
    model::DbspMachine machine(f);
    machine.set_trace(direct_leg.sinks.target());
    const auto direct = machine.run(*program);
    std::printf("program %-10s v=%llu  mu=%zu  supersteps=%zu\n", program_name.c_str(),
                static_cast<unsigned long long>(v), mu, direct.supersteps.size());
    std::printf("D-BSP(%llu, %zu, %s): T = %.4g (compute %.4g + communicate %.4g)\n",
                static_cast<unsigned long long>(v), mu, f.name().c_str(), direct.time,
                direct.computation_time(), direct.communication_time());
    if (trace_enabled) direct_leg.aggregate.print(stdout, direct.time);

    // --counters needs the reuse-distance profile for its cache-model
    // predictions, so it implies attaching the locality sink; the profile
    // tables still print only under an explicit --locality. Neither observer
    // changes a charged cost (fuzz- and bench-enforced invariant).
    const bool locality_print = locality_enabled;
    if (counters_enabled) locality_enabled = true;
    std::unique_ptr<perf::CounterGroup> hmm_counters, bt_counters;
    perf::CounterSnapshot hmm_snap, bt_snap;
    if (counters_enabled) {
        hmm_counters = std::make_unique<perf::CounterGroup>();
        bt_counters = std::make_unique<perf::CounterGroup>();
    }

    Leg hmm_leg("hmm", trace_enabled, chrome, locality_enabled, locality_options);
    bool have_hmm_profile = false;
    if (model_name == "hmm" || model_name == "both") {
        auto prog = make_program(program_name, v, seed);
        auto smoothed = core::smooth(*prog, core::hmm_label_set(f, mu, v));
        core::HmmSimulator::Options options;
        options.trace = hmm_leg.sinks.target();
        if (hmm_counters) hmm_counters->start();
        const auto res = core::HmmSimulator(f, options).simulate(*smoothed);
        if (hmm_counters) {
            hmm_counters->stop();
            hmm_snap = hmm_counters->read();
        }
        const double bound = core::theorem5_bound(direct, f, v, mu);
        std::printf("%s-HMM simulation: cost %.4g  slowdown/v %.3g  cost/Thm5-bound %.3g\n",
                    f.name().c_str(), res.hmm_cost,
                    res.hmm_cost / (direct.time * static_cast<double>(v)),
                    res.hmm_cost / bound);
        if (trace_enabled) hmm_leg.aggregate.print(stdout, res.hmm_cost);
        if (locality_print) hmm_leg.loc.profile().print(stdout, f.name() + "-HMM simulation");
        if (locality_enabled) have_hmm_profile = true;
        if (counters_enabled) {
            print_counters("hmm", hmm_snap);
            print_cache_model(f.name() + "-HMM", hmm_leg.loc.profile());
        }
    }
    Leg bt_leg("bt", trace_enabled, chrome, locality_enabled, locality_options);
    bool have_bt_profile = false;
    if (model_name == "bt" || model_name == "both") {
        auto prog = make_program(program_name, v, seed);
        auto smoothed = core::smooth(*prog, core::bt_label_set(f, mu, v));
        core::BtSimulator::Options options;
        options.use_rational_permutations = rational;
        options.trace = bt_leg.sinks.target();
        if (bt_counters) bt_counters->start();
        const auto res = core::BtSimulator(f, options).simulate(*smoothed);
        if (bt_counters) {
            bt_counters->stop();
            bt_snap = bt_counters->read();
        }
        const double bound = core::theorem12_bound(direct, v, mu);
        std::printf("%s-BT  simulation: cost %.4g  cost/Thm12-bound %.3g"
                    "  (sorts %llu, transposes %llu)\n",
                    f.name().c_str(), res.bt_cost, res.bt_cost / bound,
                    static_cast<unsigned long long>(res.sort_invocations),
                    static_cast<unsigned long long>(res.transpose_invocations));
        if (trace_enabled) bt_leg.aggregate.print(stdout, res.bt_cost);
        if (locality_print) bt_leg.loc.profile().print(stdout, f.name() + "-BT simulation");
        if (locality_enabled) have_bt_profile = true;
        if (counters_enabled) {
            print_counters("bt", bt_snap);
            print_cache_model(f.name() + "-BT", bt_leg.loc.profile());
        }
    }

    if (chrome) {
        const trace::ChromeTraceSink* const tracks[] = {&direct_leg.chrome, &hmm_leg.chrome,
                                                        &bt_leg.chrome};
        if (!trace::ChromeTraceSink::write_merged(tracks, trace_path)) {
            std::fprintf(stderr, "dbsp_explore: cannot write trace file \"%s\"\n",
                         trace_path.c_str());
            return 1;
        }
        std::printf("wrote Chrome trace to %s\n", trace_path.c_str());
    }

    if (!locality_path.empty()) {
        report::Json doc = report::Json::object();
        doc.set("schema", "dbsp-locality-v2");
        doc.set("provenance", report::Provenance::collect().to_json());
        doc.set("program", program_name);
        doc.set("v", v);
        doc.set("f", f.name());
        const bool sampled =
            locality_options.mode == locality::LocalityOptions::Mode::kSampled;
        doc.set("mode", sampled ? "sampled" : "exact");
        if (sampled) doc.set("sample_rate", locality_options.sample_rate);
        report::Json profiles = report::Json::object();
        if (have_hmm_profile) profiles.set("hmm", hmm_leg.loc.profile().to_json());
        if (have_bt_profile) profiles.set("bt", bt_leg.loc.profile().to_json());
        doc.set("profiles", std::move(profiles));
        std::string error;
        if (!doc.save_file(locality_path, &error)) {
            std::fprintf(stderr, "dbsp_explore: cannot write locality profile \"%s\": %s\n",
                         locality_path.c_str(), error.c_str());
            return 1;
        }
        std::printf("wrote locality profile to %s\n", locality_path.c_str());
    }

    if (!counters_path.empty()) {
        // dbsp-hwcounters-v1: per-leg counter snapshots + cache-model
        // predictions. The top-level "counters" availability object is the
        // contract the CI degradation smoke asserts on.
        report::Json doc = report::Json::object();
        doc.set("schema", "dbsp-hwcounters-v1");
        doc.set("provenance", report::Provenance::collect().to_json());
        doc.set("program", program_name);
        doc.set("v", v);
        doc.set("f", f.name());
        report::Json avail = report::Json::object();
        const bool any_available = (have_hmm_profile && hmm_snap.available) ||
                                   (have_bt_profile && bt_snap.available);
        avail.set("available", any_available);
        if (!any_available) {
            avail.set("reason", have_hmm_profile ? hmm_snap.reason
                                : have_bt_profile ? bt_snap.reason
                                                  : "no simulation leg ran");
        }
        doc.set("counters", std::move(avail));
        report::Json legs = report::Json::object();
        if (have_hmm_profile) {
            report::Json leg = report::Json::object();
            leg.set("counters", hmm_snap.to_json());
            const locality::LocalityProfile p = hmm_leg.loc.profile();
            leg.set("cachemodel", locality::cache_model_json(p, artifact_geometries(p)));
            legs.set("hmm", std::move(leg));
        }
        if (have_bt_profile) {
            report::Json leg = report::Json::object();
            leg.set("counters", bt_snap.to_json());
            const locality::LocalityProfile p = bt_leg.loc.profile();
            leg.set("cachemodel", locality::cache_model_json(p, artifact_geometries(p)));
            legs.set("bt", std::move(leg));
        }
        doc.set("legs", std::move(legs));
        std::string error;
        if (!doc.save_file(counters_path, &error)) {
            std::fprintf(stderr, "dbsp_explore: cannot write counters file \"%s\": %s\n",
                         counters_path.c_str(), error.c_str());
            return 1;
        }
        std::printf("wrote hardware-counter report to %s\n", counters_path.c_str());
    }
    return 0;
}
