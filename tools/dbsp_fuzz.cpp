// dbsp_fuzz: differential fuzzer for the D-BSP executors.
//
// Each iteration generates a random D-BSP program (check::generate_spec),
// runs it through every executor, untraced and traced
// (check::check_program), and stops at the first divergence: the failing
// spec is shrunk to a minimal repro (check::shrink) and written to --out as
// a committable repro file — "dbsp-trace v2" when the divergence survives a
// RecordedProgram replay of the shrunk program, else "dbsp-spec v1".
//
//   dbsp_fuzz --seed 1 --iters 10000 --out tests/repros
//   dbsp_fuzz --repro tests/repros/repro_hmm-image_42.txt
//
// --parse-fuzz switches to the adversarial *parser* fuzzer: each iteration
// serializes a corpus spec (the same generator the shrinker corpus uses),
// applies random byte/line mutations — truncations, duplicated header
// sections, huge counts, spliced keywords — and feeds the mutant to
// parse_repro and the serve request parser. The invariants are purely
// defensive: no crash, every rejection carries a message, and every
// *accepted* mutant is a valid spec that round-trips to a serialization
// fixpoint. This is the barrage the dbsp_serve daemon faces on its socket.
//
// Deterministic: iteration i checks generator seed (--seed + i), so any
// failure is reproducible from the printed seed alone. Exit codes: 0 all
// clean, 1 divergence found, 2 usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <system_error>

#include "check/differential.hpp"
#include "check/program_gen.hpp"
#include "check/shrinker.hpp"
#include "check/trace_io.hpp"
#include "model/recorded_program.hpp"
#include "report/json.hpp"
#include "serve/protocol.hpp"
#include "util/rng.hpp"
#include "cli.hpp"

namespace {

using namespace dbsp;

constexpr const char* kTool = "dbsp_fuzz";

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--seed S] [--iters N] [--out DIR] [--max-v V] [--no-shrink]\n"
                 "       %s --repro FILE | --parse-fuzz\n"
                 "  --seed S      base seed; iteration i uses seed S+i (default 1)\n"
                 "  --iters N     number of programs to generate and check (default 100)\n"
                 "  --out DIR     directory for shrunk repro files (default .)\n"
                 "  --max-v V     cap generated machine sizes at V processors\n"
                 "  --no-shrink   report the raw failing spec without reduction\n"
                 "  --repro FILE  re-run one committed repro file through the oracle\n"
                 "  --parse-fuzz  mutate serialized specs and attack the parsers\n",
                 argv0, argv0);
    std::exit(2);
}

int run_repro(const std::string& path) {
    check::Repro repro;
    std::string error;
    if (!check::load_repro_file(path, &repro, &error)) {
        std::fprintf(stderr, "cannot load repro %s: %s\n", path.c_str(), error.c_str());
        return 2;
    }
    auto program = repro.make_program();
    const check::DiffReport report = check::check_program(*program);
    if (!report.ok()) {
        std::printf("repro %s still fails:\n%s", path.c_str(), report.summary().c_str());
        return 1;
    }
    std::printf("repro %s passes clean\n", path.c_str());
    return 0;
}

/// The --parse-fuzz main loop; see the file comment. Returns the exit code.
int run_parse_fuzz(std::uint64_t seed, std::uint64_t iters) {
    check::GenConfig config;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
        const std::uint64_t iter_seed = seed + i;
        SplitMix64 rng(iter_seed * 0x9e3779b97f4a7c15ull + 1);
        std::string text = check::serialize_spec(check::generate_spec(config, iter_seed));
        const std::uint64_t mutations = 1 + rng.next_below(8);
        for (std::uint64_t k = 0; k < mutations; ++k) check::mutate(&text, rng);

        check::Repro repro;
        std::string error;
        if (check::parse_repro(text, &repro, &error)) {
            ++accepted;
            if (repro.spec.has_value()) {
                std::string why;
                if (!check::spec_valid(*repro.spec, &why)) {
                    std::printf("seed %llu FAILS: parser accepted an invalid spec: %s\n",
                                static_cast<unsigned long long>(iter_seed), why.c_str());
                    return 1;
                }
                // Accepted input must reach a serialization fixpoint: the
                // canonical form re-parses to itself byte for byte.
                const std::string round = check::serialize_spec(*repro.spec);
                check::ProgramSpec again;
                if (!check::parse_spec(round, &again, &error) ||
                    check::serialize_spec(again) != round) {
                    std::printf("seed %llu FAILS: accepted spec does not round-trip\n",
                                static_cast<unsigned long long>(iter_seed));
                    return 1;
                }
            }
        } else {
            ++rejected;
            if (error.empty()) {
                std::printf("seed %llu FAILS: rejection without a message\n",
                            static_cast<unsigned long long>(iter_seed));
                return 1;
            }
        }

        // The same mutant as a serve request: must yield a parse verdict
        // (never a crash), and every rejection must carry a message.
        report::Json request = report::Json::object();
        request.set("op", "run");
        request.set("spec", text);
        serve::Request parsed;
        error.clear();
        if (!serve::parse_request(request.dump_compact(), 4 << 20, &parsed, &error) &&
            error.empty()) {
            std::printf("seed %llu FAILS: serve rejection without a message\n",
                        static_cast<unsigned long long>(iter_seed));
            return 1;
        }
    }
    std::printf("parse-fuzz: %llu iterations clean (%llu accepted, %llu rejected)\n",
                static_cast<unsigned long long>(iters),
                static_cast<unsigned long long>(accepted),
                static_cast<unsigned long long>(rejected));
    return 0;
}

/// True iff the shrunk divergence also reproduces through a RecordedProgram
/// replay (same labels/ops/messages, digest-fold step semantics). When it
/// does, the trace is the better repro: it freezes the computation without
/// depending on the generator's hashing.
bool reproduces_via_trace(const check::ProgramSpec& spec, const std::string& tag,
                          model::Trace* out) {
    check::GeneratedProgram program(spec);
    model::Trace trace = model::record(program);
    model::RecordedProgram replay(trace);
    const check::DiffReport report = check::check_program(replay);
    if (!report.has_tag(tag)) return false;
    *out = std::move(trace);
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    if (dbsp::tools::handle_version_flag(argc, argv, kTool)) return 0;
    std::uint64_t seed = 1;
    std::uint64_t iters = 100;
    std::uint64_t max_v = 0;
    std::string out_dir = ".";
    std::string repro_path;
    bool do_shrink = true;
    bool parse_fuzz = false;

    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        const auto next = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (std::strcmp(arg, "--seed") == 0) {
            seed = tools::parse_u64(kTool, "--seed", next());
        } else if (std::strcmp(arg, "--iters") == 0) {
            iters = tools::parse_u64(kTool, "--iters", next());
        } else if (std::strcmp(arg, "--max-v") == 0) {
            max_v = tools::parse_u64(kTool, "--max-v", next());
        } else if (std::strcmp(arg, "--out") == 0) {
            out_dir = next();
        } else if (std::strcmp(arg, "--repro") == 0) {
            repro_path = next();
        } else if (std::strcmp(arg, "--no-shrink") == 0) {
            do_shrink = false;
        } else if (std::strcmp(arg, "--parse-fuzz") == 0) {
            parse_fuzz = true;
        } else {
            std::fprintf(stderr, "unknown argument: %s\n", arg);
            usage(argv[0]);
        }
    }
    if (!repro_path.empty()) return run_repro(repro_path);
    if (iters == 0) tools::bad_arg(kTool, "--iters", "0", "a positive count");
    if (parse_fuzz) return run_parse_fuzz(seed, iters);

    check::GenConfig config;
    if (max_v > 0) {
        std::vector<std::uint64_t> kept;
        for (std::uint64_t v : config.v_choices) {
            if (v <= max_v) kept.push_back(v);
        }
        if (kept.empty()) kept.push_back(1);
        config.v_choices = std::move(kept);
    }

    const std::uint64_t report_every = iters >= 10 ? iters / 10 : 1;
    for (std::uint64_t i = 0; i < iters; ++i) {
        const std::uint64_t spec_seed = seed + i;
        const check::ProgramSpec spec = check::generate_spec(config, spec_seed);
        check::DiffConfig diff;
        // The locality-mode axis re-runs both simulators four more times
        // each; checking it on every fourth program keeps long fuzz runs
        // affordable without losing coverage (which program gets the axis is
        // a pure function of the iteration, so failures stay reproducible).
        diff.check_locality = i % 4 == 0;
        const check::DiffReport report = check::check_spec(spec, diff);
        if (report.ok()) {
            if ((i + 1) % report_every == 0) {
                std::printf("[%llu/%llu] clean (last seed %llu, %s)\n",
                            static_cast<unsigned long long>(i + 1),
                            static_cast<unsigned long long>(iters),
                            static_cast<unsigned long long>(spec_seed),
                            spec.describe().c_str());
                std::fflush(stdout);
            }
            continue;
        }

        const std::string tag = report.failures.front().tag;
        std::printf("seed %llu FAILS (%s):\n%s",
                    static_cast<unsigned long long>(spec_seed), spec.describe().c_str(),
                    report.summary().c_str());

        check::ProgramSpec minimal = spec;
        if (do_shrink) {
            const check::ShrinkResult shrunk = check::shrink(spec, tag);
            minimal = shrunk.spec;
            std::printf("shrunk to %s (%llu candidates, %llu accepted)\n",
                        minimal.describe().c_str(),
                        static_cast<unsigned long long>(shrunk.attempts),
                        static_cast<unsigned long long>(shrunk.accepted));
        }

        std::string text;
        model::Trace trace;
        if (reproduces_via_trace(minimal, tag, &trace)) {
            text = check::serialize_trace(trace);
        } else {
            text = check::serialize_spec(minimal);
        }
        const std::string path = out_dir + "/repro_" + tag + "_" +
                                 std::to_string(spec_seed) + ".txt";
        std::error_code ec;
        std::filesystem::create_directories(out_dir, ec);  // best-effort
        std::ofstream out(path);
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
        } else {
            out << text;
            std::printf("wrote %s\n", path.c_str());
        }
        return 1;
    }
    std::printf("all %llu iterations clean (seeds %llu..%llu)\n",
                static_cast<unsigned long long>(iters),
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(seed + iters - 1));
    return 0;
}
