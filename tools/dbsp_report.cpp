/// dbsp_report — experiment conformance reporter and regression gate.
///
/// Ingests the per-experiment JSON artifacts written by the bench_eNN
/// binaries (`bench_e1_hmm_touching --json e1.json`), or runs the binaries
/// itself (--run <bindir>), and merges them — plus an optional
/// BENCH_micro.json — into the combined BENCH_experiments.json artifact and
/// a Markdown conformance dashboard. With --check it compares the fresh
/// report against a committed baseline under per-metric tolerances and exits
/// non-zero on any regression, which is what CI runs.
///
/// Usage:
///   dbsp_report [options] [experiment.json ...]
///     --run DIR          run every bench_e<N>_* executable in DIR, in
///                        ascending N, and ingest its artifact
///     --micro FILE       ingest a BENCH_micro.json perf artifact
///     --in FILE          load an existing combined report as the current one
///                        (exclusive with positional files, --run, --micro)
///     --out FILE         write the combined report JSON
///     --md FILE          write the Markdown conformance dashboard
///     --check            run the regression gate (requires --baseline)
///     --baseline FILE    committed combined report to gate / diff against
///     --subset-ok        gate: tolerate experiments/checks missing vs baseline
///
/// The gate's tolerances are the report::kGate* constants (conformance.hpp).
///
/// --run writes the artifacts into a fresh directory under the temp
/// directory (TMPDIR) and removes it before exiting; a binary that writes no
/// artifact is an error. A positional artifact replaces the run's artifact
/// with the same experiment id.
///
/// Exit status: 0 all checks pass and the gate is clean; 1 a conformance
/// check fails or the gate trips; 2 usage error or unreadable/unwritable
/// artifact.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "report/conformance.hpp"
#include "report/experiment.hpp"
#include "report/json.hpp"
#include "report/provenance.hpp"
#include "cli.hpp"

namespace {

using namespace dbsp;

[[noreturn]] void usage(const char* self) {
    std::fprintf(stderr,
                 "usage: %s [options] [experiment.json ...]\n"
                 "  --run DIR | --micro FILE | --in FILE | --out FILE | --md FILE\n"
                 "  --check --baseline FILE [--subset-ok]\n",
                 self);
    std::exit(2);
}

/// Numeric sort key for experiment ids "e1".."e13"; unknown ids sort last,
/// alphabetically, so foreign artifacts still land deterministically.
std::pair<int, std::string> id_key(const std::string& id) {
    if (id.size() > 1 && id[0] == 'e') {
        char* end = nullptr;
        const long n = std::strtol(id.c_str() + 1, &end, 10);
        if (end != nullptr && *end == '\0') return {static_cast<int>(n), id};
    }
    return {1 << 20, id};
}

/// A fresh directory under the temp directory (TMPDIR), made on demand and
/// removed with everything in it when the owner goes out of scope, so a run
/// leaves no files behind and concurrent runs never share an artifact.
class ScratchDir {
public:
    ScratchDir() = default;
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;
    ~ScratchDir() {
        std::error_code ec;
        if (!path_.empty()) std::filesystem::remove_all(path_, ec);
    }

    bool create() {
        std::error_code ec;
        const auto tmp = std::filesystem::temp_directory_path(ec);
        if (ec) return false;
        std::string name = (tmp / "dbsp_report_XXXXXX").string();
        if (mkdtemp(name.data()) == nullptr) return false;
        path_ = name;
        return true;
    }
    const std::filesystem::path& path() const { return path_; }

private:
    std::filesystem::path path_;
};

/// The experiment binaries --run runs: every regular executable in \p dir
/// named bench_e<N>_*, in ascending N (bench_micro does not match); nullopt
/// when \p dir cannot be read.
std::optional<std::vector<std::filesystem::path>> experiment_binaries(
    const std::string& dir) {
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::directory_iterator it(dir, ec);
    if (ec) return std::nullopt;
    std::vector<std::pair<int, fs::path>> found;
    for (const fs::directory_entry& entry : it) {
        char digits[10];
        char sep = 0;
        const std::string name = entry.path().filename().string();
        if (std::sscanf(name.c_str(), "bench_e%9[0-9]%c", digits, &sep) != 2 || sep != '_') {
            continue;
        }
        const fs::file_status status = entry.status(ec);
        if (fs::is_regular_file(status) &&
            (status.permissions() & fs::perms::owner_exec) != fs::perms::none) {
            found.emplace_back(std::atoi(digits), entry.path());
        }
    }
    std::sort(found.begin(), found.end());
    std::vector<fs::path> binaries;
    for (auto& [n, path] : found) binaries.push_back(std::move(path));
    return binaries;
}

std::optional<report::ExperimentResult> load_experiment(const std::string& path) {
    std::string error;
    const auto doc = report::Json::load_file(path, &error);
    if (!doc) {
        std::fprintf(stderr, "dbsp_report: %s: %s\n", path.c_str(), error.c_str());
        return std::nullopt;
    }
    auto result = report::ExperimentResult::from_json(*doc, &error);
    if (!result) {
        std::fprintf(stderr, "dbsp_report: %s: %s\n", path.c_str(), error.c_str());
    }
    return result;
}

}  // namespace

int main(int argc, char** argv) {
    if (dbsp::tools::handle_version_flag(argc, argv, "dbsp_report")) return 0;
    std::vector<std::string> inputs;
    std::string run_dir, micro_path, in_path, out_path, md_path, baseline_path;
    bool check = false;
    report::GateOptions gate;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--run") {
            run_dir = next();
        } else if (arg == "--micro") {
            micro_path = next();
        } else if (arg == "--in") {
            in_path = next();
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--md") {
            md_path = next();
        } else if (arg == "--check") {
            check = true;
        } else if (arg == "--baseline") {
            baseline_path = next();
        } else if (arg == "--subset-ok") {
            gate.subset_ok = true;
        } else if (!arg.empty() && arg[0] == '-') {
            std::fprintf(stderr, "dbsp_report: unknown flag \"%s\"\n", arg.c_str());
            usage(argv[0]);
        } else {
            inputs.push_back(arg);
        }
    }
    if (check && baseline_path.empty()) {
        std::fprintf(stderr, "dbsp_report: --check requires --baseline FILE\n");
        usage(argv[0]);
    }
    if (!in_path.empty() && (!inputs.empty() || !run_dir.empty() || !micro_path.empty())) {
        std::fprintf(stderr,
                     "dbsp_report: --in is exclusive with positional files, --run, --micro\n");
        usage(argv[0]);
    }
    if (in_path.empty() && inputs.empty() && run_dir.empty() && micro_path.empty()) {
        std::fprintf(stderr, "dbsp_report: nothing to report on\n");
        usage(argv[0]);
    }

    report::CombinedReport current;
    current.provenance = report::Provenance::collect();
    std::string error;

    if (!in_path.empty()) {
        const auto doc = report::Json::load_file(in_path, &error);
        if (!doc) {
            std::fprintf(stderr, "dbsp_report: %s: %s\n", in_path.c_str(), error.c_str());
            return 2;
        }
        auto loaded = report::CombinedReport::from_json(*doc, &error);
        if (!loaded) {
            std::fprintf(stderr, "dbsp_report: %s: %s\n", in_path.c_str(), error.c_str());
            return 2;
        }
        current = std::move(*loaded);
    } else {
        // Ingest the run's artifacts first: a later artifact with the same id
        // replaces an earlier one, so a positional artifact overrides the run.
        ScratchDir artifact_dir;  // removed once the artifacts are ingested
        std::vector<std::string> run_artifacts;
        if (!run_dir.empty()) {
            if (!artifact_dir.create()) {
                std::fprintf(stderr,
                             "dbsp_report: cannot create an artifact directory in the "
                             "temp directory\n");
                return 2;
            }
            const auto binaries = experiment_binaries(run_dir);
            if (!binaries) {
                std::fprintf(stderr, "dbsp_report: cannot read --run directory \"%s\"\n",
                             run_dir.c_str());
                return 2;
            }
            for (const std::filesystem::path& binary : *binaries) {
                const std::string name = binary.filename().string();
                const auto artifact = artifact_dir.path() / (name + ".json");
                const std::string cmd = "\"" + binary.string() + "\" --json \"" +
                                        artifact.string() + "\" > /dev/null";
                std::printf("running %s ...\n", name.c_str());
                std::fflush(stdout);
                // A conformance failure (exit 1) still writes the artifact —
                // the failed verdicts belong in the report. Only a missing /
                // unparsable artifact is fatal here.
                (void)std::system(cmd.c_str());
                std::error_code ec;
                if (!std::filesystem::exists(artifact, ec)) {
                    std::fprintf(stderr, "dbsp_report: %s wrote no artifact\n", name.c_str());
                    return 2;
                }
                run_artifacts.push_back(artifact.string());
            }
        }
        inputs.insert(inputs.begin(), run_artifacts.begin(), run_artifacts.end());
        for (const std::string& path : inputs) {
            auto result = load_experiment(path);
            if (!result) return 2;
            const auto dup = std::find_if(
                current.experiments.begin(), current.experiments.end(),
                [&](const report::ExperimentResult& e) { return e.id == result->id; });
            if (dup != current.experiments.end()) *dup = std::move(*result);
            else current.experiments.push_back(std::move(*result));
        }
        std::stable_sort(current.experiments.begin(), current.experiments.end(),
                         [](const report::ExperimentResult& a,
                            const report::ExperimentResult& b) {
                             return id_key(a.id) < id_key(b.id);
                         });
        if (!micro_path.empty()) {
            const auto doc = report::Json::load_file(micro_path, &error);
            if (!doc) {
                std::fprintf(stderr, "dbsp_report: %s: %s\n", micro_path.c_str(),
                             error.c_str());
                return 2;
            }
            auto micro = report::MicroData::from_json(*doc, &error);
            if (!micro) {
                std::fprintf(stderr, "dbsp_report: %s: %s\n", micro_path.c_str(),
                             error.c_str());
                return 2;
            }
            current.micro = std::move(micro);
        }
    }

    std::optional<report::CombinedReport> baseline;
    if (!baseline_path.empty()) {
        const auto doc = report::Json::load_file(baseline_path, &error);
        if (!doc) {
            std::fprintf(stderr, "dbsp_report: %s: %s\n", baseline_path.c_str(),
                         error.c_str());
            return 2;
        }
        baseline = report::CombinedReport::from_json(*doc, &error);
        if (!baseline) {
            std::fprintf(stderr, "dbsp_report: %s: %s\n", baseline_path.c_str(),
                         error.c_str());
            return 2;
        }
    }

    // Console summary.
    int checks_total = 0, checks_passed = 0, checks_waived = 0;
    for (const auto& e : current.experiments) {
        int passed = 0;
        for (const auto& c : e.checks) {
            if (c.waived) {
                ++checks_waived;
            } else if (c.pass) {
                ++passed;
            }
        }
        checks_total += static_cast<int>(e.checks.size());
        checks_passed += passed;
        std::printf("%-4s %-55s %2d/%2zu %s\n", e.id.c_str(), e.title.c_str(), passed,
                    e.checks.size(), e.pass() ? "PASS" : "FAIL");
    }
    if (current.micro) {
        std::printf("micro: %.0f words/s untraced, costs bit-identical: %s\n",
                    current.micro->bulk_words_per_sec,
                    current.micro->costs_bit_identical ? "yes" : "NO");
    }
    std::printf("experiments: %zu   checks: %d/%d pass, %d waived, %d fail\n",
                current.experiments.size(), checks_passed, checks_total, checks_waived,
                checks_total - checks_passed - checks_waived);

    if (!out_path.empty()) {
        if (!current.to_json().save_file(out_path, &error)) {
            std::fprintf(stderr, "dbsp_report: cannot write %s: %s\n", out_path.c_str(),
                         error.c_str());
            return 2;
        }
        std::printf("wrote %s\n", out_path.c_str());
    }
    if (!md_path.empty()) {
        const std::string md = current.markdown(baseline ? &*baseline : nullptr);
        std::FILE* f = std::fopen(md_path.c_str(), "wb");
        if (f == nullptr || std::fwrite(md.data(), 1, md.size(), f) != md.size()) {
            if (f != nullptr) std::fclose(f);
            std::fprintf(stderr, "dbsp_report: cannot write %s\n", md_path.c_str());
            return 2;
        }
        std::fclose(f);
        std::printf("wrote %s\n", md_path.c_str());
    }

    bool gate_ok = true;
    if (check) {
        const auto violations = report::gate_violations(current, *baseline, gate);
        if (violations.empty()) {
            std::printf("gate: PASS (vs %s)\n", baseline_path.c_str());
        } else {
            gate_ok = false;
            std::printf("gate: FAIL (vs %s), %zu violation%s\n", baseline_path.c_str(),
                        violations.size(), violations.size() == 1 ? "" : "s");
            for (const auto& v : violations) std::printf("  - %s\n", v.c_str());
        }
    }

    const bool conformance_ok = current.pass();
    if (!conformance_ok) std::printf("conformance: FAIL\n");
    return (conformance_ok && gate_ok) ? 0 : 1;
}
