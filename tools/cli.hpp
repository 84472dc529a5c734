#pragma once

/// \file cli.hpp
/// The command-line helpers every tool shares, so that all of them answer
/// `--version` and reject a malformed flag value the same way:
///  * handle_version_flag: print the configure-time git SHA and build type
///    from the report::provenance envelope (the same identity stamped onto
///    every JSON artifact). Handled before any other flag parsing so
///    `dbsp_x --version` never requires the tool's mandatory arguments.
///  * bad_arg / parse_u64 / parse_f64: a bad value prints
///    `<tool>: invalid <flag> "<value>" (expected ...)` and exits 2.

#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <system_error>

#include "report/provenance.hpp"
#include "util/parse.hpp"

namespace dbsp::tools {

/// Suite release the tools ship with; bumped on each feature PR. The git
/// SHA remains the precise identity — this is the human-facing marker
/// (1.1.0: hardware-counter layer + cache-model predictor + E15).
inline constexpr const char* kSuiteVersion = "1.1.0";

/// True when argv contains --version, in which case the version line has
/// already been printed to stdout. Callers `return 0` on true.
inline bool handle_version_flag(int argc, char** argv, const char* tool) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--version") == 0) {
            const report::Provenance p = report::Provenance::collect();
            std::printf("%s v%s %s (%s, %s)\n", tool, kSuiteVersion,
                        p.git_sha.c_str(), p.build_type.c_str(),
                        p.compiler.c_str());
            return true;
        }
    }
    return false;
}

/// Reject \p value of \p flag: print the diagnostic to stderr and exit 2.
[[noreturn]] inline void bad_arg(const char* tool, const char* flag, const char* value,
                                 const char* expected) {
    std::fprintf(stderr, "%s: invalid %s \"%s\" (expected %s)\n", tool, flag, value,
                 expected);
    std::exit(2);
}

/// Strict base-10 unsigned parse: the whole string must be digits. A sign, a
/// space, trailing text, an empty string or a value above 2^64 - 1 goes to
/// bad_arg.
inline std::uint64_t parse_u64(const char* tool, const char* flag, const char* value) {
    std::uint64_t n = 0;
    const char* end = value + std::strlen(value);
    const auto [ptr, ec] = std::from_chars(value, end, n, 10);
    if (ec != std::errc{} || ptr != end || value == end) {
        bad_arg(tool, flag, value, "an unsigned integer");
    }
    return n;
}

/// Strict decimal floating-point parse: whatever util::parse_decimal refuses
/// (a space, a '+', trailing text, an empty string, a hex form, a value out
/// of range, NaN or an infinity) goes to bad_arg. Callers check their own
/// range after it, as with parse_u64.
inline double parse_f64(const char* tool, const char* flag, const char* value) {
    const std::optional<double> x = util::parse_decimal(value);
    if (!x) bad_arg(tool, flag, value, "a finite decimal number");
    return *x;
}

}  // namespace dbsp::tools
