#pragma once

/// \file trace_io.hpp
/// Text serialization for fuzzer repro cases, in two line-oriented formats:
///
///  * "dbsp-spec v1" — a check::ProgramSpec. Replays through
///    GeneratedProgram, reproducing the full generated behaviour (inbox
///    digests, data-word mixing, payload salting), so the complete
///    differential matrix re-runs exactly as it did when the bug was found.
///  * "dbsp-trace v2" — a model::Trace. Replays through
///    model::RecordedProgram: same labels, ops, and message pattern, with
///    the digest-fold step semantics. Preferred for committed repros when
///    the divergence survives the trace replay, since it freezes the
///    *computation* independent of the generator's hashing choices.
///
/// Both formats are committed under tests/repros/ and re-checked by
/// fuzz_oracle_test.cpp; dbsp_fuzz emits them on failure. Parsers are strict
/// (any malformed or out-of-range field fails with a message, never aborts)
/// so a corrupted repro file degrades into a test failure, not a crash.

#include <memory>
#include <optional>
#include <string>

#include "check/program_gen.hpp"
#include "model/recorded_program.hpp"
#include "util/rng.hpp"

namespace dbsp::check {

std::string serialize_spec(const ProgramSpec& spec);
bool parse_spec(const std::string& text, ProgramSpec* out, std::string* error);

std::string serialize_trace(const model::Trace& trace);
bool parse_trace(const std::string& text, model::Trace* out, std::string* error);

/// A loaded repro case: exactly one of spec/trace is set.
struct Repro {
    std::optional<ProgramSpec> spec;
    std::optional<model::Trace> trace;

    /// Instantiate the replay program (GeneratedProgram or RecordedProgram).
    std::unique_ptr<model::Program> make_program() const;
};

/// Parse either format, sniffing the header line.
bool parse_repro(const std::string& text, Repro* out, std::string* error);

/// Read and parse a repro file; returns false with a message on I/O or
/// parse failure.
bool load_repro_file(const std::string& path, Repro* out, std::string* error);

/// One deterministic byte/line mutation of serialized text, for the parser
/// fuzzers (dbsp_fuzz --parse-fuzz and the pinned verdict digest in
/// fuzz_oracle_test.cpp). The menu is aimed at the parsers' soft spots:
/// framing (truncation, deleted chunks), the strict-header rules (duplicated
/// lines), and numeric fields (huge counts spliced over tokens).
void mutate(std::string* text, SplitMix64& rng);

}  // namespace dbsp::check
