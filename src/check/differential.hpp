#pragma once

/// \file differential.hpp
/// The differential oracle: run one D-BSP program through every executor and
/// mode combination and cross-check the results.
///
/// Executors covered: direct DbspMachine, HmmSimulator (Figure-1 scheduling,
/// on a hmm_label_set-smoothed relabeling), BtSimulator (on a bt_label_set
/// smoothing), NaiveHmmSimulator, NaiveBtSimulator, and SelfSimulator at up
/// to three host sizes v' | v. Mode axes crossed on each: bulk vs per-word
/// accessors (ScopedBulkAccess), cached vs uncached cost tables
/// (ScopedCostTableCache), traced vs untraced (trace::Sink attached).
///
/// Checks, in decreasing order of strength:
///  * functional: every executor ends with the identical observable memory
///    image — data words, unread inbox (count + records in canonical
///    delivery order), and drained out-buffer count;
///  * cost determinism: within one executor, charged cost is bit-identical
///    across every bulk/cache/trace combination;
///  * trace counts: what an attached sink attributed equals the executor's
///    own integer counters — words touched (HMM), block transfers and
///    transfer words (BT), supersteps (direct) — and the attributed cost
///    matches the charged cost to 1e-9 relative;
///  * locality modes: the profiler's batched fast path reproduces the
///    per-word reference profiler (per_word_locality.hpp) bit for bit,
///    SHARDS sampling at rate 1.0
///    degenerates to the exact profile, and sub-rate sampling stays inside
///    a generous error band of the exact analytics;
///  * model invariants: per-superstep direct costs are >= 1 and fold exactly
///    to the total (monotone accumulation); smoothed relabelings satisfy
///    Definition 3 (is_smooth); BT component attribution
///    (compute + deliver + layout) accounts for the full bt_cost; recorded
///    traces replay with identical structure (labels, h per superstep);
///  * theorem bounds: simulator cost stays below a generously slacked
///    Theorem-5 (HMM) / Theorem-12 (BT) prediction — a gross-regression
///    tripwire, not a tight constant check, and only applied for v >= 8
///    where the asymptotic terms dominate fixed overheads (the BT staging
///    pad swamps everything on tiny machines).
///
/// check_program is deterministic and side-effect-free on the program (the
/// program's step() must be pure, which the executors require anyway).

#include <string>
#include <vector>

#include "model/access_function.hpp"
#include "model/program.hpp"

namespace dbsp::check {

/// One observed discrepancy. `tag` is a stable machine-readable identifier of
/// the check that fired (e.g. "hmm-image", "bt-cost-bulk"); the shrinker uses
/// it to keep reducing the *same* bug. `detail` is human-readable.
struct DiffFailure {
    std::string tag;
    std::string detail;
};

struct DiffReport {
    std::vector<DiffFailure> failures;

    bool ok() const { return failures.empty(); }
    /// True iff some failure carries \p tag.
    bool has_tag(const std::string& tag) const;
    /// Multi-line human-readable report ("" when ok()).
    std::string summary() const;
};

struct DiffConfig {
    /// Access functions to run the whole matrix under. Empty = the paper's
    /// case-study trio {x^0.35, x^0.5, log x}.
    std::vector<model::AccessFunction> functions;
    /// Cross-check the Section 4 self-simulation (v' in {1, mid, v}).
    bool check_self_sim = true;
    /// Check Theorem 5/12 slack bounds (v >= 8 only).
    bool check_bounds = true;
    /// Record the program and re-check the replay's structure.
    bool check_recorded = true;
    /// Cross-check the locality-profiler mode axes on the HMM and BT
    /// simulators: batched vs per-word profiles must be bit-identical,
    /// rate-1.0 sampling must degenerate to the exact profile, and a
    /// down-sampled profile must stay inside a wide sanity corridor of the
    /// exact one (broken rate correction, not sampling noise, trips it).
    bool check_locality = true;
};

/// Run the full differential matrix on \p program. The program must satisfy
/// the executor discipline (in-range labels ending at 0, sends within the
/// label-cluster, inbox occupancy <= B) — see spec_valid for generated specs.
DiffReport check_program(model::Program& program, const DiffConfig& config = {});

/// Observable memory image of one processor's final context: data words,
/// then in-count, the in_count live incoming records, and the out count.
/// Stale buffer words beyond the live counts are excluded — the executors
/// legitimately differ there (the BT rebuild zeroes what the direct machine
/// leaves stale). Exposed for tests.
std::vector<model::Word> functional_image(const std::vector<model::Word>& context,
                                          const model::ContextLayout& layout);

}  // namespace dbsp::check
