#pragma once

/// \file common.hpp
/// Shared vocabulary of dbsp_bench: the configuration of one
/// workload run, the result it returns, the fixed metric sets every
/// workload reports, and small timing/statistics helpers.
///
/// Every workload prints the same metric names (BENCHMARK.json declares one
/// list for all of them), so each workload fills the EndToEnd / Layers
/// structs below and emit_*() turns them into the named metrics in one
/// place. A layer a workload does not exercise reads 0; such layers only
/// ever carry ratio or count units, never a time.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "report/json.hpp"
#include "trace/sink.hpp"

namespace bench {

namespace report = dbsp::report;
namespace trace = dbsp::trace;

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) { return quantile(std::move(xs), 0.5); }

/// A fixed reference computation, timed next to every job to measure how
/// fast the host runs at that moment.
///
/// A virtual machine whose cores and caches other tenants share can change
/// speed by up to 2x over seconds to minutes (measured on a 4-vCPU x86-64
/// VM; see benchmark/README.md), and a job's CPU time changes with its wall
/// time. A job timed between two probe runs is reported as a multiple of
/// their mean time, which cancels most of that drift.
///
/// The probe advances eight independent multiply-xorshift chains, about
/// 1 ms of throughput-bound integer work. The host's slow stretches slow it
/// about as much as they slow the jobs; latency-bound probes (a dependent
/// multiply chain, a sort, a hash map, random reads) slowed much less. It
/// calls no repository code, so a change to the program never changes it.
class HostProbe {
public:
    /// Run the probe once; its wall time in ms.
    double run();

private:
    std::uint64_t sink_ = 0;
};

/// The probe time, in ms, of the reference host that setup_s is scaled to.
constexpr double kProbeRefMs = 1.0;

/// Relative job costs: each job's wall time over the mean of the probe runs
/// just before and just after it.
class RelativeTimer {
public:
    /// Start a stretch of jobs (first run, or after an interruption).
    void begin() { before_ = probe_.run(); }
    /// Close a job that took \p job_ms; probes again and returns the ratio.
    double end(double job_ms);

    /// Run \p work as a set-up that started at \p t0 (at or before this
    /// call), between two probe runs. Returns its wall time less the first
    /// probe run, scaled to the reference host: seconds x kProbeRefMs ÷ the
    /// probes' mean time. The unscaled seconds go to raw_setups_s().
    template <class Work>
    double setup_s(Clock::time_point t0, Work&& work) {
        const Clock::time_point p0 = Clock::now();
        begin();
        const Clock::time_point s0 = Clock::now();
        work();
        const double ms = ms_between(t0, p0) + ms_between(s0, Clock::now());
        raw_setups_s_.push_back(ms / 1e3);
        return end(ms) * kProbeRefMs / 1e3;
    }

    const std::vector<double>& probe_ms() const { return probe_ms_; }
    const std::vector<double>& raw_setups_s() const { return raw_setups_s_; }

private:
    HostProbe probe_;
    double before_ = 0.0;
    std::vector<double> probe_ms_;
    std::vector<double> raw_setups_s_;
};

/// Restrict this process, and every process it starts later, to the last
/// CPU it may run on, so jobs, probes and the serve daemon share one CPU.
/// Returns that CPU, or -1 when the affinity cannot be set.
int pin_to_one_cpu();

/// Move the calling process to a CPU that the process calling
/// pin_to_one_cpu() could use before, other than the one it was pinned to.
/// Returns that CPU, or -1 when there is none.
int move_to_other_cpu();

/// \p xs as a JSON array, in order.
report::Json json_array(const std::vector<double>& xs);

/// Peak resident set of process \p pid (0: this process) in MiB: VmHWM from
/// /proc/<pid>/status; 0 when unreadable. Unlike getrusage's ru_maxrss it
/// starts afresh at exec, so the launcher's memory does not leak into it.
double peak_rss_mb(int pid);

/// "%a" rendering of a double: exact, and strtod reads it back bit for bit.
std::string hex_double(double x);

/// FNV-1a over a string, as 16 hex digits.
std::string fnv_hex(const std::string& bytes);

/// The configuration of one workload run.
struct RunConfig {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string out_dir;    ///< traced runs write <out_dir>/<workload>.spans.json
    std::string serve_bin;  ///< dbsp_serve executable (serve-mix)
    Clock::time_point process_start;
};

/// End-to-end metrics, measured with tracing off.
struct EndToEnd {
    double setup_s = 0.0;      ///< median set-up, scaled to a kProbeRefMs probe
    double job_rel_p50 = 0.0;  ///< median job (sim) or batch (serve-mix) time in probe runs
    double job_rel_p90 = 0.0;  ///< its 90th percentile
    double peak_rss_mb = 0.0;  ///< this process (sim) or the daemon (serve-mix)
};

/// Per-layer metrics of a traced run. Times are medians over traced jobs.
struct Layers {
    double job_ms_p50 = 0.0;  ///< traced job wall time
    double build_ms = 0.0;    ///< program constructors
    double smooth_ms = 0.0;   ///< core::smooth (label set included)
    double simulate_ms = 0.0;
    double step_exec_ms = 0.0;     ///< self time per trace::Phase group
    double context_move_ms = 0.0;
    double deliver_ms = 0.0;       ///< deliver (HMM) + deliver-sort/-transpose (BT)
    /// Share of the traced job in dummy-superstep rounds: a share, not a
    /// time, because programs without smoothing dummies (bitonic) have none.
    double dummy_share = 0.0;
    double outside_ms = 0.0;       ///< simulate time outside any phase scope
    double overhead_pct = 0.0;     ///< traced / untraced median job time - 1
    double unaccounted_pct = 0.0;  ///< job time not covered by the layer medians

    double locality_overhead_pct = 0.0;  ///< job with profiler / without - 1
    double locality_fold_pct = 0.0;      ///< profile() + MRC fold share of the job
    double locality_refs = 0.0;
    double locality_sampled_refs = 0.0;
    double locality_sampled_fraction = 0.0;

    double serve_parse_share = 0.0;  ///< shares of client-observed latency
    double serve_probe_share = 0.0;
    double serve_run_share = 0.0;
    double serve_reply_share = 0.0;
    double serve_transport_share = 0.0;
    double serve_cache_hit_ratio = 0.0;
    double serve_threads_end = 0.0;
    double serve_fds_end = 0.0;

    /// Exact counts of one pass over the workload's distinct inputs.
    double words_touched = 0.0;
    double rounds = 0.0;
    double block_transfers = 0.0;
    double sort_invocations = 0.0;
    double transfer_volume = 0.0;
    double cost_table_builds = 0.0;
    double cost_table_builds_avoided = 0.0;
    double reg_hmm_bulk_ops = 0.0;
    double reg_hmm_bulk_words = 0.0;
    double reg_bt_range_ops = 0.0;
    double reg_bt_range_words = 0.0;
    double reg_bt_transfer_words = 0.0;
    double reg_messages_delivered = 0.0;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Metric> metrics;
    /// Exact values of this seed's inputs (hex doubles, counts), compared
    /// against the golden file for seed 1.
    report::Json exact = report::Json::object();
    /// Printed with the result, never compared.
    report::Json info = report::Json::object();

    /// Count one failed operation and say why on stderr.
    void fail(const std::string& why);
};

void emit_end_to_end(const EndToEnd& e, RunResult* out);
void emit_layers(const Layers& l, RunResult* out);

/// Registry counter values (report::metrics_to_json names) used for the
/// exact per-pass counts.
struct RegistryCounts {
    double hmm_bulk_ops = 0.0, hmm_bulk_words = 0.0, bt_range_ops = 0.0,
           bt_range_words = 0.0, bt_transfer_words = 0.0, messages_delivered = 0.0;
    static RegistryCounts read();
    /// this - earlier, into the matching Layers fields.
    void delta_into(const RegistryCounts& earlier, Layers* l) const;
};

bool is_sim_workload(const std::string& name);
RunResult run_sim_workload(const RunConfig& cfg);
RunResult run_serve_mix(const RunConfig& cfg);
/// The composition of a serve-mix batch, for provenance.
report::Json serve_mix_shape();

/// Write \p doc to <out_dir>/<workload>.spans.json, creating out_dir.
bool save_spans(const RunConfig& cfg, const report::Json& doc);

}  // namespace bench
