#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "report/metrics.hpp"

namespace bench {

double quantile(std::vector<double> xs, double q) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(xs.size())));
    return xs[std::min(rank == 0 ? 0 : rank - 1, xs.size() - 1)];
}

double HostProbe::run() {
    const Clock::time_point t0 = Clock::now();
    std::uint64_t lanes[8] = {1, 2, 3, 4, 5, 6, 7, sink_};
    for (int i = 0; i < 250000; ++i) {
        for (std::uint64_t& x : lanes) {
            x += 0x9e3779b97f4a7c15ull;
            x ^= x >> 29;
            x *= 0xbf58476d1ce4e5b9ull;
        }
    }
    for (const std::uint64_t x : lanes) sink_ += x;
    return ms_between(t0, Clock::now());
}

double RelativeTimer::end(double job_ms) {
    const double after = probe_.run();
    probe_ms_.push_back(after);
    const double ratio = job_ms / (0.5 * (before_ + after));
    before_ = after;
    return ratio;
}

namespace {
cpu_set_t g_allowed;  ///< the affinity before pin_to_one_cpu()
int g_pinned = -1;

int set_cpu(int cpu) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}
}  // namespace

int pin_to_one_cpu() {
    CPU_ZERO(&g_allowed);
    if (::sched_getaffinity(0, sizeof(g_allowed), &g_allowed) != 0) return -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &g_allowed)) g_pinned = c;
    }
    return g_pinned < 0 ? -1 : set_cpu(g_pinned);
}

int move_to_other_cpu() {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (c != g_pinned && CPU_ISSET(c, &g_allowed)) return set_cpu(c);
    }
    return -1;
}

report::Json json_array(const std::vector<double>& xs) {
    report::Json a = report::Json::array();
    for (const double x : xs) a.push_back(x);
    return a;
}

double peak_rss_mb(int pid) {
    const std::string path =
        pid > 0 ? "/proc/" + std::to_string(pid) + "/status" : "/proc/self/status";
    std::ifstream in(path);
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
}

std::string hex_double(double x) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", x);
    return buf;
}

std::string fnv_hex(const std::string& bytes) {
    std::uint64_t h = 14695981039346656037ull;
    for (const unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

void RunResult::fail(const std::string& why) {
    ++failed;
    std::fprintf(stderr, "dbsp_bench: FAIL %s\n", why.c_str());
}

void emit_end_to_end(const EndToEnd& e, RunResult* out) {
    out->metrics = {
        {"setup_s", e.setup_s, "s"},
        {"job_rel_p50", e.job_rel_p50, "probe-runs"},
        {"job_rel_p90", e.job_rel_p90, "probe-runs"},
        {"peak_rss_mb", e.peak_rss_mb, "MiB"},
    };
}

void emit_layers(const Layers& l, RunResult* out) {
    out->metrics = {
        {"trace.job_ms_p50", l.job_ms_p50, "ms"},
        {"algos.build_ms", l.build_ms, "ms"},
        {"core.smooth_ms", l.smooth_ms, "ms"},
        {"core.simulate_ms", l.simulate_ms, "ms"},
        {"phase.step-exec.self_ms", l.step_exec_ms, "ms"},
        {"phase.context-move.self_ms", l.context_move_ms, "ms"},
        {"phase.deliver.self_ms", l.deliver_ms, "ms"},
        {"phase.dummy-superstep.share", l.dummy_share, "ratio"},
        {"phase.outside.self_ms", l.outside_ms, "ms"},
        {"trace.overhead_pct", l.overhead_pct, "%"},
        {"trace.unaccounted_pct", l.unaccounted_pct, "%"},
        {"locality.overhead_pct", l.locality_overhead_pct, "%"},
        {"locality.fold_pct", l.locality_fold_pct, "%"},
        {"locality.refs", l.locality_refs, "count"},
        {"locality.sampled_refs", l.locality_sampled_refs, "count"},
        {"locality.sampled_fraction", l.locality_sampled_fraction, "ratio"},
        {"serve.parse_share", l.serve_parse_share, "ratio"},
        {"serve.cache_probe_share", l.serve_probe_share, "ratio"},
        {"serve.run_share", l.serve_run_share, "ratio"},
        {"serve.reply_write_share", l.serve_reply_share, "ratio"},
        {"serve.transport_share", l.serve_transport_share, "ratio"},
        {"serve.cache_hit_ratio", l.serve_cache_hit_ratio, "ratio"},
        {"serve.daemon_threads_end", l.serve_threads_end, "count"},
        {"serve.daemon_fds_end", l.serve_fds_end, "count"},
        {"hmm.words_touched", l.words_touched, "words"},
        {"core.rounds", l.rounds, "count"},
        {"bt.block_transfers", l.block_transfers, "count"},
        {"bt.sort_invocations", l.sort_invocations, "count"},
        {"bt.transfer_volume", l.transfer_volume, "model-time"},
        {"model.cost_table_builds", l.cost_table_builds, "count"},
        {"model.cost_table_builds_avoided", l.cost_table_builds_avoided, "count"},
        {"registry.hmm.bulk_ops", l.reg_hmm_bulk_ops, "count"},
        {"registry.hmm.bulk_words", l.reg_hmm_bulk_words, "words"},
        {"registry.bt.range_ops", l.reg_bt_range_ops, "count"},
        {"registry.bt.range_words", l.reg_bt_range_words, "words"},
        {"registry.bt.transfer_words", l.reg_bt_transfer_words, "words"},
        {"registry.model.messages_delivered", l.reg_messages_delivered, "count"},
    };
}

RegistryCounts RegistryCounts::read() {
    RegistryCounts c;
    for (const report::MetricValue& m : report::Registry::global().snapshot()) {
        const auto v = static_cast<double>(m.count);
        if (m.name == "hmm.bulk_ops") c.hmm_bulk_ops = v;
        if (m.name == "hmm.bulk_words") c.hmm_bulk_words = v;
        if (m.name == "bt.range_ops") c.bt_range_ops = v;
        if (m.name == "bt.range_words") c.bt_range_words = v;
        if (m.name == "bt.transfer_words") c.bt_transfer_words = v;
        if (m.name == "model.messages_delivered") c.messages_delivered = v;
    }
    return c;
}

void RegistryCounts::delta_into(const RegistryCounts& earlier, Layers* l) const {
    l->reg_hmm_bulk_ops = hmm_bulk_ops - earlier.hmm_bulk_ops;
    l->reg_hmm_bulk_words = hmm_bulk_words - earlier.hmm_bulk_words;
    l->reg_bt_range_ops = bt_range_ops - earlier.bt_range_ops;
    l->reg_bt_range_words = bt_range_words - earlier.bt_range_words;
    l->reg_bt_transfer_words = bt_transfer_words - earlier.bt_transfer_words;
    l->reg_messages_delivered = messages_delivered - earlier.messages_delivered;
}

bool save_spans(const RunConfig& cfg, const report::Json& doc) {
    std::error_code ec;
    std::filesystem::create_directories(cfg.out_dir, ec);
    const std::string path = cfg.out_dir + "/" + cfg.workload + ".spans.json";
    std::string error;
    if (!doc.save_file(path, &error)) {
        std::fprintf(stderr, "dbsp_bench: cannot write %s: %s\n", path.c_str(),
                     error.c_str());
        return false;
    }
    std::fprintf(stderr, "dbsp_bench: wrote %s\n", path.c_str());
    return true;
}

}  // namespace bench
