#include "core/self_simulator.hpp"

#include <algorithm>
#include <set>

#include "core/hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "hmm/machine.hpp"
#include "model/superstep_exec.hpp"
#include "report/metrics.hpp"
#include "util/bits.hpp"
#include "util/contracts.hpp"

namespace dbsp::core {

namespace {

using model::Addr;
using model::ClusterTree;
using model::ContextLayout;
using model::Message;
using model::ProcId;
using model::StepIndex;
using model::Word;

constexpr StepIndex kDummy = static_cast<StepIndex>(-1);

/// Sub-machine window: presents guest supersteps [s0, s1) — all with labels
/// >= log v' — restricted to the guest cluster [first, first + v_local) as a
/// standalone D-BSP(v_local, mu, g) program, relabeled by -log v'. A trailing
/// chain of dummy supersteps descends through the window's own label set down
/// to 0, which keeps the windowed program smooth (Def. 3) and guarantees the
/// Figure 1 machinery completes every sub-cluster.
class WindowProgram final : public model::Program {
public:
    WindowProgram(model::Program& base, ProcId first, std::uint64_t v_local,
                  unsigned label_shift, StepIndex s0, StepIndex s1)
        : base_(base), first_(first), v_local_(v_local) {
        DBSP_REQUIRE(is_pow2(v_local));
        DBSP_REQUIRE(s1 > s0);
        for (StepIndex s = s0; s < s1; ++s) {
            const unsigned l = base.label(s);
            DBSP_REQUIRE(l >= label_shift);
            map_.push_back(s);
            labels_.push_back(l - label_shift);
        }
        std::set<unsigned, std::greater<>> below;
        for (unsigned l : labels_) {
            if (l < labels_.back()) below.insert(l);
        }
        for (unsigned l : below) {
            map_.push_back(kDummy);
            labels_.push_back(l);
        }
        if (labels_.back() != 0) {
            map_.push_back(kDummy);
            labels_.push_back(0);
        }
    }

    std::string name() const override { return base_.name() + "/window"; }
    std::uint64_t num_processors() const override { return v_local_; }
    std::size_t data_words() const override { return base_.data_words(); }
    std::size_t max_messages() const override { return base_.max_messages(); }
    StepIndex num_supersteps() const override { return labels_.size(); }
    unsigned label(StepIndex s) const override { return labels_[s]; }
    ProcId proc_id_base() const override { return first_; }

    void init(ProcId p, std::span<Word> data) const override {
        base_.init(first_ + p, data);
    }

    void step(StepIndex s, ProcId p, model::StepContext& ctx) override {
        if (map_[s] == kDummy) return;
        base_.step(map_[s], first_ + p, ctx);
    }

    bool is_dummy_step(StepIndex s) const override {
        return map_[s] == kDummy || base_.is_dummy_step(map_[s]);
    }

private:
    model::Program& base_;
    ProcId first_;
    std::uint64_t v_local_;
    std::vector<StepIndex> map_;
    std::vector<unsigned> labels_;
};

}  // namespace

std::vector<Word> SelfSimResult::data_of(ProcId p) const {
    DBSP_REQUIRE(p < contexts.size());
    const auto& ctx = contexts[p];
    return std::vector<Word>(ctx.begin(),
                             ctx.begin() + static_cast<std::ptrdiff_t>(data_words));
}

SelfSimResult SelfSimulator::simulate(model::Program& program) const {
    const std::uint64_t v = program.num_processors();
    DBSP_REQUIRE(is_pow2(v_prime_));
    DBSP_REQUIRE(v_prime_ <= v);
    const unsigned log_vp = ilog2(v_prime_);
    const std::uint64_t w = v / v_prime_;  // guest processors per host processor
    const ClusterTree tree(v);
    const ContextLayout layout = program.layout();
    const std::size_t mu = layout.context_words();
    const StepIndex steps = program.num_supersteps();
    DBSP_REQUIRE(steps > 0);
    DBSP_REQUIRE(program.label(steps - 1) == 0);

    SelfSimResult result;
    result.data_words = program.data_words();
    static auto& metric_runs = report::metric_counter("sim.self.runs");
    metric_runs.add();
    result.contexts = model::DbspMachine::initial_contexts(program);
    auto& contexts = result.contexts;

    const HmmSimulator local_sim(g_);
    trace::Sink* const sink = trace_;
    std::vector<Word> scan;  // reused out-buffer staging
    model::TouchLog touches;
    touches.reserve(2 * mu);

    StepIndex s = 0;
    while (s < steps) {
        if (program.label(s) >= log_vp && log_vp < tree.log_processors() + 1) {
            // --- local run: maximal stretch of labels >= log v' -------------
            StepIndex s_end = s;
            while (s_end < steps && program.label(s_end) >= log_vp) ++s_end;
            ++result.local_runs;
            trace::PhaseScope run_scope(sink, trace::Phase::kLocalRun, log_vp);
            double local_max = 0.0;
            // Each host processor simulates its window with the Section 3
            // strategy; the window is L-smoothed first (Theorem 4's
            // correctness argument needs Definition 3, window or not).
            const auto local_labels =
                hmm_label_set(g_, layout.context_words(), w);
            for (std::uint64_t j = 0; j < v_prime_; ++j) {
                const ProcId first = j * w;
                WindowProgram window(program, first, w, log_vp, s, s_end);
                auto smoothed = smooth(window, local_labels);
                std::vector<std::vector<Word>> initial(
                    contexts.begin() + static_cast<std::ptrdiff_t>(first),
                    contexts.begin() + static_cast<std::ptrdiff_t>(first + w));
                HmmSimResult res = local_sim.simulate_with(*smoothed, initial);
                for (std::uint64_t k = 0; k < w; ++k) {
                    contexts[first + k] = std::move(res.contexts[k]);
                }
                local_max = std::max(local_max, res.hmm_cost);
            }
            const double t = local_max + 1.0;
            result.host_time += t;
            if (sink != nullptr) sink->charge(t);
            s = s_end;
            continue;
        }

        // --- global i-superstep (i < log v') --------------------------------
        ++result.global_supersteps;
        static auto& metric_supersteps = report::metric_counter("sim.self.global_supersteps");
        metric_supersteps.add();
        const unsigned label = program.label(s);
        trace::PhaseScope step_scope(sink, trace::Phase::kGlobalStep, label);
        double phase1_max = 0.0;
        std::vector<Message> pending;  // canonical (src, seq) order
        std::vector<std::size_t> sent_by_host(v_prime_, 0), recv_by_host(v_prime_, 0);

        for (std::uint64_t j = 0; j < v_prime_; ++j) {
            hmm::Machine mem(g_, w * mu);
            auto raw = mem.raw();
            for (std::uint64_t k = 0; k < w; ++k) {
                std::copy(contexts[j * w + k].begin(), contexts[j * w + k].end(),
                          raw.begin() + static_cast<std::ptrdiff_t>(k * mu));
            }
            for (std::uint64_t k = 0; k < w; ++k) {
                // Cycle each guest context through the top of the local HMM.
                if (k > 0) mem.swap_blocks(0, k * mu, mu);
                const auto out = model::run_processor_step(
                    program, layout, tree, s, j * w + k, mem.raw().subspan(0, mu), touches);
                // The step ran on the top block in place; charge its touches
                // there, in order. A read and a write charge the same f(x),
                // so a read prices either.
                for (const std::uint32_t i : touches) {
                    DBSP_REQUIRE(i < mu);
                    (void)mem.read(i);
                }
                mem.charge(static_cast<double>(out.ops));
                if (k > 0) mem.swap_blocks(0, k * mu, mu);
            }
            // Collect outgoing messages (charged scan of the out-buffers).
            for (std::uint64_t k = 0; k < w; ++k) {
                const Addr base = k * mu;
                const auto cnt = static_cast<std::size_t>(
                    mem.read(base + layout.out_count_offset()));
                scan.resize(3 * cnt);
                mem.read_range(base + layout.out_record_offset(0), scan);
                for (std::size_t q = 0; q < cnt; ++q) {
                    const Message msg{j * w + k, scan[3 * q], scan[3 * q + 1],
                                      scan[3 * q + 2]};
                    DBSP_ASSERT(tree.same_cluster(msg.src, msg.dest, label));
                    pending.push_back(msg);
                }
                if (cnt > 0) mem.write(base + layout.out_count_offset(), 0);
                sent_by_host[j] += cnt;
            }
            phase1_max = std::max(phase1_max, mem.cost());
            raw = mem.raw();
            for (std::uint64_t k = 0; k < w; ++k) {
                contexts[j * w + k].assign(
                    raw.begin() + static_cast<std::ptrdiff_t>(k * mu),
                    raw.begin() + static_cast<std::ptrdiff_t>((k + 1) * mu));
            }
        }

        // Delivery: each host processor files the messages received by its
        // guest processors into their incoming buffers (the log v'-superstep).
        if (sink != nullptr) sink->messages(pending.size());
        double phase2_max = 0.0;
        {
            trace::PhaseScope deliver_scope(sink, trace::Phase::kDeliver, log_vp);
            for (std::uint64_t j = 0; j < v_prime_; ++j) {
                hmm::Machine mem(g_, w * mu);
                auto raw = mem.raw();
                for (std::uint64_t k = 0; k < w; ++k) {
                    std::copy(contexts[j * w + k].begin(), contexts[j * w + k].end(),
                              raw.begin() + static_cast<std::ptrdiff_t>(k * mu));
                }
                for (const Message& msg : pending) {
                    if (msg.dest / w != j) continue;
                    const Addr base = (msg.dest - j * w) * mu;
                    const auto cnt = static_cast<std::size_t>(
                        mem.read(base + layout.in_count_offset()));
                    DBSP_REQUIRE(cnt < layout.max_messages);
                    const Addr off = base + layout.in_record_offset(cnt);
                    const Word rec[3] = {msg.src, msg.payload0, msg.payload1};
                    mem.write_range(off, rec);
                    mem.write(base + layout.in_count_offset(), cnt + 1);
                    ++recv_by_host[j];
                }
                phase2_max = std::max(phase2_max, mem.cost());
                raw = mem.raw();
                for (std::uint64_t k = 0; k < w; ++k) {
                    contexts[j * w + k].assign(
                        raw.begin() + static_cast<std::ptrdiff_t>(k * mu),
                        raw.begin() + static_cast<std::ptrdiff_t>((k + 1) * mu));
                }
            }
        }

        std::size_t h_host = 0;
        for (std::uint64_t j = 0; j < v_prime_; ++j) {
            h_host = std::max({h_host, sent_by_host[j], recv_by_host[j]});
        }
        const double comm =
            static_cast<double>(h_host) *
            (g_.at(static_cast<double>(mu) * static_cast<double>(tree.cluster_size(label))) +
             g_.at(static_cast<double>(mu) * static_cast<double>(w)));
        const double t = phase1_max + phase2_max + comm + 1.0;
        result.host_time += t;
        if (sink != nullptr) sink->charge(t);
        ++s;
    }

    return result;
}

}  // namespace dbsp::core
