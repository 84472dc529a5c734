#include "core/bt_simulator.hpp"

#include <algorithm>
#include <cmath>

#include "bt/primitives.hpp"
#include "bt/sort.hpp"
#include "bt/transpose.hpp"
#include "model/superstep_exec.hpp"
#include "report/metrics.hpp"
#include "util/bits.hpp"
#include "util/contracts.hpp"

namespace dbsp::core {

namespace {

using model::Addr;
using model::ClusterTree;
using model::ContextLayout;
using model::ProcId;
using model::StepIndex;
using model::Word;

/// Serialized element format (Section 5.2.1): constant-size records of
/// kRecWords words, ordered lexicographically by (key0, key1).
///   key0 = owning/destination processor
///   key1 = class and sub-ordering:
///     data words:  (0 << 60) | pair index
///     messages:    (1 << 60) | (prio << 41) | (src << 21) | seq
///       prio 0: message already in the inbox before delivery (seq = slot);
///       prio 1: newly sent message (ordered by sender, send sequence).
///   w0, w1, w2 = payload (two data words, or src/payload0/payload1).
constexpr std::uint64_t kRecWords = 5;
constexpr Word kClassShift = 60;
constexpr Word kPrioShift = 41;
constexpr Word kSrcShift = 21;

Word data_key1(std::uint64_t pair_index) { return pair_index; }
Word msg_key1(Word prio, Word src, Word seq) {
    return (Word{1} << kClassShift) | (prio << kPrioShift) | (src << kSrcShift) | seq;
}

constexpr std::int64_t kEmptySlot = -1;

/// A parsed processor context (executor bookkeeping; all words it carries
/// were charged when read from the machine). One instance serves a whole
/// cluster pass: its storage is sized once, so a parse allocates nothing
/// inside the pass's folding loop.
struct ParsedContext {
    ParsedContext(std::size_t d, std::size_t b) : data(d), outgoing(b), old_inbox(b) {}

    std::vector<Word> data;
    std::vector<model::Message> outgoing;        ///< dest/payloads; first n_out live
    std::vector<std::array<Word, 3>> old_inbox;  ///< src, p0, p1; first n_in live
    std::size_t n_out = 0;
    std::size_t n_in = 0;
};

/// The whole simulation state for one run.
class BtSim {
public:
    BtSim(const model::AccessFunction& f, model::Program& program,
          const BtSimulator::Options& options)
        : program_(program), options_(options), tree_(program.num_processors()),
          layout_(program.layout()), v_(program.num_processors()),
          mu_(layout_.context_words()), d_(layout_.data_words), b_(layout_.max_messages),
          dr_((d_ + 1) / 2), max_rec_per_proc_(dr_ + 2 * b_),
          pad_(compute_pad(f, v_, mu_)),
          total_slots_(2 * v_ + gap_slots(v_) + 2),
          machine_(f, pad_ + total_slots_ * mu_ + 64),
          proc_of_slot_(total_slots_, kEmptySlot), slot_of_proc_(v_), sigma_(v_, 0),
          phase_fanout_{options_.trace, options_.phases},
          phases_(phase_fanout_.target()) {
        machine_.set_trace(options_.trace);
        touches_.reserve(2 * mu_);
    }

    BtSimResult run();

private:
    // --- geometry -----------------------------------------------------------
    static Addr compute_pad(const model::AccessFunction& f, std::uint64_t v, std::size_t mu);

    Addr slot_addr(std::uint64_t slot) const { return pad_ + slot * mu_; }

    std::uint64_t rec_region_words(std::uint64_t csize) const {
        return csize * max_rec_per_proc_ * kRecWords;
    }
    /// Slots of gap needed for sorting a csize-cluster: records + scratch.
    std::uint64_t gap_slots(std::uint64_t csize) const {
        return (2 * rec_region_words(csize) + mu_ - 1) / mu_ + 1;
    }

    // --- slot bookkeeping ---------------------------------------------------
    void move_slot_run(std::uint64_t src, std::uint64_t dst, std::uint64_t n);
    void swap_slot_runs(std::uint64_t a, std::uint64_t b, std::uint64_t n,
                        std::uint64_t buf);
    void shift_slots_right(std::uint64_t begin, std::uint64_t count, std::uint64_t by);
    void shift_slots_left(std::uint64_t begin, std::uint64_t count, std::uint64_t by);

    // --- the paper's subroutines -------------------------------------------
    void unpack(unsigned i);
    void pack(unsigned i);
    void compute(StepIndex s, std::uint64_t n);
    void compute_walk(StepIndex s, std::uint64_t n);
    void deliver_sort(unsigned label, ProcId first, std::uint64_t csize);
    bool deliver_transpose(ProcId first, std::uint64_t csize, std::uint64_t grain);

    // --- streaming helpers --------------------------------------------------
    std::uint64_t stream_chunk(Addr deepest, std::uint64_t share,
                               std::uint64_t align) const;
    /// Parse one context from \p rd into \p ctx; returns the pass's running
    /// \p total with the context's reads folded in. The total goes in and
    /// out by value, so it stays in a register across the call.
    double parse_context(bt::StagedReader& rd, ParsedContext& ctx, double total) const;
    std::uint64_t serialize_cluster(ProcId first, std::uint64_t csize, Addr dst);
    void deserialize_cluster(ProcId first, std::uint64_t csize, Addr src,
                             std::uint64_t n_rec);

    void check_round_invariants(ProcId first, std::uint64_t csize, StepIndex s) const;

    model::Program& program_;
    BtSimulator::Options options_;
    ClusterTree tree_;
    ContextLayout layout_;
    std::uint64_t v_;
    std::size_t mu_, d_, b_, dr_, max_rec_per_proc_;
    Addr pad_;
    std::uint64_t total_slots_;
    bt::Machine machine_;
    std::vector<std::int64_t> proc_of_slot_;
    std::vector<std::uint64_t> slot_of_proc_;
    std::vector<StepIndex> sigma_;
    BtSimResult result_;
    std::uint64_t last_outgoing_ = 0;  ///< messages emitted by the last serialize

    /// COMPUTE state: the schedule is a net identity on memory, so the walk
    /// only charges its transfers and updates the slot maps, and each context
    /// runs in place at the slot it held when COMPUTE began.
    std::vector<std::uint64_t> entry_slot_;  ///< slot_of_proc_ at COMPUTE entry
    model::TouchLog touches_;                ///< the executing context's touch log
    bool walking_ = false;  ///< move_slot_run charges without copying

    trace::MultiSink phase_fanout_;  ///< charge sink, then phase observer
    trace::Sink* const phases_;      ///< where phase scopes go; nullptr: nowhere
};

Addr BtSim::compute_pad(const model::AccessFunction& f, std::uint64_t v, std::size_t mu) {
    // Rough capacity estimate (pad excluded; only feeds f, so slack is fine).
    const double est_cap = static_cast<double>(mu) * static_cast<double>(v) * 16.0;
    const auto f_est = static_cast<std::uint64_t>(std::max(1.0, f.at(est_cap)));
    const std::uint64_t chunk_est = bt::pow2_at_most(std::max<std::uint64_t>(f_est, 8));
    // Room for ~6 concurrent stream stages and a few whole contexts. Kept as
    // small as possible: every slot address is offset by the pad, so an
    // oversized pad inflates the f()-latency of all shallow operations. The
    // transpose tile tower also stages here and simply clamps its tile size
    // to what fits.
    std::uint64_t pad = std::max<std::uint64_t>({8 * chunk_est, 8 * mu, 4096});
    pad = next_pow2(pad);
    // Never let the pad dominate memory: beyond this it only buys constant
    // factors while distorting every depth.
    const std::uint64_t cap = std::max<std::uint64_t>(4096, next_pow2(mu * v));
    return std::min(pad, cap);
}

void BtSim::move_slot_run(std::uint64_t src, std::uint64_t dst, std::uint64_t n) {
    if (n == 0 || src == dst) return;
    if (walking_) {
        machine_.charge_transfer(slot_addr(src), slot_addr(dst), n * mu_);
    } else {
        machine_.block_copy(slot_addr(src), slot_addr(dst), n * mu_);
    }
    for (std::uint64_t k = 0; k < n; ++k) {
        const std::int64_t p = proc_of_slot_[src + k];
        proc_of_slot_[dst + k] = p;
        proc_of_slot_[src + k] = kEmptySlot;
        if (p != kEmptySlot) slot_of_proc_[static_cast<std::uint64_t>(p)] = dst + k;
    }
}

void BtSim::swap_slot_runs(std::uint64_t a, std::uint64_t b, std::uint64_t n,
                           std::uint64_t buf) {
    if (a == b || n == 0) return;
    // Three block transfers through the adjacent buffer space (Section 5.2.2).
    move_slot_run(a, buf, n);
    move_slot_run(b, a, n);
    move_slot_run(buf, b, n);
}

void BtSim::shift_slots_right(std::uint64_t begin, std::uint64_t count, std::uint64_t by) {
    // Overlapping shift decomposed into disjoint block copies of length <= by,
    // processed from the deep end.
    std::uint64_t off = count;
    while (off > 0) {
        const std::uint64_t step = std::min(by, off);
        off -= step;
        move_slot_run(begin + off, begin + off + by, step);
    }
}

void BtSim::shift_slots_left(std::uint64_t begin, std::uint64_t count, std::uint64_t by) {
    std::uint64_t off = 0;
    while (off < count) {
        const std::uint64_t step = std::min(by, count - off);
        move_slot_run(begin + off, begin + off - by, step);
        off += step;
    }
}

void BtSim::unpack(unsigned i) {
    // Precondition: the contexts of the topmost i-cluster are packed in slots
    // [0, v/2^i) and slots [v/2^i, 2 v/2^i) are empty.
    if (i == tree_.log_processors()) return;
    const std::uint64_t half = v_ >> (i + 1);
    move_slot_run(half, 2 * half, half);
    unpack(i + 1);
}

void BtSim::pack(unsigned i) {
    if (i == tree_.log_processors()) return;
    pack(i + 1);
    const std::uint64_t half = v_ >> (i + 1);
    move_slot_run(2 * half, half, half);
}

void BtSim::compute_walk(StepIndex s, std::uint64_t n) {
    // Precondition: n contexts packed in slots [0, n), slots [n, 2n) empty.
    if (n == 1) {
        const std::int64_t p = proc_of_slot_[0];
        DBSP_ASSERT(p != kEmptySlot);
        // The schedule hops the context over the staging pad to the true top
        // of memory (two block transfers), so the elementwise step execution
        // pays f(mu) = O(1)-ish per access instead of f(pad). The context
        // runs in place, at its entry slot, charged at virtual address 0
        // with bt::Machine's per-word accounting; its charges fold from zero
        // (model::price_step) and reach the machine in one add.
        const auto proc = static_cast<ProcId>(p);
        const Addr pbase = slot_addr(entry_slot_[proc]);
        trace::Sink* const sink = machine_.trace();
        machine_.charge_transfer(slot_addr(0), 0, mu_);
        // Both images of the context lie in memory, so with i < mu every
        // priced address and every word the step touches does too.
        DBSP_REQUIRE(mu_ <= machine_.capacity() && pbase + mu_ <= machine_.capacity());
        const model::StepOutcome out = model::run_processor_step(
            program_, layout_, tree_, s, proc, machine_.raw().subspan(pbase, mu_), touches_);
        const double cost =
            sink != nullptr
                ? model::price_step<true>(0.0, machine_.table(), sink, touches_, 0, mu_, out.ops)
                : model::price_step<false>(0.0, machine_.table(), nullptr, touches_, 0, mu_,
                                           out.ops);
        machine_.merge_shard(cost);
        machine_.charge_transfer(0, slot_addr(0), mu_);
        return;
    }
    // c(n): greatest power of two <= min(f(mu n)/mu, n/2).
    const double f_val = machine_.function().at(static_cast<double>(mu_) * static_cast<double>(n));
    const auto per_block = static_cast<std::uint64_t>(
        std::max(1.0, std::floor(f_val / static_cast<double>(mu_))));
    const std::uint64_t c = bt::pow2_at_most(std::min(per_block, n / 2));
    const std::uint64_t t = n / c;

    shift_slots_right(c, n - c, c);  // blocks c..n-1 -> 2c..n+c-1
    compute_walk(s, c);
    for (std::uint64_t j = 2; j <= t; ++j) {
        swap_slot_runs(0, j * c, c, /*buf=*/c);
        compute_walk(s, c);
        swap_slot_runs(0, j * c, c, /*buf=*/c);
    }
    shift_slots_left(2 * c, n - c, c);
}

void BtSim::compute(StepIndex s, std::uint64_t n) {
    // COMPUTE (Fig. 6) as one walk: every transfer of the schedule is charged
    // where it occurs and every context runs in place when the walk reaches
    // it. The walk performs only the slot-map updates; since the schedule is
    // a net identity on memory and each context executes exactly once, the
    // maps return to their entry state and no data needs to move.
    entry_slot_.assign(slot_of_proc_.begin(), slot_of_proc_.end());
    walking_ = true;
    compute_walk(s, n);
    walking_ = false;
}

std::uint64_t BtSim::stream_chunk(Addr deepest, std::uint64_t share,
                                  std::uint64_t align) const {
    std::uint64_t c = bt::chunk_words(machine_, deepest, share);
    c = std::max<std::uint64_t>(c - c % align, align);
    DBSP_ASSERT(c <= share || share < align);
    return c;
}

double BtSim::parse_context(bt::StagedReader& rd, ParsedContext& ctx, double total) const {
    auto next = [&] {
        const Word w = rd.peek(0, total);
        rd.advance(1);
        return w;
    };
    for (std::size_t i = 0; i < d_; ++i) ctx.data[i] = next();
    ctx.n_out = static_cast<std::size_t>(next());
    DBSP_ASSERT(ctx.n_out <= b_);
    for (std::size_t k = 0; k < b_; ++k) {
        const Word dest = next();
        const Word p0 = next();
        const Word p1 = next();
        if (k < ctx.n_out) ctx.outgoing[k] = model::Message{0, dest, p0, p1};
    }
    // All b inbox records are read (and charged); the count that follows
    // says how many of them are live.
    for (std::size_t k = 0; k < b_; ++k) {
        for (Word& w : ctx.old_inbox[k]) w = next();
    }
    ctx.n_in = static_cast<std::size_t>(next());
    DBSP_ASSERT(ctx.n_in <= b_);
    return total;
}

std::uint64_t BtSim::serialize_cluster(ProcId first, std::uint64_t csize, Addr dst) {
    const std::uint64_t ctx_words = csize * mu_;
    const std::uint64_t max_words = rec_region_words(csize);
    const std::uint64_t chunk =
        stream_chunk(std::max(slot_addr(csize), dst + max_words), pad_ / 2, 1);
    const bt::StageTower tower(machine_, /*stage=*/0, chunk, /*align=*/1, /*lanes=*/2);
    bt::StagedReader rd(machine_, tower, /*lane=*/0, slot_addr(0), ctx_words);
    bt::StagedWriter wr(machine_, tower, /*lane=*/1, dst, max_words);
    ParsedContext ctx(d_, b_);

    std::uint64_t n_rec = 0;
    last_outgoing_ = 0;
    double total = machine_.cost();  // the pass's fold (bt/machine.hpp)
    auto emit = [&](Word k0, Word k1, Word w0, Word w1, Word w2) {
        wr.push(k0, total);
        wr.push(k1, total);
        wr.push(w0, total);
        wr.push(w1, total);
        wr.push(w2, total);
        ++n_rec;
    };

    for (ProcId p = first; p < first + csize; ++p) {
        total = parse_context(rd, ctx, total);
        for (std::uint64_t i = 0; i < dr_; ++i) {
            const Word w0 = ctx.data[2 * i];
            const Word w1 = (2 * i + 1 < d_) ? ctx.data[2 * i + 1] : 0;
            emit(p, data_key1(i), w0, w1, 0);
        }
        for (std::size_t k = 0; k < ctx.n_in; ++k) {
            const auto& rec = ctx.old_inbox[k];
            emit(p, msg_key1(0, 0, k), rec[0], rec[1], rec[2]);
        }
        last_outgoing_ += ctx.n_out;
        for (std::size_t k = 0; k < ctx.n_out; ++k) {
            const auto& msg = ctx.outgoing[k];
            emit(msg.dest, msg_key1(1, p, k), p, msg.payload0, msg.payload1);
        }
    }
    machine_.set_cost(total);
    wr.flush();
    return n_rec;
}

void BtSim::deserialize_cluster(ProcId first, std::uint64_t csize, Addr src,
                                std::uint64_t n_rec) {
    const std::uint64_t ctx_words = csize * mu_;
    const std::uint64_t chunk = stream_chunk(
        std::max(src + n_rec * kRecWords, slot_addr(csize)), pad_ / 2, kRecWords);
    const bt::StageTower tower(machine_, /*stage=*/0, chunk, /*align=*/kRecWords,
                               /*lanes=*/2);
    bt::StagedReader rd(machine_, tower, /*lane=*/0, src, n_rec * kRecWords);
    bt::StagedWriter wr(machine_, tower, /*lane=*/1, slot_addr(0), ctx_words);

    double total = machine_.cost();  // the pass's fold (bt/machine.hpp)
    auto read_rec = [&](Word out[kRecWords]) {
        for (std::uint64_t t = 0; t < kRecWords; ++t) out[t] = rd.peek(t, total);
        rd.advance(kRecWords);
    };

    for (ProcId p = first; p < first + csize; ++p) {
        Word rec[kRecWords];
        // Data records, in pair order.
        for (std::uint64_t i = 0; i < dr_; ++i) {
            read_rec(rec);
            DBSP_ASSERT(rec[0] == p);
            DBSP_ASSERT(rec[1] == data_key1(i));
            wr.push(rec[2], total);
            if (2 * i + 1 < d_) wr.push(rec[3], total);
        }
        wr.push(0, total);  // out_count = 0
        for (std::size_t k = 0; k < 3 * b_; ++k) wr.push(0, total);  // cleared out records
        // Message records: old inbox first, then newly delivered.
        std::size_t cnt = 0;
        while (!rd.done() && rd.peek(0, total) == p) {
            read_rec(rec);
            DBSP_ASSERT((rec[1] >> kClassShift) == 1);
            DBSP_REQUIRE(cnt < b_);  // inbox capacity (h <= mu discipline)
            wr.push(rec[2], total);
            wr.push(rec[3], total);
            wr.push(rec[4], total);
            ++cnt;
        }
        for (std::size_t k = cnt; k < b_; ++k) {
            wr.push(0, total);
            wr.push(0, total);
            wr.push(0, total);
        }
        wr.push(cnt, total);  // in_count
    }
    DBSP_ASSERT(rd.done());
    machine_.set_cost(total);
    wr.flush();
}

void BtSim::deliver_sort(unsigned label, ProcId first, std::uint64_t csize) {
    ++result_.sort_invocations;
    const std::uint64_t g = gap_slots(csize);
    const std::uint64_t l_words = g * mu_;

    // i_k: the deepest level whose cluster memory still fits the sort space
    // (Fig. 7); 0 if even the whole machine is too small.
    unsigned ik = 0;
    for (unsigned i = (label == 0) ? 0 : label - 1;; --i) {
        if (static_cast<double>(mu_) * static_cast<double>(v_ >> i) >=
            static_cast<double>(l_words)) {
            ik = i;
            break;
        }
        if (i == 0) break;
    }
    if (ik >= label && label > 0) ik = label - 1;

    unpack(label);
    pack(ik);
    const std::uint64_t nk = v_ >> ik;
    shift_slots_right(csize, nk - csize, g);

    const Addr region_a = slot_addr(csize);
    const std::uint64_t n_rec = serialize_cluster(first, csize, region_a);
    const Addr scratch = region_a + rec_region_words(csize);
    bt::merge_sort_records(machine_, region_a, n_rec, kRecWords, scratch,
                           /*stage=*/0, /*stage_words=*/pad_);
    deserialize_cluster(first, csize, region_a, n_rec);

    shift_slots_left(csize + g, nk - csize, g);
    unpack(ik);
    pack(label);
}

bool BtSim::deliver_transpose(ProcId first, std::uint64_t csize, std::uint64_t grain) {
    // The permutation is an independent sqrt(grain)-transpose within each
    // aligned grain-block of the cluster (the blocks coincide with the
    // cluster when the superstep label was not upgraded by smoothing).
    if (grain == 0) grain = csize;
    if (grain < 4 || grain > csize || csize % grain != 0) return false;
    const unsigned lg = ilog2(grain);
    if (lg % 2 != 0) return false;  // needs a square grid
    const std::uint64_t side = std::uint64_t{1} << (lg / 2);
    ++result_.transpose_invocations;
    last_outgoing_ = csize;  // the kTranspose promise: one message per processor

    auto transpose_of = [&](std::uint64_t x) {
        const std::uint64_t block = x - x % grain;
        const std::uint64_t q = x % grain;
        return block + (q % side) * side + q / side;
    };

    // Gather payload arrays X, Y into the free sibling space [csize, 2csize).
    const Addr ax = slot_addr(csize);
    const Addr ay = ax + csize;
    {
        const std::uint64_t chunk = stream_chunk(ay + csize, pad_ / 3, 1);
        const bt::StageTower tower(machine_, /*stage=*/0, chunk, /*align=*/1, /*lanes=*/3);
        bt::StagedReader rd(machine_, tower, /*lane=*/0, slot_addr(0), csize * mu_);
        bt::StagedWriter wx(machine_, tower, /*lane=*/1, ax, csize);
        bt::StagedWriter wy(machine_, tower, /*lane=*/2, ay, csize);
        ParsedContext ctx(d_, b_);
        double total = machine_.cost();  // the pass's fold (bt/machine.hpp)
        for (ProcId p = first; p < first + csize; ++p) {
            total = parse_context(rd, ctx, total);
            // The kTranspose promise: exactly one message, to the transposed
            // grid position.
            DBSP_REQUIRE(ctx.n_out == 1);
            DBSP_REQUIRE(ctx.outgoing[0].dest == first + transpose_of(p - first));
            wx.push(ctx.outgoing[0].payload0, total);
            wy.push(ctx.outgoing[0].payload1, total);
        }
        machine_.set_cost(total);
        wx.flush();
        wy.flush();
    }

    for (std::uint64_t block = 0; block < csize; block += grain) {
        bt::transpose_square(machine_, ax + block, side, /*stage_base=*/0, pad_);
        bt::transpose_square(machine_, ay + block, side, /*stage_base=*/0, pad_);
    }

    // Rebuild pass: chunked read-modify-write of the contexts, appending the
    // delivered message to each inbox and resetting the outgoing count.
    {
        const std::uint64_t ctx_per_chunk = std::max<std::uint64_t>(1, (pad_ / 2) / mu_);
        const std::uint64_t stage_xy = ctx_per_chunk * mu_;
        const std::uint64_t cx = stream_chunk(ay + csize, pad_ / 5, 1);
        const bt::StageTower tower(machine_, /*stage=*/stage_xy, cx, /*align=*/1,
                                   /*lanes=*/2);
        bt::StagedReader rx(machine_, tower, /*lane=*/0, ax, csize);
        bt::StagedReader ry(machine_, tower, /*lane=*/1, ay, csize);
        for (std::uint64_t q0 = 0; q0 < csize; q0 += ctx_per_chunk) {
            const std::uint64_t nctx = std::min(ctx_per_chunk, csize - q0);
            const Addr chunk_addr = slot_addr(q0);
            machine_.block_copy(chunk_addr, 0, nctx * mu_);
            double total = machine_.cost();  // the chunk's fold (bt/machine.hpp)
            for (std::uint64_t t = 0; t < nctx; ++t) {
                const std::uint64_t q = q0 + t;
                const Addr base = t * mu_;
                const auto in_count = static_cast<std::size_t>(
                    machine_.read(base + layout_.in_count_offset(), total));
                DBSP_REQUIRE(in_count < b_);
                const std::size_t off = layout_.in_record_offset(in_count);
                machine_.write(base + off, first + transpose_of(q), total);  // src
                machine_.write(base + off + 1, rx.peek(0, total), total);
                machine_.write(base + off + 2, ry.peek(0, total), total);
                rx.advance(1);
                ry.advance(1);
                machine_.write(base + layout_.in_count_offset(), in_count + 1, total);
                machine_.write(base + layout_.out_count_offset(), 0, total);
            }
            machine_.set_cost(total);
            machine_.block_copy(0, chunk_addr, nctx * mu_);
        }
    }
    return true;
}

void BtSim::check_round_invariants(ProcId first, std::uint64_t csize, StepIndex s) const {
    // Map consistency.
    for (ProcId p = 0; p < v_; ++p) {
        DBSP_ASSERT(proc_of_slot_[slot_of_proc_[p]] == static_cast<std::int64_t>(p));
    }
    // Invariant 1: the cluster is s-ready.
    for (ProcId p = first; p < first + csize; ++p) DBSP_ASSERT(sigma_[p] == s);
    // Every cluster at the current level or deeper stays within a window of
    // twice its size (contiguous up to interspersed buffer blocks); coarser
    // clusters may be fragmented while a Step 4 cycle is in flight.
    const unsigned level = program_.label(s);
    for (unsigned i = level; i <= tree_.log_processors(); ++i) {
        const std::uint64_t sz = tree_.cluster_size(i);
        for (std::uint64_t j = 0; j < tree_.num_clusters(i); ++j) {
            const ProcId f0 = tree_.cluster_first(j, i);
            std::uint64_t lo = slot_of_proc_[f0], hi = lo;
            for (ProcId p = f0; p < f0 + sz; ++p) {
                lo = std::min(lo, slot_of_proc_[p]);
                hi = std::max(hi, slot_of_proc_[p]);
            }
            DBSP_ASSERT(hi - lo + 1 <= 2 * sz);
        }
    }
}

BtSimResult BtSim::run() {
    const StepIndex steps = program_.num_supersteps();
    DBSP_REQUIRE(steps > 0);
    DBSP_REQUIRE(program_.label(steps - 1) == 0);
    static auto& metric_runs = report::metric_counter("sim.bt.runs");
    metric_runs.add();
    result_.data_words = d_;

    // Load the initial memory image: contexts packed in slots [0, v).
    {
        const auto init = model::DbspMachine::initial_contexts(program_);
        auto raw = machine_.raw();
        for (ProcId p = 0; p < v_; ++p) {
            std::copy(init[p].begin(), init[p].end(),
                      raw.begin() + static_cast<std::ptrdiff_t>(slot_addr(p)));
            proc_of_slot_[p] = static_cast<std::int64_t>(p);
            slot_of_proc_[p] = p;
        }
    }
    {
        trace::PhaseScope move(phases_, trace::Phase::kContextMove, 0);
        unpack(0);  // Step 0 of Fig. 5
    }

    while (true) {
        const std::int64_t top = proc_of_slot_[0];
        DBSP_ASSERT(top != kEmptySlot);
        const auto top_proc = static_cast<ProcId>(top);
        const StepIndex s = sigma_[top_proc];
        if (s == steps) break;
        const unsigned label = program_.label(s);
        const std::uint64_t csize = tree_.cluster_size(label);
        const ProcId first = tree_.cluster_first(tree_.cluster_of(top_proc, label), label);
        ++result_.rounds;
        static auto& metric_rounds = report::metric_counter("sim.bt.rounds");
        metric_rounds.add();

        if (options_.check_invariants) check_round_invariants(first, csize, s);

        // Rounds executing a smoothing-inserted dummy superstep attribute all
        // their charges to the dummy-superstep phase.
        const bool dummy_round = phases_ != nullptr && program_.is_dummy_step(s);
        const auto ph = [dummy_round](trace::Phase p) {
            return dummy_round ? trace::Phase::kDummyStep : p;
        };

        {
            trace::PhaseScope move(phases_, ph(trace::Phase::kContextMove), label);
            pack(label);  // Step 1.a
        }
        if (options_.check_invariants) {
            for (std::uint64_t idx = 0; idx < csize; ++idx) {
                DBSP_ASSERT(proc_of_slot_[idx] == static_cast<std::int64_t>(first + idx));
            }
        }

        // Step 2: local computation, then communication.
        {
            trace::PhaseScope exec(phases_, ph(trace::Phase::kStepExec), label);
            compute(s, csize);
        }
        bool transposed = false;
        if (options_.use_rational_permutations &&
            program_.permutation_class(s) == model::PermutationClass::kTranspose) {
            trace::PhaseScope deliver(phases_, ph(trace::Phase::kDeliverTranspose), label);
            transposed = deliver_transpose(first, csize, program_.permutation_grain(s));
        }
        if (!transposed) {
            trace::PhaseScope deliver(phases_, ph(trace::Phase::kDeliverSort), label);
            deliver_sort(label, first, csize);
        }
        // BT delivery bypasses model::deliver_messages (transpose/sort), so it
        // publishes its own batch telemetry under the shared metric names.
        static auto& metric_delivered = report::metric_counter("model.messages_delivered");
        static auto& metric_batch = report::metric_histogram("model.delivery_batch");
        metric_delivered.add(last_outgoing_);
        metric_batch.observe(last_outgoing_);
        if (options_.trace != nullptr) options_.trace->messages(last_outgoing_);

        for (ProcId p = first; p < first + csize; ++p) sigma_[p] = s + 1;

        // Step 4: rotate sibling clusters when the next label is coarser.
        // Like the Step 5 unpack, it is layout maintenance and charges inside
        // a context-move scope: no charge of a round falls outside a phase.
        if (s + 1 < steps) {
            const unsigned next_label = program_.label(s + 1);
            if (next_label < label) {
                trace::PhaseScope move(phases_, ph(trace::Phase::kContextMove), next_label);
                const std::uint64_t bsib = std::uint64_t{1} << (label - next_label);
                const std::uint64_t jbar = tree_.cluster_of(top_proc, next_label);
                const ProcId cbar_first = tree_.cluster_first(jbar, next_label);
                const std::uint64_t j =
                    tree_.cluster_of(top_proc, label) - (jbar << (label - next_label));
                if (j > 0) {
                    swap_slot_runs(0, slot_of_proc_[cbar_first], csize, /*buf=*/csize);
                }
                if (j < bsib - 1) {
                    const ProcId cnext_first = cbar_first + (j + 1) * csize;
                    swap_slot_runs(0, slot_of_proc_[cnext_first], csize, /*buf=*/csize);
                }
            }
        }

        {
            trace::PhaseScope move(phases_, ph(trace::Phase::kContextMove), label);
            unpack(label);  // Step 5
        }
    }

    result_.bt_cost = machine_.cost();
    result_.transfer_volume = machine_.transfer_volume_cost();
    result_.block_transfers = machine_.block_transfers();
    result_.contexts.resize(v_);
    const auto raw = machine_.raw();
    for (ProcId p = 0; p < v_; ++p) {
        const Addr base = slot_addr(slot_of_proc_[p]);
        result_.contexts[p].assign(raw.begin() + static_cast<std::ptrdiff_t>(base),
                                   raw.begin() + static_cast<std::ptrdiff_t>(base + mu_));
    }
    return result_;
}

}  // namespace

std::vector<Word> BtSimResult::data_of(ProcId p) const {
    DBSP_REQUIRE(p < contexts.size());
    const auto& ctx = contexts[p];
    return std::vector<Word>(ctx.begin(),
                             ctx.begin() + static_cast<std::ptrdiff_t>(data_words));
}

BtSimResult BtSimulator::simulate(model::Program& program) const {
    BtSim sim(f_, program, options_);
    return sim.run();
}

}  // namespace dbsp::core
