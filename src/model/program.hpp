#pragma once

/// \file program.hpp
/// The D-BSP program abstraction (Section 2 of the paper). A program is a
/// sequence of labeled supersteps over v processors with mu-word contexts.
/// In an i-superstep every processor runs local computation on its context and
/// sends constant-size messages to processors inside its i-cluster; messages
/// become visible in the destination's inbox at the start of the next
/// superstep.
///
/// The step callback must be a pure function of (superstep, processor,
/// context contents, inbox): the HMM/BT simulators execute processors wildly
/// out of order (that is the whole point of the paper), so any hidden global
/// mutable state in a program would break functional equivalence.

#include <bit>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "model/cluster_tree.hpp"
#include "model/context_layout.hpp"
#include "model/types.hpp"
#include "util/contracts.hpp"

namespace dbsp::model {

class Program;
struct StepOutcome;

/// The word indices a step touched in its context, in order: the executor
/// owns one log per run, and after each step prices it with its own fold.
using TouchLog = std::vector<std::uint32_t>;

/// Runs one processor's step; see superstep_exec.hpp.
inline StepOutcome run_processor_step(Program& program, const ContextLayout& layout,
                                      const ClusterTree& tree, StepIndex s, ProcId p,
                                      std::span<Word> context, TouchLog& touches);

/// Execution-facing view of one processor during one superstep. The step
/// reads and writes the processor's mu-word context in place, as a plain
/// span, and appends the index of every context word it touches to a touch
/// log. No step makes a call per word into a machine: after the step the
/// executor prices the log in order (the simulators, at the addresses their
/// schedule charges) or clears it (the direct machine). The view also
/// enforces the message discipline and counts local operations so executors
/// can compute tau_s = max per-processor work.
class StepContext {
public:
    /// \p context is the processor's whole context (layout.context_words()
    /// words). \p proc is the processor's *local* index within \p tree;
    /// \p proc_base is added to it for everything the program observes
    /// (proc(), message sources and destinations). The base is nonzero only
    /// when a sub-machine window of a larger program is executed (Section 4
    /// self-simulation).
    StepContext(std::span<Word> context, TouchLog& touches, const ContextLayout& layout,
                const ClusterTree& tree, StepIndex superstep, unsigned label, ProcId proc,
                ProcId proc_base = 0)
        : context_(context), touches_(touches), layout_(layout), tree_(tree),
          superstep_(superstep), label_(label), proc_(proc), proc_base_(proc_base) {
        DBSP_REQUIRE(context.size() == layout.context_words());
        DBSP_REQUIRE(context.size() <= std::numeric_limits<std::uint32_t>::max());
    }

    /// --- user data ---------------------------------------------------------
    Word load(std::size_t i) {
        DBSP_REQUIRE(i < layout_.data_words);
        ++ops_;
        return get(i);
    }
    void store(std::size_t i, Word value) {
        DBSP_REQUIRE(i < layout_.data_words);
        ++ops_;
        set(i, value);
    }

    /// Convenience for floating-point payloads.
    double load_double(std::size_t i) { return std::bit_cast<double>(load(i)); }
    void store_double(std::size_t i, double value) { store(i, std::bit_cast<Word>(value)); }

    /// --- messaging ---------------------------------------------------------
    /// Number of messages delivered at the start of this superstep.
    std::size_t inbox_size() {
        ++ops_;
        read_inbox_ = true;
        return static_cast<std::size_t>(get(layout_.in_count_offset()));
    }
    /// k-th received message (src, payload0, payload1).
    Message inbox(std::size_t k) {
        DBSP_REQUIRE(k < layout_.max_messages);
        read_inbox_ = true;
        const std::size_t off = layout_.in_record_offset(k);
        ++ops_;
        Message m;
        m.src = get(off);  // sources are stored as global ids by delivery
        m.payload0 = get(off + 1);
        m.payload1 = get(off + 2);
        m.dest = proc();
        return m;
    }
    /// Send a message to \p dest, which must lie in this processor's
    /// label-cluster; at most max_messages sends per superstep.
    void send(ProcId dest, Word payload0, Word payload1 = 0) {
        DBSP_REQUIRE(dest >= proc_base_);
        const ProcId local_dest = dest - proc_base_;
        DBSP_REQUIRE(local_dest < tree_.processors());
        // Communication discipline of an i-superstep: messages may not leave
        // the sender's i-cluster (Section 2).
        DBSP_REQUIRE(tree_.same_cluster(proc_, local_dest, label_));
        DBSP_REQUIRE(sent_ < layout_.max_messages);
        const std::size_t off = layout_.out_record_offset(sent_);
        set(off, local_dest);
        set(off + 1, payload0);
        set(off + 2, payload1);
        ++sent_;
        ++ops_;
    }
    void send_double(ProcId dest, double payload0, double payload1 = 0.0) {
        send(dest, std::bit_cast<Word>(payload0), std::bit_cast<Word>(payload1));
    }

    /// --- accounting --------------------------------------------------------
    /// Charge additional pure-compute work (loads/stores/sends already charge
    /// one op each).
    void charge_ops(std::uint64_t n) { ops_ += n; }
    std::uint64_t ops() const { return ops_; }
    std::size_t sent() const { return sent_; }

    /// True iff the step inspected its inbox. Executors consume (clear) the
    /// inbox after a step that read it; an unread inbox persists, so messages
    /// survive the dummy supersteps inserted by L-smoothing. This rule is
    /// applied identically by the direct machine and by every simulator.
    bool read_inbox() const { return read_inbox_; }

    /// Global processor id as the program sees it. Note: there is
    /// deliberately no processors() accessor — under the Section 4
    /// self-simulation a step may execute inside a sub-machine window whose
    /// tree is smaller than the program's v, so programs must use their own
    /// stored size.
    ProcId proc() const { return proc_base_ + proc_; }
    StepIndex superstep() const { return superstep_; }
    unsigned label() const { return label_; }

private:
    /// The count words are committed through these too, so their touches
    /// land in the log.
    friend StepOutcome run_processor_step(Program& program, const ContextLayout& layout,
                                          const ClusterTree& tree, StepIndex s, ProcId p,
                                          std::span<Word> context, TouchLog& touches);

    Word get(std::size_t i) {
        touches_.push_back(static_cast<std::uint32_t>(i));
        return context_[i];
    }
    void set(std::size_t i, Word value) {
        touches_.push_back(static_cast<std::uint32_t>(i));
        context_[i] = value;
    }

    std::span<Word> context_;
    TouchLog& touches_;
    const ContextLayout& layout_;
    const ClusterTree& tree_;
    StepIndex superstep_;
    unsigned label_;
    ProcId proc_;
    ProcId proc_base_;
    std::uint64_t ops_ = 0;
    std::size_t sent_ = 0;
    bool read_inbox_ = false;
};

/// Communication-pattern classes a program may declare for a superstep
/// (Section 6 of the paper): when the pattern is a known rational permutation
/// the BT simulator can deliver it with the transpose primitive instead of
/// sorting, which is what makes the recursive-FFT simulation optimal.
enum class PermutationClass {
    kGeneral,    ///< arbitrary h-relation; delivered by sorting
    kTranspose,  ///< each processor x of the cluster sends exactly one message
                 ///< to processor transpose(x) on the sqrt(|C|) grid
};

/// A D-BSP program: structure (v, mu via layout, superstep labels) plus the
/// per-processor step behaviour and initial context data.
class Program {
public:
    virtual ~Program() = default;

    virtual std::string name() const = 0;

    /// v: number of processors; must be a power of two.
    virtual std::uint64_t num_processors() const = 0;

    /// D: user data words per context (layout adds buffer words on top).
    virtual std::size_t data_words() const = 0;

    /// B: per-direction message-buffer capacity per superstep.
    virtual std::size_t max_messages() const = 0;

    virtual StepIndex num_supersteps() const = 0;

    /// Label i_s of superstep s, in [0, log v]. The last superstep must have
    /// label 0 (the paper assumes every computation ends with a global
    /// synchronization).
    virtual unsigned label(StepIndex s) const = 0;

    /// Populate processor \p p's initial data words (zero-filled on entry).
    virtual void init(ProcId p, std::span<Word> data) const { (void)p, (void)data; }

    /// Local computation of superstep \p s for processor \p p.
    virtual void step(StepIndex s, ProcId p, StepContext& ctx) = 0;

    /// Declared communication pattern of superstep \p s; kGeneral is always
    /// safe. A kTranspose declaration is a promise (checked by the BT
    /// simulator) that every processor sends exactly one message to its
    /// transposed grid position within its aligned permutation_grain()-block.
    virtual PermutationClass permutation_class(StepIndex s) const {
        (void)s;
        return PermutationClass::kGeneral;
    }

    /// For kTranspose supersteps: the size m of the aligned processor blocks
    /// each of which undergoes an independent sqrt(m) x sqrt(m) transpose.
    /// Must divide the superstep's cluster size and have even log2. This is
    /// what keeps the declaration valid when L-smoothing upgrades the
    /// superstep to a coarser cluster: the pattern stays a blocked transpose.
    virtual std::uint64_t permutation_grain(StepIndex s) const {
        (void)s;
        return 0;
    }

    /// Offset added to local processor indices to form the ids the program's
    /// step functions observe; nonzero only for sub-machine window adapters.
    virtual ProcId proc_id_base() const { return 0; }

    /// True iff superstep \p s is a dummy inserted by a transformation
    /// (L-smoothing) rather than part of the original computation. Executors
    /// use this only for charge-trace attribution (Phase::kDummyStep), never
    /// for behaviour.
    virtual bool is_dummy_step(StepIndex s) const {
        (void)s;
        return false;
    }

    /// Derived layout for this program's contexts.
    ContextLayout layout() const { return ContextLayout{data_words(), max_messages()}; }

    /// mu: full context size in words.
    std::size_t context_words() const { return layout().context_words(); }
};

/// A program plus a relabeling of its supersteps; used by the L-smoothing
/// transformation, which upgrades labels and inserts dummy supersteps without
/// touching the underlying program behaviour.
class RelabeledProgram final : public Program {
public:
    /// \p step_map[s'] = index of the underlying superstep executed at
    /// position s', or kDummy for an inserted dummy superstep.
    /// \p labels[s'] = (possibly upgraded) label of position s'.
    static constexpr StepIndex kDummy = static_cast<StepIndex>(-1);

    RelabeledProgram(Program& base, std::vector<StepIndex> step_map,
                     std::vector<unsigned> labels);

    std::string name() const override { return base_.name() + "/smoothed"; }
    std::uint64_t num_processors() const override { return base_.num_processors(); }
    std::size_t data_words() const override { return base_.data_words(); }
    std::size_t max_messages() const override { return base_.max_messages(); }
    StepIndex num_supersteps() const override { return labels_.size(); }
    unsigned label(StepIndex s) const override { return labels_[s]; }
    void init(ProcId p, std::span<Word> data) const override { base_.init(p, data); }
    void step(StepIndex s, ProcId p, StepContext& ctx) override;
    PermutationClass permutation_class(StepIndex s) const override {
        return step_map_[s] == kDummy ? PermutationClass::kGeneral
                                      : base_.permutation_class(step_map_[s]);
    }
    std::uint64_t permutation_grain(StepIndex s) const override {
        return step_map_[s] == kDummy ? 0 : base_.permutation_grain(step_map_[s]);
    }
    ProcId proc_id_base() const override { return base_.proc_id_base(); }
    bool is_dummy_step(StepIndex s) const override {
        return step_map_[s] == kDummy || base_.is_dummy_step(step_map_[s]);
    }

    /// True iff position s is an inserted dummy superstep.
    bool is_dummy(StepIndex s) const { return step_map_[s] == kDummy; }
    Program& base() { return base_; }

private:
    Program& base_;
    std::vector<StepIndex> step_map_;
    std::vector<unsigned> labels_;
};

}  // namespace dbsp::model
