#pragma once

/// \file primitives.hpp
/// Building blocks for BT algorithms. The recurring pattern of efficient BT
/// code (per [ACS87] and Section 5 of the paper) is *chunked staging*: data is
/// moved to the top of memory in blocks of size Theta(f(n)) — so the per-chunk
/// transfer cost f(n) + c is O(1) amortized per cell — and processed there,
/// recursively re-staging when even top-of-chunk access costs matter.
///
/// This file provides:
///  * touch_region — the touching problem (Fact 2), Theta(n f*(n));
///  * StagedReader / StagedWriter — sequential charged streams over deep
///    regions that stage chunks at the top via block transfer (the machinery
///    behind the BT merge sort and the simulator's context rewrites). Both
///    stage through the full touching-recursion tower (StageTower) inside
///    their stage window: level k+1 is a Theta(f(size of level k))-sized
///    buffer, down to O(1), so the per-word access cost is
///    O(f*(n))-amortized — this is what makes Theorem 12's f-independence
///    hold in the measurements, not just in the asymptotics.
///
/// The streams' per-word calls fold into the caller's running total (the
/// rule in bt/machine.hpp): a loop takes the total with Machine::cost(),
/// passes it to every peek() and push(), and hands it back with
/// Machine::set_cost() before it flushes a writer, resets a stream, or
/// charges the machine in any other way. A refill or spill inside peek() or
/// push() takes the total by value, writes it back, charges its block
/// transfers and returns the machine's new total.

#include <vector>

#include "bt/machine.hpp"
#include "util/contracts.hpp"

namespace dbsp::bt {

/// Largest power of two <= x; requires x >= 1.
std::uint64_t pow2_at_most(std::uint64_t x);

/// Staging chunk size for a region ending at address \p deepest: the largest
/// power of two <= min(f(deepest), cap), and >= 1.
std::uint64_t chunk_words(const Machine& m, Addr deepest, std::uint64_t cap);

/// Touch every cell of [base, base+n): the Fact 2 touching problem. Chunks
/// are staged at [c, 2c) with recursion staging strictly below, so the caller
/// must keep [0, base) free; cost is Theta(n f*(n)) for (2,c)-uniform f.
/// Returns the XOR of all touched words (forces real reads).
Word touch_region(Machine& m, Addr base, std::uint64_t n);

/// The staging tower shared by StagedReader and StagedWriter: buffer levels
/// inside the window [stage, stage + lanes*chunk), outermost (largest) level
/// first. Level k+1 has size ~f(level k's size), rounded to the record
/// alignment, ending when a level is small enough that elementwise access to
/// it is cheap.
///
/// When several streams cooperate (e.g. the two inputs and the output of a
/// merge), each takes one of \p lanes lanes over the shared window: the levels
/// of all lanes are interleaved depth-wise, so every stream's innermost
/// buffer sits at the very top of the window — the whole point of the tower
/// is that the cheapest addresses serve the per-word traffic of *all*
/// streams. The layout depends only on (f, stage, chunk, align, lanes), so one
/// tower serves every lane and every region its streams are aimed at: build it
/// once per pass, not once per stream.
struct StageTower {
    StageTower(const Machine& m, Addr stage, std::uint64_t chunk, std::uint64_t align,
               std::uint64_t lanes = 1);

    struct Level {
        Addr addr;  ///< lane 0's buffer; lane j's starts j * capacity further on
        std::uint64_t capacity;
    };

    /// First address of \p lane's buffer at \p level.
    Addr addr(std::size_t level, std::uint64_t lane) const {
        return levels[level].addr + lane * levels[level].capacity;
    }

    Addr stage;             ///< the window is [stage, end)
    Addr end;
    std::uint64_t lanes;
    std::vector<Level> levels;  ///< [0] = outermost, back() = innermost
};

/// Sequential reader over the \p len words at [begin, begin+len), on lane
/// \p lane of \p tower (which must outlive the reader). Data cascades through
/// the tower via block transfers; reads are served from the innermost level.
/// The stage window must be disjoint from the source region. reset() re-aims
/// the reader at another region without touching the tower.
class StagedReader {
public:
    StagedReader(Machine& m, const StageTower& tower, std::uint64_t lane, Addr begin = 0,
                 std::uint64_t len = 0);

    /// Start over on [begin, begin+len): nothing of the previous region stays
    /// staged, so the reader charges exactly what a fresh one would.
    void reset(Addr begin, std::uint64_t len);

    /// True once every word of the region has been consumed.
    bool done() const { return pos_ == len_; }

    /// Charged read of the word at (current position + offset), folded into
    /// the caller's running \p total; requires the addressed word to lie
    /// within the innermost staged window, which holds whenever offset < align
    /// and advance() moves in align units.
    Word peek(std::uint64_t offset, double& total) {
        const std::uint64_t at = pos_ + offset;
        DBSP_REQUIRE(at < len_);
        if (at >= inner_hi_) [[unlikely]] total = refill_to_pos(total);
        DBSP_ASSERT(at >= inner_lo_);
        return m_.read(inner_addr_ + (at - inner_lo_), total);
    }

    /// Consume \p words words.
    void advance(std::uint64_t words) {
        DBSP_REQUIRE(pos_ + words <= len_);
        pos_ += words;
    }

private:
    /// Write \p total back, stage the consumption point, return the new total.
    double refill_to_pos(double total);
    void refill(std::size_t level);

    Machine& m_;
    const StageTower& tower_;
    std::uint64_t lane_;
    std::size_t inner_;                  ///< index of the innermost level
    Addr inner_addr_;                    ///< this lane's innermost buffer
    Addr begin_ = 0;
    std::uint64_t len_ = 0;
    std::uint64_t pos_ = 0;              ///< consumed words
    std::vector<std::uint64_t> lo_, hi_; ///< staged region-offset windows
    std::uint64_t inner_lo_ = 0;         ///< lo_[inner_], read on every peek
    std::uint64_t inner_hi_ = 0;         ///< hi_[inner_]
};

/// Sequential writer over the \p len words at [begin, begin+len); words are
/// accumulated in the innermost tower level and flushed outwards with block
/// transfers. Mirrors StagedReader's layout.
class StagedWriter {
public:
    StagedWriter(Machine& m, const StageTower& tower, std::uint64_t lane, Addr begin = 0,
                 std::uint64_t len = 0);
    ~StagedWriter();

    StagedWriter(const StagedWriter&) = delete;
    StagedWriter& operator=(const StagedWriter&) = delete;

    /// Flush what is buffered to the current region, then start over on
    /// [begin, begin+len).
    void reset(Addr begin, std::uint64_t len);

    /// Append one word, its charge folded into the caller's running
    /// \p total; requires fewer than len words pushed so far.
    void push(Word w, double& total) {
        DBSP_REQUIRE(pushed_ < len_);
        ++pushed_;
        m_.write(inner_addr_ + inner_fill_, w, total);
        if (++inner_fill_ == inner_capacity_) [[unlikely]] total = spill_inner(total);
    }

    /// Flush all buffered words to the destination. Also called by the
    /// destructor; idempotent.
    void flush();

private:
    /// Write \p total back, spill the full innermost level, return the new
    /// total.
    double spill_inner(double total);
    void spill(std::size_t level);  ///< move level's contents one step out

    Machine& m_;
    const StageTower& tower_;
    std::uint64_t lane_;
    std::size_t inner_;                ///< index of the innermost level
    Addr inner_addr_;                  ///< this lane's innermost buffer
    std::uint64_t inner_capacity_;
    Addr begin_ = 0;
    std::uint64_t len_ = 0;
    std::uint64_t pushed_ = 0;         ///< words pushed since the last reset
    std::uint64_t flushed_ = 0;        ///< words already at the destination
    std::vector<std::uint64_t> fill_;  ///< buffered words per outer level
    std::uint64_t inner_fill_ = 0;     ///< buffered words in the innermost level
};

}  // namespace dbsp::bt
