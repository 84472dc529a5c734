#pragma once

/// \file reuse_distance.hpp
/// The reuse-distance engine. For every reference it reports
///  * the LRU stack distance: the number of *distinct* addresses touched
///    since the previous reference to the same address (infinite on first
///    touch) — under LRU inclusion, a reference hits in any memory of
///    capacity C iff its distance is < C;
///  * the reuse time: the number of references since that previous
///    reference — the quantity the Denning working-set recurrence averages.
///
/// The LRU stack is a slot bitmap (Olken; Bennett and Kruskal). Every
/// tracked address owns one slot, and slots are handed out in last-use
/// order, so the live slots *are* the stack, newest on top, and a
/// reference's distance is the number of live slots above its previous
/// slot. A Fenwick tree over 512-slot block populations answers that count
/// in O(log n); a slot within kNearSlots of the top, where most
/// re-references land, is counted directly. When the slot space is used up,
/// the live slots are renumbered 1..live in place; the renumbering keeps
/// their order, so no distance changes, and the space grows to several
/// times the live count.
/// An address's slot and last stamp live in one entry, so a bit is all a
/// slot costs.
///
/// Two operating modes (Mode):
///  * kExact — every reference is measured. record() is one rank query and
///    two bit flips; a reference already on top of the stack (distance 0)
///    moves no bit. record_range() takes a bulk op of b cells in one scan:
///    where previous slots ascend, a cell's count of live slots above its
///    previous slot follows from the previous warm cell's by a popcount of
///    the slots between the two (a run of contiguous previous slots keeps
///    one distance); elsewhere it is a rank query. Contiguous old slots are
///    cleared, and the op's b new slots set, as runs of bits. Cells are
///    reported as runs of one distance and evenly stepped reuse times, which
///    LocalityProfile::note_cells folds in closed form.
///  * kSampled — SHARDS-style fixed-rate spatial sampling (Waldspurger et
///    al.): a reference is measured iff splitmix(addr) < rate * 2^64, so
///    every address is consistently in or out of the sample and the sampled
///    stack distances are unbiased estimates of distance * rate. Only
///    sampled addresses own slots; the clock still advances for every
///    reference, so reuse *times* stay exact. rate = 1.0 degenerates to
///    bit-identical exact behavior.
///
/// Pending-slot correction. A bulk op's new slots are set only after its
/// scan, so when cell o of the op is measured, the `o` cells before it are
/// missing from the live slots above — per-word record() would already have
/// moved each of them to the top. Adding o to the count makes the batched
/// event stream event-for-event identical to the per-word one (a
/// fuzz-oracle invariant).

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "model/types.hpp"
#include "util/contracts.hpp"

namespace dbsp::locality {

using model::Addr;

class ReuseDistanceProfiler {
public:
    enum class Mode { kExact, kSampled };

    struct Event {
        bool cold;               ///< first touch: distance and time are infinite
        std::uint64_t distance;  ///< LRU stack distance (0 = consecutive reuse)
        std::uint64_t time;      ///< references since the previous touch (>= 1)
        bool sampled = true;     ///< false: skipped by the sampling filter
                                 ///< (only the reference count is meaningful)
    };

    ReuseDistanceProfiler() = default;
    ReuseDistanceProfiler(Mode mode, double sample_rate) {
        if (mode == Mode::kSampled && sample_rate < 1.0) {
            sample_all_ = false;
            // rate * 2^64, exact for every representable rate < 1.
            threshold_ = static_cast<std::uint64_t>(sample_rate * 18446744073709551616.0);
        }
    }

    /// Record one reference to \p x and return its reuse event.
    Event record(Addr x) {
        const std::uint64_t now = ++clock_;
        if (!sample_all_ && !address_sampled(x)) return Event{false, 0, 0, false};
        ++sampled_;
        return reference(x, now, now);
    }

    /// Record `touches` consecutive references to each cell of [begin, end)
    /// in ascending order — the linearization of one bulk machine op. The
    /// events reach fold(first, step, cells, touches) in stream order, as
    /// runs of `cells` consecutive cells: the cells share first's coldness
    /// and distance, cell j's first reference has reuse time
    /// first.time + j * step, and each cell's touches - 1 further references
    /// are immediate reuses (distance 0, time 1). References skipped by the
    /// sampling filter arrive as fold(unsampled event, 0, count, 1).
    /// Expanding every run yields exactly the per-word record() stream.
    template <typename Fold>
    void record_range(Addr begin, Addr end, unsigned touches, Fold&& fold) {
        if (begin >= end || touches == 0) return;
        if (!sample_all_) {
            record_range_sampled(begin, end, touches, fold);
        } else if (end <= kDirectLimit) {
            for (Addr x = begin; x < end; x = (x | kPageMask) + 1) page(x);
            record_range_exact(
                [this](Addr x) -> Entry& { return pages_[x >> kPageLog][x & kPageMask]; },
                begin, end, touches, fold);
        } else {
            record_range_exact([this](Addr x) -> Entry& { return entry(x); }, begin, end,
                               touches, fold);
        }
    }

    std::uint64_t accesses() const { return clock_; }
    std::uint64_t sampled_accesses() const { return sampled_; }
    std::uint64_t distinct_addresses() const { return distinct_; }
    /// Times the slot space was renumbered (compacted) so far.
    std::uint64_t renumberings() const { return renumberings_; }

private:
    /// An address's stack state: its slot (0 = never measured) and the final
    /// timestamp of its last reference.
    struct Entry {
        std::uint64_t stamp = 0;
        std::uint32_t slot = 0;
    };

    /// In exact mode, addresses below this are direct-mapped (machines back
    /// their address spaces with flat arrays, so this covers every simulated
    /// machine up to 64M words), in pages of 4096 entries allocated on first
    /// touch; rarer, larger addresses go through a hash map. Sampled mode
    /// hashes every address: only about rate of them are ever measured, so
    /// the footprint follows the sample, not the range.
    static constexpr Addr kDirectLimit = Addr{1} << 26;
    static constexpr unsigned kPageLog = 12;
    static constexpr Addr kPageMask = (Addr{1} << kPageLog) - 1;
    /// log2 of the slots per Fenwick block (512 slots, 8 bitmap words).
    static constexpr unsigned kBlockLog = 9;
    /// Initial slot space; a power of two, so every size is whole blocks.
    static constexpr std::uint64_t kMinSlots = 4096;
    /// Slot space per live or requested slot after a renumbering. A slot
    /// costs one bit, and a roomier space renumbers less often.
    static constexpr std::uint64_t kSpacePerSlot = 8;
    /// Widest gap, above the previous warm cell's old slot or below the top,
    /// that is popcounted directly rather than answered by the Fenwick tree.
    static constexpr std::uint64_t kNearSlots = 1024;

    static bool address_sampled_hash(Addr x, std::uint64_t threshold) {
        // SplitMix64 finalizer over the address: the SHARDS spatial filter.
        std::uint64_t z = x + 0x9e3779b97f4a7c15ull;
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
        return (z ^ (z >> 31)) < threshold;
    }
    /// Memoized SHARDS filter: one bit per direct-mapped address, built
    /// lazily as the touched address space grows. Bulk scans test 64
    /// addresses per word load (and skip all 64 on a zero word, the common
    /// case at low rates); far addresses hash directly.
    bool address_sampled(Addr x) {
        if (x < kDirectLimit) {
            grow_bits(x + 1);
            return (sample_bits_[x >> 6] >> (x & 63)) & 1;
        }
        return address_sampled_hash(x, threshold_);
    }

    void grow_bits(Addr end) {
        const std::size_t words = (static_cast<std::size_t>(end) + 63) / 64;
        if (sample_bits_.size() >= words) return;
        std::size_t cap = sample_bits_.empty() ? 16 : sample_bits_.size();
        while (cap < words) cap *= 2;
        const std::size_t old = sample_bits_.size();
        sample_bits_.resize(cap, 0);
        for (std::size_t w = old; w < cap; ++w) {
            std::uint64_t bits = 0;
            for (unsigned b = 0; b < 64; ++b) {
                if (address_sampled_hash((static_cast<Addr>(w) << 6) | b, threshold_)) {
                    bits |= std::uint64_t{1} << b;
                }
            }
            sample_bits_[w] = bits;
        }
    }

    /// The direct-mapped page holding \p x (< kDirectLimit), allocated on
    /// first touch.
    Entry* page(Addr x) {
        const std::size_t p = x >> kPageLog;
        if (p >= pages_.size()) pages_.resize(p + 1);
        if (!pages_[p]) {
            pages_[p] = std::make_unique<Entry[]>(std::size_t{1} << kPageLog);
            ++page_count_;
        }
        return pages_[p].get();
    }

    Entry& entry(Addr x) {
        if (sample_all_ && x < kDirectLimit) return page(x)[x & kPageMask];
        return far_[x];  // value-initialized: never touched
    }

    /// Add \p delta (modulo 2^64, so "negative" deltas work) to the
    /// population of block \p block.
    void fenwick_add(std::uint64_t block, std::uint64_t delta) {
        for (std::uint64_t i = block + 1; i < fenwick_.size(); i += i & (~i + 1)) {
            fenwick_[i] += delta;
        }
    }

    /// Clear the live slots [lo, hi). The Fenwick tree holds the blocks
    /// below the top block only: a rank query at slot s reads the blocks
    /// below s's, and s is never above the top. So the top block, where
    /// most clears and every new slot land, costs no tree update.
    void clear_slots(std::uint64_t lo, std::uint64_t hi) {
        live_ -= hi - lo;
        while (lo < hi) {
            const std::uint64_t block = lo >> kBlockLog;
            const std::uint64_t end = std::min(hi, (block + 1) << kBlockLog);
            if (block < top_block_) fenwick_add(block, lo - end);
            for (; lo < end; lo = (lo | 63) + 1) {
                const std::uint64_t w = std::min(end, (lo | 63) + 1) - lo;
                bits_[lo >> 6] &= ~((~std::uint64_t{0} >> (64 - w)) << (lo & 63));
            }
        }
    }

    /// Hand out the \p n slots above top_ as live; the blocks the top
    /// leaves behind enter the Fenwick tree.
    void push_slots(std::uint64_t n) {
        std::uint64_t lo = top_ + 1;
        top_ += n;
        live_ += n;
        for (; lo <= top_; lo = (lo | 63) + 1) {
            const std::uint64_t w = std::min(top_ + 1, (lo | 63) + 1) - lo;
            bits_[lo >> 6] |= (~std::uint64_t{0} >> (64 - w)) << (lo & 63);
        }
        for (; top_block_ < top_ >> kBlockLog; ++top_block_) {
            fenwick_add(top_block_,
                        count(top_block_ << kBlockLog, (top_block_ + 1) << kBlockLog));
        }
    }

    /// Set bits of \p x. std::popcount is a libgcc call unless the build
    /// targets a CPU with a popcount instruction; this inlines everywhere.
    static std::uint64_t bits_in(std::uint64_t x) {
        x -= (x >> 1) & 0x5555555555555555ull;
        x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
        x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0full;
        return (x * 0x0101010101010101ull) >> 56;
    }

    /// Live slots in [lo, hi).
    std::uint64_t count(std::uint64_t lo, std::uint64_t hi) const {
        if (lo >= hi) return 0;
        const std::uint64_t first = lo >> 6;
        const std::uint64_t last = (hi - 1) >> 6;
        const std::uint64_t high = ~std::uint64_t{0} >> (63 - ((hi - 1) & 63));
        std::uint64_t word = bits_[first] & (~std::uint64_t{0} << (lo & 63));
        std::uint64_t n = 0;
        for (std::uint64_t i = first; i < last; ++i) {
            n += bits_in(word);
            word = bits_[i + 1];
        }
        return n + bits_in(word & high);
    }

    /// Live slots above slot \p s: the rank query. Every live slot is at
    /// most top_, so a slot near the top counts (s, top_] directly, with no
    /// block count and no tree walk; touch logs, swaps and delivery records
    /// re-reference words a few hundred slots down.
    std::uint64_t above(std::uint64_t s) const {
        if (top_ - s <= kNearSlots) return count(s + 1, top_ + 1);
        const std::uint64_t block = s >> kBlockLog;
        std::uint64_t below = count(block << kBlockLog, s + 1);
        for (std::uint64_t i = block; i > 0; i &= i - 1) below += fenwick_[i];
        return live_ - below;
    }

    /// Make room for \p n new slots above top_. When the space is used up,
    /// renumber the live slots 1..live in order — each entry's new slot is
    /// one plus the live slots below its old one — and grow the space to
    /// kSpacePerSlot times the live count plus n, and to the entry count, so
    /// the pass over the entries is paid for by the slots handed out before
    /// the next one.
    void reserve(std::uint64_t n) {
        if (top_ + n < space_) return;
        ranks_.resize(bits_.size());
        std::uint64_t below = 0;
        for (std::size_t w = 0; w < bits_.size(); ++w) {
            ranks_[w] = below;
            below += bits_in(bits_[w]);
        }
        std::uint64_t found = 0;
        const auto renumber = [&](Entry& e) {
            if (e.slot == 0) return;
            const std::uint64_t low = (std::uint64_t{1} << (e.slot & 63)) - 1;
            e.slot = static_cast<std::uint32_t>(
                1 + ranks_[e.slot >> 6] + bits_in(bits_[e.slot >> 6] & low));
            ++found;
        };
        for (const auto& p : pages_) {
            if (!p) continue;
            for (Addr i = 0; i <= kPageMask; ++i) renumber(p[i]);
        }
        for (auto& kv : far_) renumber(kv.second);
        DBSP_ASSERT(below == live_ && found == live_ && live_ == distinct_);
        const std::uint64_t entries = (page_count_ << kPageLog) + far_.size();
        std::uint64_t space = std::max(space_, kMinSlots);
        while (space <= kSpacePerSlot * (live_ + n) || space < entries) space *= 2;
        DBSP_ASSERT(space <= (std::uint64_t{1} << 32));  // slots fit 32 bits
        space_ = space;
        bits_.assign(space >> 6, 0);
        fenwick_.assign((space >> kBlockLog) + 1, 0);
        live_ = 0;
        top_ = 0;
        top_block_ = 0;
        push_slots(below);
        ++renumberings_;
    }

    /// One measured reference to \p x — the first of a cell's references,
    /// at clock \p first — leaving \p last as its stamp (record() has
    /// first == last). The per-reference path of record() and of sampled
    /// bulk ops.
    Event reference(Addr x, std::uint64_t first, std::uint64_t last) {
        reserve(1);
        Entry& c = entry(x);
        Event e{true, 0, 0};
        if (c.slot == 0) {
            ++distinct_;
        } else {
            e = Event{false, 0, first - c.stamp};
            if (c.slot == top_) {  // already on top: distance 0, no bit moves
                c.stamp = last;
                return e;
            }
            e.distance = above(c.slot);
            clear_slots(c.slot, c.slot + 1);
        }
        push_slots(1);
        c.slot = static_cast<std::uint32_t>(top_);
        c.stamp = last;
        return e;
    }

    template <typename EntryRef, typename Fold>
    void record_range_exact(EntryRef&& entry_ref, Addr begin, Addr end, unsigned touches,
                            Fold& fold) {
        const std::uint64_t b = end - begin;
        const std::uint64_t t = touches;
        const std::uint64_t c0 = clock_;
        reserve(b);
        const std::uint64_t base = top_;  // cell o takes slot base + 1 + o
        // The last warm cell's old slot and the live slots above it; the
        // run [run_lo, prev] of contiguous old slots ending there is still
        // to be cleared (prev == 0: no warm cell yet).
        std::uint64_t prev = 0;
        std::uint64_t prev_above = 0;
        std::uint64_t run_lo = 0;
        // The pending fold run: `cells` cells from `first`, times stepping.
        Event first{true, 0, 0};
        std::uint64_t step = 0;
        std::uint64_t cells = 0;
        const auto emit = [&](const Event& e) {
            if (cells != 0 && e.cold == first.cold && e.distance == first.distance &&
                (e.cold || (std::bit_width(e.time) == std::bit_width(first.time) &&
                            (cells == 1 || e.time - first.time == cells * step)))) {
                if (cells == 1) step = e.time - first.time;
                ++cells;
                return;
            }
            if (cells != 0) fold(first, static_cast<std::int64_t>(step), cells, touches);
            first = e;
            step = 0;
            cells = 1;
        };
        for (std::uint64_t o = 0; o < b; ++o) {
            Entry& c = entry_ref(begin + o);
            const std::uint64_t s = c.slot;
            const std::uint64_t stamp = c.stamp;
            c.slot = static_cast<std::uint32_t>(base + 1 + o);
            c.stamp = c0 + (o + 1) * t;
            if (s == 0) {
                ++distinct_;
                emit(Event{true, 0, 0});
                continue;
            }
            std::uint64_t a;  // live old slots above s
            if (prev != 0 && s == prev + 1) {
                a = prev_above - 1;
            } else {
                if (prev != 0) clear_slots(run_lo, prev + 1);
                run_lo = s;
                if (prev != 0 && s > prev && s - prev <= kNearSlots) {
                    a = prev_above - count(prev + 1, s + 1);
                } else {
                    a = above(s);
                }
            }
            prev = s;
            prev_above = a;
            emit(Event{false, a + o, c0 + o * t + 1 - stamp});
        }
        if (prev != 0) clear_slots(run_lo, prev + 1);
        push_slots(b);
        fold(first, static_cast<std::int64_t>(step), cells, touches);
        clock_ = c0 + b * t;
        sampled_ += b * t;
    }

    template <typename Fold>
    void record_range_sampled(Addr begin, Addr end, unsigned touches, Fold& fold) {
        const std::uint64_t t = touches;
        const std::uint64_t c0 = clock_;
        std::uint64_t skipped = 0;  // coalesced unsampled references
        // Measure one sampled cell; stamps c0 + (x-begin)*t + 1 .. + t.
        const auto measure = [&](Addr x) {
            if (skipped != 0) {
                fold(Event{false, 0, 0, false}, 0, skipped, 1);
                skipped = 0;
            }
            sampled_ += t;
            const std::uint64_t first = c0 + (x - begin) * t + 1;
            fold(reference(x, first, first + t - 1), 0, 1, touches);
        };
        if (end <= kDirectLimit) {
            grow_bits(end);
            Addr x = begin;
            while (x < end) {
                const Addr chunk = x >> 6;
                const Addr chunk_end = std::min<Addr>(end, (chunk + 1) << 6);
                std::uint64_t bits = sample_bits_[chunk];
                bits &= ~std::uint64_t{0} << (x & 63);
                if ((chunk_end & 63) != 0) {
                    bits &= (std::uint64_t{1} << (chunk_end & 63)) - 1;
                }
                if (bits == 0) {  // the common case at low rates
                    skipped += (chunk_end - x) * t;
                    x = chunk_end;
                    continue;
                }
                Addr next = x;
                while (bits != 0) {
                    const Addr sx = (chunk << 6) | static_cast<Addr>(std::countr_zero(bits));
                    bits &= bits - 1;
                    skipped += (sx - next) * t;
                    measure(sx);
                    next = sx + 1;
                }
                skipped += (chunk_end - next) * t;
                x = chunk_end;
            }
        } else {
            for (Addr x = begin; x < end; ++x) {
                if (address_sampled(x)) {
                    measure(x);
                } else {
                    skipped += t;
                }
            }
        }
        if (skipped != 0) fold(Event{false, 0, 0, false}, 0, skipped, 1);
        clock_ = c0 + (end - begin) * t;
    }

    std::vector<std::unique_ptr<Entry[]>> pages_;  ///< direct-mapped addresses
    std::unordered_map<Addr, Entry> far_;    ///< the rest (all, in sampled mode)
    std::vector<std::uint64_t> bits_;        ///< live slots
    std::vector<std::uint64_t> fenwick_;     ///< block populations, 1-based
    std::vector<std::uint64_t> ranks_;       ///< renumbering scratch
    std::vector<std::uint64_t> sample_bits_;  ///< memoized filter, 1 bit/address
    std::uint64_t space_ = 0;  ///< slots 1..space_-1 exist
    std::uint64_t page_count_ = 0;
    std::uint64_t top_ = 0;   ///< highest slot handed out (the newest address's)
    std::uint64_t top_block_ = 0;  ///< top_'s block: the Fenwick tree holds those below
    std::uint64_t live_ = 0;       ///< set bits
    std::uint64_t clock_ = 0;
    std::uint64_t sampled_ = 0;
    std::uint64_t distinct_ = 0;
    std::uint64_t renumberings_ = 0;
    std::uint64_t threshold_ = 0;
    bool sample_all_ = true;
};

}  // namespace dbsp::locality
