#include "bt/primitives.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace dbsp::bt {

std::uint64_t pow2_at_most(std::uint64_t x) {
    DBSP_REQUIRE(x >= 1);
    std::uint64_t p = 1;
    while (p * 2 <= x) p *= 2;
    return p;
}

std::uint64_t chunk_words(const Machine& m, Addr deepest, std::uint64_t cap) {
    DBSP_REQUIRE(cap >= 1);
    const double f = m.function()(deepest);
    const auto f_floor = static_cast<std::uint64_t>(std::max(1.0, std::floor(f)));
    return pow2_at_most(std::min(f_floor, cap));
}

Word touch_region(Machine& m, Addr base, std::uint64_t n) {
    if (n == 0) return 0;
    DBSP_REQUIRE(base + n <= m.capacity());
    // Candidate staging chunk: balance the per-chunk transfer cost f(end)
    // against the chunk length, bounded by half the problem and by the free
    // space above `base` (the stage lives at [c, 2c)).
    const std::uint64_t c =
        (base >= 4 && n >= 2) ? chunk_words(m, base + n - 1, std::min(n / 2, base / 2)) : 0;
    if (c < 8 || n <= 32) {
        // Direct reads. Reached either at the top of the recursion tower
        // (where f is tiny, so each read is cheap) or for trivially small
        // inputs.
        Word acc = 0;
        for (std::uint64_t i = 0; i < n; ++i) acc ^= m.read(base + i);
        return acc;
    }
    Word acc = 0;
    for (std::uint64_t off = 0; off < n; off += c) {
        const std::uint64_t len = std::min(c, n - off);
        m.block_copy(base + off, c, len);
        acc ^= touch_region(m, c, len);  // recursion stages strictly below c
    }
    return acc;
}

StageTower::StageTower(const Machine& m, Addr stage, std::uint64_t chunk,
                       std::uint64_t align, std::uint64_t lanes)
    : stage(stage), end(stage + lanes * chunk), lanes(lanes) {
    DBSP_REQUIRE(align >= 1);
    DBSP_REQUIRE(chunk >= align && chunk % align == 0);
    DBSP_REQUIRE(lanes >= 1);
    DBSP_REQUIRE(end <= m.capacity());
    // Raw level sizes: s_{k+1} ~ f(s_k), aligned, until levels stop paying
    // for themselves. Below 32 words a next level would hold under 8 words,
    // which the loop rejects anyway, and its cap prev / 4 could be 0.
    levels.push_back(Level{0, chunk});
    while (true) {
        const std::uint64_t prev = levels.back().capacity;
        if (prev < 32) break;
        std::uint64_t nxt = chunk_words(m, stage + lanes * prev, prev / 4);
        nxt -= nxt % align;
        if (nxt < align || nxt < 8 || 4 * nxt > prev) break;
        levels.push_back(Level{0, nxt});
    }
    // Inner levels keep their size; the outermost absorbs the remainder so
    // each lane's tower occupies exactly chunk words.
    std::uint64_t inner_total = 0;
    for (std::size_t k = 1; k < levels.size(); ++k) inner_total += levels[k].capacity;
    DBSP_ASSERT(inner_total < chunk);
    levels[0].capacity = chunk - inner_total;
    // Depth-interleaved layout: all lanes' level-(K-1) buffers first, then
    // all level-(K-2) buffers, ..., outermost last.
    Addr at = stage;
    for (std::size_t k = levels.size(); k-- > 0;) {
        levels[k].addr = at;
        at += lanes * levels[k].capacity;
    }
}

StagedReader::StagedReader(Machine& m, const StageTower& tower, std::uint64_t lane,
                           Addr begin, std::uint64_t len)
    : m_(m), tower_(tower), lane_(lane), inner_(tower.levels.size() - 1),
      inner_addr_(tower.addr(inner_, lane)), lo_(tower.levels.size(), 0),
      hi_(tower.levels.size(), 0) {
    DBSP_REQUIRE(lane < tower.lanes);
    reset(begin, len);
}

void StagedReader::reset(Addr begin, std::uint64_t len) {
    DBSP_REQUIRE(begin + len <= m_.capacity());
    DBSP_REQUIRE(tower_.end <= begin || begin + len <= tower_.stage);
    begin_ = begin;
    len_ = len;
    pos_ = 0;
    std::fill(lo_.begin(), lo_.end(), 0);
    std::fill(hi_.begin(), hi_.end(), 0);
}

void StagedReader::refill_to_pos() {
    // A record never straddles windows when every capacity is a multiple of
    // the record size and advance() moves in whole records, so a miss always
    // lands exactly at the consumption point.
    DBSP_ASSERT(pos_ >= hi_[inner_]);
    for (std::size_t k = 0; k <= inner_; ++k) {
        if (pos_ >= hi_[k]) refill(k);
    }
}

void StagedReader::refill(std::size_t level) {
    DBSP_ASSERT(pos_ < len_);
    lo_[level] = pos_;
    const std::uint64_t parent_hi = (level == 0) ? len_ : hi_[level - 1];
    hi_[level] = std::min(pos_ + tower_.levels[level].capacity, parent_hi);
    const Addr src = (level == 0) ? begin_ + pos_
                                  : tower_.addr(level - 1, lane_) + (pos_ - lo_[level - 1]);
    m_.block_copy(src, tower_.addr(level, lane_), hi_[level] - lo_[level]);
}

StagedWriter::StagedWriter(Machine& m, const StageTower& tower, std::uint64_t lane,
                           Addr begin, std::uint64_t len)
    : m_(m), tower_(tower), lane_(lane), inner_(tower.levels.size() - 1),
      inner_addr_(tower.addr(inner_, lane)),
      inner_capacity_(tower.levels.back().capacity), fill_(tower.levels.size(), 0) {
    DBSP_REQUIRE(lane < tower.lanes);
    reset(begin, len);
}

StagedWriter::~StagedWriter() { flush(); }

void StagedWriter::reset(Addr begin, std::uint64_t len) {
    flush();
    DBSP_REQUIRE(begin + len <= m_.capacity());
    DBSP_REQUIRE(tower_.end <= begin || begin + len <= tower_.stage);
    begin_ = begin;
    len_ = len;
    pushed_ = 0;
    flushed_ = 0;
}

void StagedWriter::spill(std::size_t level) {
    if (fill_[level] == 0) return;
    if (level == 0) {
        m_.block_copy(tower_.addr(0, lane_), begin_ + flushed_, fill_[0]);
        flushed_ += fill_[0];
        fill_[0] = 0;
        return;
    }
    const std::size_t parent = level - 1;
    if (tower_.levels[parent].capacity - fill_[parent] < fill_[level]) {
        spill(parent);
    }
    m_.block_copy(tower_.addr(level, lane_), tower_.addr(parent, lane_) + fill_[parent],
                  fill_[level]);
    fill_[parent] += fill_[level];
    fill_[level] = 0;
}

void StagedWriter::flush() {
    for (std::size_t k = fill_.size(); k-- > 0;) spill(k);
}

}  // namespace dbsp::bt
