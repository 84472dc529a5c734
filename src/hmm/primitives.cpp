#include "hmm/primitives.hpp"

#include <vector>

#include "util/contracts.hpp"

namespace dbsp::hmm {

Word touch_all(Machine& m, std::uint64_t n) {
    DBSP_REQUIRE(n <= m.capacity());
    Word acc = 0;
    for (std::uint64_t x = 0; x < n; ++x) acc ^= m.read(x);
    return acc;
}

namespace {

void merge_runs(Machine& m, std::uint64_t lo, std::uint64_t mid, std::uint64_t hi,
                std::uint64_t scratch) {
    std::uint64_t i = lo, j = mid, k = scratch;
    while (i < mid && j < hi) {
        const Word a = m.read(i);
        const Word b = m.read(j);
        m.charge(1.0);  // comparison
        if (a <= b) {
            m.write(k++, a);
            ++i;
        } else {
            m.write(k++, b);
            ++j;
        }
    }
    while (i < mid) m.write(k++, m.read(i++));
    while (j < hi) m.write(k++, m.read(j++));
    m.copy_block(scratch, lo, hi - lo);
}

}  // namespace

void oblivious_merge_sort(Machine& m, std::uint64_t n) {
    DBSP_REQUIRE(2 * n <= m.capacity());
    for (std::uint64_t width = 1; width < n; width *= 2) {
        for (std::uint64_t lo = 0; lo + width < n; lo += 2 * width) {
            const std::uint64_t mid = lo + width;
            const std::uint64_t hi = std::min(lo + 2 * width, n);
            merge_runs(m, lo, mid, hi, n);
        }
    }
}

void oblivious_matmul(Machine& m, model::Addr a, model::Addr b, model::Addr c,
                      std::uint64_t s) {
    DBSP_REQUIRE(a + s * s <= m.capacity());
    DBSP_REQUIRE(b + s * s <= m.capacity());
    DBSP_REQUIRE(c + s * s <= m.capacity());
    for (std::uint64_t i = 0; i < s; ++i) {
        for (std::uint64_t j = 0; j < s; ++j) {
            Word acc = 0;
            for (std::uint64_t k = 0; k < s; ++k) {
                acc += m.read(a + i * s + k) * m.read(b + k * s + j);
                m.charge(1.0);  // multiply-add
            }
            m.write(c + i * s + j, acc);
        }
    }
}

}  // namespace dbsp::hmm
