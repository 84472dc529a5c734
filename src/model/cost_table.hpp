#pragma once

/// \file cost_table.hpp
/// Cached prefix sums of an access function. The machine simulators charge
/// bulk operations (scans, block swaps) the *exact* per-cell sum
/// sum_{x=a}^{b-1} f(x); this table makes each such charge O(1) after an O(n)
/// one-time build, keeping the cost accounting both exact and fast.
///
/// The prefix array is held behind a shared_ptr so that a table built once
/// for a large capacity can be sliced into views for smaller capacities
/// without rebuilding (see CostTableCache): the prefix loop is a running sum,
/// so the first n+1 entries of a larger table are bit-identical to a fresh
/// build at capacity n.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "model/access_function.hpp"
#include "util/contracts.hpp"

namespace dbsp::model {

/// Fold the per-cell costs prefix[x + 1] - prefix[x] of [begin, end) into
/// \p acc one cell at a time, in ascending address order: the one range fold
/// the charged cost bits depend on. CostTable::accumulate checks its bounds
/// and calls it; a loop that keeps a table's prefix pointer in a register
/// (core::HmmShardAccessor) calls it directly.
inline double accumulate_cells(const double* prefix, std::uint64_t begin, std::uint64_t end,
                               double acc) {
    for (std::uint64_t x = begin; x < end; ++x) acc += prefix[x + 1] - prefix[x];
    return acc;
}

class CostTable {
public:
    /// Build prefix sums of \p f over addresses [0, capacity).
    CostTable(AccessFunction f, std::uint64_t capacity);

    /// View of \p parent restricted to the first \p capacity addresses; shares
    /// the parent's prefix storage (no rebuild, identical values).
    CostTable(const CostTable& parent, std::uint64_t capacity);

    /// Access cost of a single address; requires x < capacity().
    double cost(std::uint64_t x) const {
        DBSP_REQUIRE(x < capacity_);
        return prefix_[x + 1] - prefix_[x];
    }

    /// Exact sum of f over the address range [begin, end); requires
    /// begin <= end <= capacity().
    double range_cost(std::uint64_t begin, std::uint64_t end) const {
        DBSP_REQUIRE(begin <= end);
        DBSP_REQUIRE(end <= capacity_);
        return prefix_[end] - prefix_[begin];
    }

    /// Fold the per-cell costs of [begin, end) into \p acc one cell at a time,
    /// in ascending address order. This reproduces bit for bit the floating-
    /// point sum a caller would get from `for (x) acc += cost(x)`, which is
    /// what keeps the bulk accessor fast path's charged totals identical to
    /// the per-word path (range_cost() is a single subtraction and rounds
    /// differently).
    double accumulate(std::uint64_t begin, std::uint64_t end, double acc) const {
        DBSP_REQUIRE(begin <= end);
        DBSP_REQUIRE(end <= capacity_);
        return accumulate_cells(prefix_, begin, end, acc);
    }

    /// Fact 1 quantity: time to access the first n cells = range_cost(0, n),
    /// which the paper shows is Theta(n f(n)) for (2,c)-uniform f.
    double scan_cost(std::uint64_t n) const { return range_cost(0, n); }

    std::uint64_t capacity() const { return capacity_; }
    const AccessFunction& function() const { return f_; }

    /// The prefix-sum array itself (capacity() + 1 entries); lets a trace
    /// sink replay accumulate()'s exact per-word fold without re-entering
    /// the table on every word.
    std::span<const double> prefix() const {
        return {prefix_, static_cast<std::size_t>(capacity_) + 1};
    }

private:
    AccessFunction f_;
    std::uint64_t capacity_;
    std::shared_ptr<const std::vector<double>> storage_;  ///< shared with slices
    const double* prefix_;  ///< storage_->data(); prefix_[i] = sum of f over [0, i)
};

}  // namespace dbsp::model
