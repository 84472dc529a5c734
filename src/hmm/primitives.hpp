#pragma once

/// \file primitives.hpp
/// Reference HMM computations used by the benchmarks:
///  * touch_all — the touching problem of Fact 1/Fact 2: bring each of the
///    first n cells to the top of memory. On HMM there is no block transfer,
///    so the best possible is a plain scan costing Theta(n f(n)).
///  * oblivious kernels (merge sort, naive matrix multiply) that
///    ignore the hierarchy; they supply the "flat-memory algorithm run on a
///    hierarchical machine" baselines that the introduction argues against.

#include "hmm/machine.hpp"

namespace dbsp::hmm {

/// Touch cells [0, n): read each once. Cost: sum_{x<n} f(x) = Theta(n f(n)).
/// Returns the XOR of the touched words (forces real reads).
Word touch_all(Machine& m, std::uint64_t n);

/// Hierarchy-oblivious comparison-based merge sort of cells [0, n), using
/// [n, 2n) as scratch; every compare touches the cells where they live, so
/// the cost is Theta(n log n * f(n)) — the classic "RAM algorithm on HMM"
/// slowdown the paper's introduction describes.
void oblivious_merge_sort(Machine& m, std::uint64_t n);

/// Hierarchy-oblivious schoolbook multiply of two s x s row-major matrices at
/// addresses a and b into c (disjoint); cost Theta(s^3 f(3 s^2))-ish.
void oblivious_matmul(Machine& m, model::Addr a, model::Addr b, model::Addr c,
                      std::uint64_t s);

}  // namespace dbsp::hmm
