#pragma once

/// \file cost_table_cache.hpp
/// Process-wide cache of CostTable prefix arrays. A sweep over
/// n = 2^10 ... 2^22 with three access functions used to rebuild an
/// O(capacity) prefix array for every (function, size) data point; the cache
/// builds each function's table once at the largest capacity seen and hands
/// out shared (or sliced) views for every other request. Slices are exact:
/// the prefix loop is a running sum, so the first n+1 entries of a larger
/// table equal a fresh build at capacity n bit for bit.
///
/// Identity is established with AccessFunction::key() — family tag and
/// parameter for the closed-form functions, name plus a charged-value probe
/// fingerprint for customs — so two lambdas that merely share a name cannot
/// alias each other's tables.
///
/// Thread-safe: the parallel benchmark harness hits it from every worker.
///
/// Bounded: the cache holds at most kMaxEntries tables and evicts the
/// least-recently-used key beyond that. One bench run touches a handful of
/// access functions, but a long-lived dbsp_serve process sees an unbounded
/// stream of distinct fingerprints, and every table is O(capacity) words.
/// Eviction is invisible to charged costs: a re-request after eviction
/// rebuilds the identical prefix array (the build is a deterministic running
/// sum of f), so only the builds/hits split changes, never a charged value.
///
/// Lifetime: every table is handed out as a shared_ptr<const CostTable>, so
/// clear() and eviction drop only the cache's *own* references. A table a
/// concurrent worker already holds stays alive and immutable for as long as
/// it keeps the pointer, so one worker calling clear() cannot invalidate
/// another worker's table (regression test:
/// CostTableCache.DisableInOneWorkerCannotInvalidateConcurrentTables).

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "model/cost_table.hpp"

namespace dbsp::model {

class CostTableCache {
public:
    /// The one instance, used by hmm::Machine / bt::Machine.
    static CostTableCache& global();

    /// A table for \p f over [0, capacity): cached, sliced from a larger
    /// cached table, or freshly built (and cached) as needed.
    std::shared_ptr<const CostTable> get(const AccessFunction& f, std::uint64_t capacity);

    struct Stats {
        std::uint64_t builds = 0;     ///< O(capacity) prefix constructions
        std::uint64_t hits = 0;       ///< exact-capacity reuses
        std::uint64_t slices = 0;     ///< smaller-capacity views of a cached table
        std::uint64_t evictions = 0;  ///< LRU drops after exceeding kMaxEntries
        /// Table builds a cacheless implementation would have performed.
        std::uint64_t builds_avoided() const { return hits + slices; }
    };
    /// The process-wide cost_table.{builds,hits,slices,evictions} registry
    /// counters, which count this instance's events since process start.
    Stats stats() const;

    /// Drop all cached tables (the counters are kept).
    void clear();

    /// LRU bound on distinct cached keys: far above the handful of access
    /// functions any single experiment uses, small enough that a serve
    /// process hosting adversarially many distinct custom functions stays
    /// bounded.
    static constexpr std::size_t kMaxEntries = 64;

private:
    CostTableCache() = default;

    struct Entry {
        std::shared_ptr<const CostTable> table;
        std::list<std::string>::iterator lru_pos;  ///< position in lru_
    };

    /// Mark \p it most-recently-used. Caller holds mutex_.
    void touch(std::unordered_map<std::string, Entry>::iterator it);
    /// Evict least-recently-used entries until at most kMaxEntries remain.
    /// Caller holds mutex_.
    void enforce_cap();

    mutable std::mutex mutex_;
    /// Keys ordered most- to least-recently used; back() evicts first.
    std::list<std::string> lru_;
    std::unordered_map<std::string, Entry> tables_;
};

}  // namespace dbsp::model
