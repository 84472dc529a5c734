#include "model/cost_table_cache.hpp"

#include <string_view>

#include "report/metrics.hpp"

namespace dbsp::model {

namespace {

// The cache's only event counts: stats() reads them, and they feed the
// "metrics" section of JSON artifacts. Each registers at its first event, so
// a count that never fired stays out of artifacts. Updated while mutex_ is
// already held, so the relaxed adds cost nothing measurable.
constexpr std::string_view kBuilds = "cost_table.builds";
constexpr std::string_view kHits = "cost_table.hits";
constexpr std::string_view kSlices = "cost_table.slices";
constexpr std::string_view kEvictions = "cost_table.evictions";

report::Counter& builds_metric() {
    static auto& c = report::metric_counter(kBuilds);
    return c;
}
report::Counter& hits_metric() {
    static auto& c = report::metric_counter(kHits);
    return c;
}
report::Counter& slices_metric() {
    static auto& c = report::metric_counter(kSlices);
    return c;
}
report::Counter& evictions_metric() {
    static auto& c = report::metric_counter(kEvictions);
    return c;
}

}  // namespace

CostTableCache& CostTableCache::global() {
    static CostTableCache cache;
    return cache;
}

std::shared_ptr<const CostTable> CostTableCache::get(const AccessFunction& f,
                                                     std::uint64_t capacity) {
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = tables_.find(f.key());
        if (it != tables_.end() && it->second.table->capacity() >= capacity) {
            touch(it);
            if (it->second.table->capacity() == capacity) {
                hits_metric().add();
                return it->second.table;
            }
            slices_metric().add();
            return std::make_shared<CostTable>(*it->second.table, capacity);
        }
        builds_metric().add();
    }
    // Build outside the lock: prefix construction is O(capacity) and must not
    // serialize unrelated workers. A racing build of the same table wastes one
    // build but stays correct (last insert wins; both tables are identical).
    auto table = std::make_shared<const CostTable>(f, capacity);
    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = tables_.try_emplace(f.key());
    if (inserted) {
        it->second.lru_pos = lru_.insert(lru_.begin(), it->first);
    } else {
        touch(it);
    }
    Entry& entry = it->second;
    if (!entry.table || entry.table->capacity() < capacity) entry.table = table;
    enforce_cap();
    return table;
}

CostTableCache::Stats CostTableCache::stats() const {
    // Read from a snapshot: looking a counter up by name would register it.
    Stats s;
    for (const report::MetricValue& m : report::Registry::global().snapshot()) {
        if (m.name == kBuilds) s.builds = m.count;
        if (m.name == kHits) s.hits = m.count;
        if (m.name == kSlices) s.slices = m.count;
        if (m.name == kEvictions) s.evictions = m.count;
    }
    return s;
}

void CostTableCache::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    tables_.clear();
    lru_.clear();
}

void CostTableCache::touch(std::unordered_map<std::string, Entry>::iterator it) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
}

void CostTableCache::enforce_cap() {
    while (tables_.size() > kMaxEntries) {
        tables_.erase(lru_.back());
        lru_.pop_back();
        evictions_metric().add();
    }
}

}  // namespace dbsp::model
