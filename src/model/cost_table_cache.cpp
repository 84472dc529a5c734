#include "model/cost_table_cache.hpp"

#include "report/metrics.hpp"

namespace dbsp::model {

namespace {

// The registry mirror of stats_: survives stats-struct resets and feeds the
// "metrics" section of JSON artifacts. Updated while mutex_ is already held,
// so the relaxed adds cost nothing measurable.
report::Counter& builds_metric() {
    static auto& c = report::metric_counter("cost_table.builds");
    return c;
}
report::Counter& hits_metric() {
    static auto& c = report::metric_counter("cost_table.hits");
    return c;
}
report::Counter& slices_metric() {
    static auto& c = report::metric_counter("cost_table.slices");
    return c;
}
report::Counter& evictions_metric() {
    static auto& c = report::metric_counter("cost_table.evictions");
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
                ++stats_.hits;
                hits_metric().add();
                return it->second.table;
            }
            ++stats_.slices;
            slices_metric().add();
            return std::make_shared<CostTable>(*it->second.table, capacity);
        }
        ++stats_.builds;
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
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
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
        ++stats_.evictions;
        evictions_metric().add();
    }
}

}  // namespace dbsp::model
