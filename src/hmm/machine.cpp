#include "hmm/machine.hpp"

#include <algorithm>
#include <bit>

#include "model/cost_table_cache.hpp"
#include "report/metrics.hpp"
#include "util/contracts.hpp"

namespace dbsp::hmm {

Machine::Machine(AccessFunction f, std::uint64_t capacity)
    : table_(model::CostTableCache::global().get(f, capacity)), memory_(capacity, 0) {}

// Telemetry discipline: the bulk delivery path often moves single message
// records (a handful of words), leaving only ~15 cycles of real work per op —
// even one relaxed atomic RMW per op costs tens of percent there (measured on
// the bench_micro E3 workload). So the hot path does three plain member adds
// and the registry sees one batched update per machine lifetime, here.
void Machine::note_bulk(Addr deepest, std::uint64_t words) {
    ++bulk_ops_;
    bulk_words_ += words;
    bulk_words_by_level_[std::bit_width(deepest)] += words;
}

void Machine::publish_metrics() {
    if (words_touched_ != 0) {
        static auto& touched = report::metric_counter("hmm.words_touched");
        touched.add(words_touched_);
        words_touched_ = 0;
    }
    if (bulk_ops_ == 0) return;
    static auto& ops = report::metric_counter("hmm.bulk_ops");
    static auto& total = report::metric_counter("hmm.bulk_words");
    static auto& by_level = report::metric_histogram("hmm.words_by_level");
    ops.add(bulk_ops_);
    total.add(bulk_words_);
    for (unsigned b = 0; b < bulk_words_by_level_.size(); ++b) {
        if (bulk_words_by_level_[b] != 0) by_level.add_to_bucket(b, bulk_words_by_level_[b]);
    }
    bulk_ops_ = 0;
    bulk_words_ = 0;
    bulk_words_by_level_.fill(0);
}

Machine::~Machine() { publish_metrics(); }

Word Machine::read(Addr x) {
    DBSP_REQUIRE(x < capacity());
    cost_ += table_->cost(x);
    ++words_touched_;
    return memory_[x];
}

void Machine::write(Addr x, Word value) {
    DBSP_REQUIRE(x < capacity());
    cost_ += table_->cost(x);
    ++words_touched_;
    memory_[x] = value;
}

void Machine::read_range(Addr x, std::span<Word> out) {
    if (out.empty()) return;
    DBSP_REQUIRE(x + out.size() <= capacity());
    cost_ = table_->accumulate(x, x + out.size(), cost_);
    words_touched_ += out.size();
    if (trace_ != nullptr) trace_->access_range(table_->prefix(), x, x + out.size());
    note_bulk(x + out.size() - 1, out.size());
    std::copy_n(memory_.begin() + static_cast<std::ptrdiff_t>(x), out.size(), out.begin());
}

void Machine::write_range(Addr x, std::span<const Word> values) {
    if (values.empty()) return;
    DBSP_REQUIRE(x + values.size() <= capacity());
    cost_ = table_->accumulate(x, x + values.size(), cost_);
    words_touched_ += values.size();
    if (trace_ != nullptr) trace_->access_range(table_->prefix(), x, x + values.size());
    note_bulk(x + values.size() - 1, values.size());
    std::copy_n(values.begin(), values.size(),
                memory_.begin() + static_cast<std::ptrdiff_t>(x));
}

void Machine::swap_blocks(Addr a, Addr b, std::uint64_t len) {
    charge_swap_blocks(a, b, len);
    std::swap_ranges(memory_.begin() + static_cast<std::ptrdiff_t>(a),
                     memory_.begin() + static_cast<std::ptrdiff_t>(a + len),
                     memory_.begin() + static_cast<std::ptrdiff_t>(b));
}

void Machine::copy_block(Addr src, Addr dst, std::uint64_t len) {
    if (len == 0) return;
    DBSP_REQUIRE(src + len <= capacity() && dst + len <= capacity());
    DBSP_REQUIRE(src + len <= dst || dst + len <= src);  // disjoint
    const double delta =
        table_->range_cost(src, src + len) + table_->range_cost(dst, dst + len);
    cost_ += delta;
    words_touched_ += 2 * len;
    if (trace_ != nullptr) {
        trace_->block_op(table_->prefix(), delta, 1, {{src, src + len}, {dst, dst + len}});
    }
    note_bulk(std::max(src, dst) + len - 1, 2 * len);
    std::copy(memory_.begin() + static_cast<std::ptrdiff_t>(src),
              memory_.begin() + static_cast<std::ptrdiff_t>(src + len),
              memory_.begin() + static_cast<std::ptrdiff_t>(dst));
}

void Machine::charge(double c) {
    DBSP_REQUIRE(c >= 0.0);
    cost_ += c;
    if (trace_ != nullptr) trace_->charge(c);
}

void Machine::charge_swap_blocks(Addr a, Addr b, std::uint64_t len) {
    if (len == 0) return;
    DBSP_REQUIRE(a + len <= capacity() && b + len <= capacity());
    DBSP_REQUIRE(a + len <= b || b + len <= a);  // disjoint
    const double delta =
        2.0 * (table_->range_cost(a, a + len) + table_->range_cost(b, b + len));
    cost_ += delta;
    words_touched_ += 4 * len;
    if (trace_ != nullptr) {
        trace_->block_op(table_->prefix(), delta, 2, {{a, a + len}, {b, b + len}});
    }
    note_bulk(std::max(a, b) + len - 1, 4 * len);
}

void Machine::merge_shard(const ShardAccount& account) {
    cost_ += account.cost;
    words_touched_ += account.words_touched;
    // Only note_bulk fills the bulk fields, and it counts every op: an account
    // without one (every step execution's) has nothing more to add.
    if (account.bulk_ops == 0) return;
    bulk_ops_ += account.bulk_ops;
    bulk_words_ += account.bulk_words;
    for (unsigned b = 0; b < account.bulk_words_by_level.size(); ++b) {
        bulk_words_by_level_[b] += account.bulk_words_by_level[b];
    }
}

}  // namespace dbsp::hmm
