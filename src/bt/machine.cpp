#include "bt/machine.hpp"

#include <algorithm>
#include <bit>

#include "model/cost_table_cache.hpp"
#include "report/metrics.hpp"
#include "util/contracts.hpp"

namespace dbsp::bt {

Machine::Machine(AccessFunction f, std::uint64_t capacity)
    : table_(model::CostTableCache::global().get(f, capacity)), memory_(capacity, 0) {}

// Telemetry accumulates in plain members and is published to the registry in
// one batch per machine lifetime — same discipline (and same reason) as
// hmm::Machine::note_bulk: per-op atomics are unaffordable on range ops that
// often move single message records. Per-word read()/write() carry no hook.
void Machine::publish_metrics() {
    if (range_ops_ == 0 && block_transfers_ == 0) return;
    static auto& ops = report::metric_counter("bt.range_ops");
    static auto& range_words = report::metric_counter("bt.range_words");
    static auto& transfers = report::metric_counter("bt.block_transfers");
    static auto& transfer_words = report::metric_counter("bt.transfer_words");
    static auto& transfer_size = report::metric_histogram("bt.transfer_size");
    ops.add(range_ops_);
    range_words.add(range_words_);
    transfers.add(block_transfers_);
    transfer_words.add(transfer_words_);
    for (unsigned b = 0; b < transfer_size_by_bucket_.size(); ++b) {
        if (transfer_size_by_bucket_[b] != 0) {
            transfer_size.add_to_bucket(b, transfer_size_by_bucket_[b]);
        }
    }
    range_ops_ = 0;
    range_words_ = 0;
    block_transfers_ = 0;
    transfer_words_ = 0;
    transfer_size_by_bucket_.fill(0);
}

Machine::~Machine() { publish_metrics(); }

Word Machine::traced_read_tail(Addr x) {
    trace_->access(x, table_->cost(x));
    return memory_[x];
}

void Machine::traced_write_tail(Addr x, Word value) {
    trace_->access(x, table_->cost(x));
    memory_[x] = value;
}

void Machine::read_range(Addr x, std::span<Word> out) {
    if (out.empty()) return;
    DBSP_REQUIRE(x + out.size() <= capacity());
    cost_ = table_->accumulate(x, x + out.size(), cost_);
    ++range_ops_;
    range_words_ += out.size();
    if (trace_ != nullptr) trace_->access_range(table_->prefix(), x, x + out.size());
    std::copy_n(memory_.begin() + static_cast<std::ptrdiff_t>(x), out.size(), out.begin());
}

void Machine::write_range(Addr x, std::span<const Word> values) {
    if (values.empty()) return;
    DBSP_REQUIRE(x + values.size() <= capacity());
    cost_ = table_->accumulate(x, x + values.size(), cost_);
    ++range_ops_;
    range_words_ += values.size();
    if (trace_ != nullptr) trace_->access_range(table_->prefix(), x, x + values.size());
    std::copy_n(values.begin(), values.size(),
                memory_.begin() + static_cast<std::ptrdiff_t>(x));
}

void Machine::block_copy(Addr src, Addr dst, std::uint64_t len) {
    charge_transfer(src, dst, len);
    std::copy(memory_.begin() + static_cast<std::ptrdiff_t>(src),
              memory_.begin() + static_cast<std::ptrdiff_t>(src + len),
              memory_.begin() + static_cast<std::ptrdiff_t>(dst));
}

void Machine::charge(double c) {
    DBSP_REQUIRE(c >= 0.0);
    cost_ += c;
    if (trace_ != nullptr) trace_->charge(c);
}

void Machine::charge_transfer(Addr src, Addr dst, std::uint64_t len) {
    if (len == 0) return;
    DBSP_REQUIRE(src + len <= capacity() && dst + len <= capacity());
    DBSP_REQUIRE(src + len <= dst || dst + len <= src);  // disjoint, per the model
    const double latency = std::max(table_->cost(src + len - 1), table_->cost(dst + len - 1));
    const double delta = latency + static_cast<double>(len);
    cost_ += delta;
    transfer_volume_ += static_cast<double>(len);
    ++block_transfers_;
    transfer_words_ += len;
    transfer_size_by_bucket_[std::bit_width(len)] += 1;
    if (trace_ != nullptr) trace_->block_transfer(src, dst, len, latency, delta);
}

void Machine::merge_shard(const ShardAccount& account) { cost_ += account.cost; }

}  // namespace dbsp::bt
