#include "trace/aggregate.hpp"

#include <algorithm>
#include <cinttypes>
#include <string>
#include <vector>

namespace dbsp::trace {

namespace {

/// Split [begin, end) at level boundaries: fn(level, seg_begin, seg_end)
/// for each segment, ascending.
template <typename Fn>
void split_levels(Addr begin, Addr end, Fn&& fn) {
    while (begin < end) {
        const unsigned lev = level_of(begin);
        const Addr seg_end = std::min<Addr>(end, lev == 0 ? 1 : Addr{1} << lev);
        fn(lev, begin, seg_end);
        begin = seg_end;
    }
}

}  // namespace

void AggregateSink::bucket(unsigned level, std::uint64_t words, double cost) {
    words_ += words;
    attributed_ += cost;
    auto& l = levels_[level];
    l.words += words;
    l.cost += cost;
    auto& p = phases_[current_()];
    p.words += words;
    p.cost += cost;
}

void AggregateSink::access(Addr x, double cost) { bucket(level_of(x), 1, cost); }

void AggregateSink::access_range(std::span<const double> prefix, Addr begin, Addr end) {
    block_op(prefix, 0.0, 1, {{begin, end}});  // a one-touch bulk op
}

void AggregateSink::charge(double cost) { bucket(kNoLevel, 0, cost); }

void AggregateSink::block_op(std::span<const double> prefix, double /*delta*/,
                             unsigned touches, std::initializer_list<AddrRange> ranges) {
    // Each level segment costs touches * (prefix[end] - prefix[begin]).
    for (const AddrRange& r : ranges) {
        split_levels(r.begin, r.end, [&](unsigned lev, Addr a, Addr b) {
            bucket(lev, touches * (b - a),
                   static_cast<double>(touches) * (prefix[b] - prefix[a]));
        });
    }
}

void AggregateSink::block_transfer(Addr src, Addr dst, std::uint64_t len, double latency,
                                   double /*delta*/) {
    ++transfers_;
    transfer_volume_ += len;
    // The f()-latency is paid at the deeper of the two block ends (f is
    // nondecreasing, so the deeper end is the larger address); the pipelined
    // part costs one unit per destination cell.
    bucket(level_of(std::max(src, dst) + len - 1), 1, latency);
    split_levels(dst, dst + len, [&](unsigned lev, Addr a, Addr b) {
        bucket(lev, b - a, static_cast<double>(b - a));
    });
}

void AggregateSink::messages(std::uint64_t count) { messages_ += count; }

void AggregateSink::superstep(unsigned label, std::uint64_t /*tau*/, std::size_t /*h*/,
                              double /*comm_arg*/, double cost) {
    attributed_ += cost;
    auto& p = phases_[PhaseKey{Phase::kSuperstep, label}];
    ++p.scopes;
    p.cost += cost;
}

void AggregateSink::phase_begin(Phase phase, unsigned label) {
    stack_.push_back(PhaseKey{phase, label});
    ++phases_[stack_.back()].scopes;
}

void AggregateSink::phase_end(Phase /*phase*/) {
    if (!stack_.empty()) stack_.pop_back();
}

double AggregateSink::phase_cost(Phase p) const {
    double c = 0.0;
    for (const auto& [key, stats] : phases_) {
        if (key.phase == p) c += stats.cost;
    }
    return c;
}

namespace {

/// Right-aligned (left for the first column when \p left_first) text block
/// with per-column widths measured from the actual cells, so counts and
/// charge totals of any magnitude stay aligned — fixed printf widths used to
/// shear once a total passed 12 digits.
class CellBlock {
public:
    explicit CellBlock(bool left_first) : left_first_(left_first) {}

    void add(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

    void print(std::FILE* out) const {
        std::vector<std::size_t> widths;
        for (const auto& row : rows_) {
            if (widths.size() < row.size()) widths.resize(row.size());
            for (std::size_t c = 0; c < row.size(); ++c) {
                widths[c] = std::max(widths[c], row[c].size());
            }
        }
        for (const auto& row : rows_) {
            std::fputs(" ", out);
            for (std::size_t c = 0; c < row.size(); ++c) {
                const int w = static_cast<int>(widths[c]);
                if (c == 0 && left_first_) {
                    std::fprintf(out, " %-*s", w, row[c].c_str());
                } else {
                    std::fprintf(out, " %*s", w, row[c].c_str());
                }
            }
            std::fputs("\n", out);
        }
    }

private:
    bool left_first_;
    std::vector<std::vector<std::string>> rows_;
};

std::string fmt_u64(std::uint64_t v) {
    char buf[24];
    std::snprintf(buf, sizeof buf, "%" PRIu64, v);
    return buf;
}

std::string fmt_cost(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return buf;
}

std::string fmt_pct(double cost, double total) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.2f%%", total > 0.0 ? 100.0 * cost / total : 0.0);
    return buf;
}

std::string level_range(unsigned level) {
    if (level == 0) return "[0, 1)";
    char buf[32];
    std::snprintf(buf, sizeof buf, "[2^%u, 2^%u)", level - 1, level);
    return buf;
}

}  // namespace

void AggregateSink::print(std::FILE* out, double charged_cost) const {
    std::fprintf(out, "charge trace: total cost %.17g  (attributed %.17g)\n", charged_cost,
                 attributed_);
    if (transfers_ > 0 || messages_ > 0) {
        std::fprintf(out,
                     "  block transfers %" PRIu64 " (volume %" PRIu64
                     " words), messages delivered %" PRIu64 "\n",
                     transfers_, transfer_volume_, messages_);
    }

    if (!levels_.empty()) {
        std::fprintf(out, "per-level histogram:\n");
        CellBlock block(/*left_first=*/false);
        block.add({"level", "addresses", "words", "cost", "% total"});
        for (const auto& [level, stats] : levels_) {
            block.add({level == kNoLevel ? "(ops)" : fmt_u64(level),
                       level == kNoLevel ? "-" : level_range(level), fmt_u64(stats.words),
                       fmt_cost(stats.cost), fmt_pct(stats.cost, charged_cost)});
        }
        block.print(out);
    }

    if (!phases_.empty()) {
        std::fprintf(out, "per-phase breakdown:\n");
        CellBlock block(/*left_first=*/true);
        block.add({"phase", "label", "scopes", "words", "cost", "% total"});
        for (const auto& [key, stats] : phases_) {
            block.add({phase_name(key.phase), fmt_u64(key.label), fmt_u64(stats.scopes),
                       fmt_u64(stats.words), fmt_cost(stats.cost),
                       fmt_pct(stats.cost, charged_cost)});
        }
        block.print(out);
    }
}

std::string AggregateSink::to_string(double charged_cost) const {
    char* buf = nullptr;
    std::size_t size = 0;
    std::FILE* mem = open_memstream(&buf, &size);
    if (mem == nullptr) return {};
    print(mem, charged_cost);
    std::fclose(mem);
    std::string s(buf, size);
    std::free(buf);
    return s;
}

}  // namespace dbsp::trace
