#include "locality/profile.hpp"

#include <algorithm>
#include <cmath>

#include "util/table.hpp"

namespace dbsp::locality {

namespace {

// A plain function, not a lambda: GCC constant-evaluates a constexpr-able
// initializer, and its compile-time log2 is correctly rounded, which differs
// from the library's std::log2 in the last bit for some d (1620, 3241 and
// 6483 with GCC 12 and glibc 2.36). Called at startup, the fill returns the
// library's bits.
std::array<double, kLog2Entries> fill_log2_table() {
    std::array<double, kLog2Entries> table{};
    for (std::size_t d = 0; d < kLog2Entries; ++d) {
        table[d] = std::log2(static_cast<double>(d) + 1.0);
    }
    return table;
}

}  // namespace

const std::array<double, kLog2Entries> kLog2Plus1 = fill_log2_table();

double LocalityProfile::locality_score() const {
    const std::uint64_t finite = sampled_accesses - cold_misses;
    return finite > 0 ? score_total() / static_cast<double>(finite) : 0.0;
}

double LocalityProfile::hit_fraction(unsigned level) const {
    if (sampled_accesses == 0) return 0.0;
    std::uint64_t hits = 0;
    for (unsigned b = 0; b <= std::min(level, kBuckets - 1); ++b) hits += distance_count[b];
    return static_cast<double>(hits) / static_cast<double>(sampled_accesses);
}

double LocalityProfile::working_set(unsigned j) const {
    if (sampled_accesses == 0) return 0.0;
    const double tau = std::ldexp(1.0, static_cast<int>(j));
    // Denning-Schwartz: w(tau) = (1/T) sum_i min(r_i, tau); a reuse time r
    // lands in bucket bit_width(r), so r < tau = 2^j iff its bucket is <= j.
    double sum = 0.0;
    std::uint64_t truncated = cold_misses;  // cold references count tau
    for (unsigned b = 0; b < kBuckets; ++b) {
        if (b <= j) {
            sum += static_cast<double>(time_sum[b]);
        } else {
            truncated += time_count[b];
        }
    }
    sum += tau * static_cast<double>(truncated);
    const double w = sum / static_cast<double>(sampled_accesses);
    // Stream-boundary cap: a finite trace can never hold a window with more
    // distinct addresses than it touched in total.
    return std::min(w, distinct_estimate());
}

unsigned LocalityProfile::max_level() const {
    unsigned top = 1;
    for (unsigned b = 0; b < kBuckets; ++b) {
        if (distance_count[b] != 0) top = std::max(top, b);
    }
    return top;
}

report::Json LocalityProfile::to_json() const {
    report::Json j = report::Json::object();
    j.set("schema", "dbsp-locality-v2");
    j.set("mode", sampled_mode ? "sampled" : "exact");
    j.set("sample_rate", sample_rate);
    j.set("accesses", accesses);
    j.set("sampled_accesses", sampled_accesses);
    j.set("distinct_addresses", distinct_addresses);
    if (sampled_mode) j.set("estimated_distinct", distinct_estimate());
    j.set("cold_misses", cold_misses);
    j.set("locality_score", locality_score());

    const unsigned top = max_level();
    report::Json dist = report::Json::object();
    report::Json counts = report::Json::array();
    report::Json cdf = report::Json::array();
    for (unsigned b = 0; b <= top; ++b) {
        counts.push_back(distance_count[b]);
        cdf.push_back(hit_fraction(b));
    }
    dist.set("log2_bucket_count", std::move(counts));
    dist.set("cdf", std::move(cdf));
    j.set("reuse_distance", std::move(dist));

    report::Json ws = report::Json::object();
    report::Json taus = report::Json::array();
    report::Json w = report::Json::array();
    for (unsigned b = 0; b <= top; ++b) {
        taus.push_back(std::ldexp(1.0, static_cast<int>(b)));
        w.push_back(working_set(b));
    }
    ws.set("tau", std::move(taus));
    ws.set("w", std::move(w));
    j.set("working_set", std::move(ws));

    report::Json levels = report::Json::array();
    for (unsigned l = 0; l <= top; ++l) {
        report::Json row = report::Json::object();
        row.set("level", static_cast<std::uint64_t>(l));
        row.set("capacity", std::ldexp(1.0, static_cast<int>(l)));
        row.set("share", sampled_accesses > 0
                             ? static_cast<double>(distance_count[l]) /
                                   static_cast<double>(sampled_accesses)
                             : 0.0);
        row.set("hit_ratio", hit_fraction(l));
        levels.push_back(std::move(row));
    }
    j.set("levels", std::move(levels));
    return j;
}

void LocalityProfile::print(std::FILE* out, const std::string& title) const {
    std::fprintf(out,
                 "locality profile (%s): %llu references, %llu distinct addresses, "
                 "%llu cold misses, locality score %.3f\n",
                 title.c_str(), static_cast<unsigned long long>(accesses),
                 static_cast<unsigned long long>(distinct_addresses),
                 static_cast<unsigned long long>(cold_misses), locality_score());
    if (sampled_mode) {
        std::fprintf(out,
                     "  mode: sampled @ rate %.4g (%llu sampled references, "
                     "~%.0f distinct estimated)\n",
                     sample_rate, static_cast<unsigned long long>(sampled_accesses),
                     distinct_estimate());
    }
    if (sampled_accesses == 0) return;

    const unsigned top = max_level();
    Table table({"level", "distance band", "capacity", "refs", "share", "hit ratio"});
    for (unsigned l = 0; l <= top; ++l) {
        char band[32];
        if (l == 0) {
            std::snprintf(band, sizeof band, "d = 0");
        } else {
            std::snprintf(band, sizeof band, "[2^%u, 2^%u)", l - 1, l);
        }
        char capacity[32];
        std::snprintf(capacity, sizeof capacity, "2^%u", l);
        table.add_row({std::to_string(l), band, capacity,
                       std::to_string(distance_count[l]),
                       Table::fmt(static_cast<double>(distance_count[l]) /
                                  static_cast<double>(sampled_accesses)),
                       Table::fmt(hit_fraction(l))});
    }
    std::fprintf(out, "%s", table.str().c_str());

    Table ws({"tau", "w(tau)"});
    for (unsigned b = 0; b <= top; b += 2) {
        ws.add_row_values({std::ldexp(1.0, static_cast<int>(b)), working_set(b)});
    }
    std::fprintf(out, "working-set curve (Denning, tau in references):\n%s",
                 ws.str().c_str());
}

}  // namespace dbsp::locality
