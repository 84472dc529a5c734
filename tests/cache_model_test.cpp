/// Tests for src/locality/cache_model.hpp and recorder.hpp: the stack-
/// distance MRC predictor against a brute-force LRU cache oracle replaying
/// the very streams the profiles were built from, monotonicity of the
/// predicted curve (including interpolated capacities), the RecordingSink's
/// linearization conventions, sysfs geometry parsing, and the
/// dbsp-cachemodel-v1 JSON shape.

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <vector>

#include <gtest/gtest.h>

#include "algos/bitonic_sort.hpp"
#include "algos/odd_even_sort.hpp"
#include "core/hmm_simulator.hpp"
#include "core/smoothing.hpp"
#include "locality/cache_model.hpp"
#include "locality/recorder.hpp"
#include "locality/sink.hpp"
#include "report/json.hpp"
#include "trace/sink.hpp"
#include "util/rng.hpp"

namespace dbsp::locality {
namespace {

/// Brute-force fully-associative LRU oracle in the Mattson stack
/// formulation: a reference hits a capacity-C cache iff its depth in the
/// LRU stack (== reuse distance) is < C; cold references miss everywhere.
double lru_oracle_miss_ratio(const std::vector<trace::Addr>& stream,
                             std::uint64_t capacity) {
    if (stream.empty()) return 0.0;
    std::vector<trace::Addr> stack;  // front = most recently used
    std::uint64_t misses = 0;
    for (const trace::Addr x : stream) {
        const auto it = std::find(stack.begin(), stack.end(), x);
        if (it == stack.end()) {
            ++misses;  // cold
        } else {
            if (static_cast<std::uint64_t>(it - stack.begin()) >= capacity) ++misses;
            stack.erase(it);
        }
        stack.insert(stack.begin(), x);
    }
    return static_cast<double>(misses) / static_cast<double>(stream.size());
}

/// Profile + recorded stream of one simulated program, captured together so
/// the oracle replays exactly what the predictor saw.
struct ProfiledStream {
    LocalityProfile profile;
    std::vector<trace::Addr> stream;
};

template <typename Prog>
ProfiledStream profile_program(std::uint64_t n, std::uint64_t seed) {
    SplitMix64 rng(seed);
    std::vector<model::Word> keys(n);
    for (auto& k : keys) k = rng.next();
    Prog prog(keys);
    LocalitySink loc;
    RecordingSink rec;
    trace::MultiSink multi{&loc, &rec};
    const auto f = model::AccessFunction::polynomial(0.5);
    core::HmmSimulator::Options opt;
    opt.trace = &multi;
    auto sm = core::smooth(prog, core::hmm_label_set(f, prog.context_words(), n));
    core::HmmSimulator(f, opt).simulate(*sm);
    return {loc.profile(), rec.stream()};
}

/// A synthetic skewed stream fed through the per-word entry point: a hot set
/// revisited constantly plus a cold tail, so every capacity in the test grid
/// discriminates.
ProfiledStream profile_synthetic() {
    LocalitySink loc;
    RecordingSink rec;
    SplitMix64 rng(41);
    ProfiledStream out;
    for (int i = 0; i < 20000; ++i) {
        const trace::Addr x = (i % 3 != 0) ? rng.next_below(24)
                                           : 1000 + rng.next_below(3000);
        loc.access(x, 0.0);
        rec.access(x, 0.0);
    }
    out.profile = loc.profile();
    out.stream = rec.stream();
    return out;
}

TEST(CacheModel, MatchesBruteForceLruOracleBitExactlyAtPowerOfTwoCapacities) {
    const std::vector<ProfiledStream> cases = {
        profile_program<algo::BitonicSortProgram>(32, 1),
        profile_program<algo::OddEvenTranspositionSortProgram>(32, 2),
        profile_synthetic(),
    };
    const std::uint64_t capacities[] = {1, 2, 4, 16, 64, 256, 4096};
    for (std::size_t i = 0; i < cases.size(); ++i) {
        ASSERT_FALSE(cases[i].stream.empty());
        ASSERT_EQ(cases[i].stream.size(), cases[i].profile.accesses) << "case " << i;
        for (const std::uint64_t c : capacities) {
            ASSERT_TRUE(prediction_is_exact(c));
            // Bit-exact, not approximately equal: both sides are a ratio of
            // the same two integers (misses / references).
            ASSERT_EQ(predicted_miss_ratio(cases[i].profile, c),
                      lru_oracle_miss_ratio(cases[i].stream, c))
                << "case " << i << " capacity " << c;
        }
        // Capacity 0 caches nothing; an infinite cache still cold-misses.
        EXPECT_EQ(predicted_miss_ratio(cases[i].profile, 0), 1.0);
        EXPECT_EQ(lru_oracle_miss_ratio(cases[i].stream, 0), 1.0);
        const std::uint64_t huge = std::uint64_t{1} << 40;
        EXPECT_EQ(predicted_miss_ratio(cases[i].profile, huge),
                  lru_oracle_miss_ratio(cases[i].stream, huge));
    }
}

TEST(CacheModel, PredictedCurveIsMonotoneNonIncreasingAcrossInterpolation) {
    const ProfiledStream ps = profile_synthetic();
    double prev = predicted_miss_ratio(ps.profile, 0);
    EXPECT_EQ(prev, 1.0);
    // Every capacity from 1 to 4096 crosses each bucket boundary and every
    // interior (interpolated) point in between.
    for (std::uint64_t c = 1; c <= 4096; ++c) {
        const double miss = predicted_miss_ratio(ps.profile, c);
        ASSERT_LE(miss, prev + 1e-12) << "capacity " << c;
        ASSERT_GE(miss, 0.0);
        ASSERT_LE(miss, 1.0);
        prev = miss;
    }
    // The interpolated point sits between its bucket's endpoints.
    const double lo = predicted_miss_ratio(ps.profile, 16);
    const double mid = predicted_miss_ratio(ps.profile, 24);
    const double hi = predicted_miss_ratio(ps.profile, 32);
    EXPECT_FALSE(prediction_is_exact(24));
    EXPECT_LE(hi, mid);
    EXPECT_LE(mid, lo);
}

TEST(CacheModel, EmptyProfilePredictsZeroEverywhere) {
    const LocalityProfile empty;
    EXPECT_EQ(predicted_miss_ratio(empty, 0), 0.0);
    EXPECT_EQ(predicted_miss_ratio(empty, 1), 0.0);
    EXPECT_EQ(predicted_miss_ratio(empty, 12345), 0.0);
}

TEST(RecordingSink, MirrorsTheLocalitySinkLinearizationConventions) {
    RecordingSink rec;
    rec.access(7, 1.0);
    rec.access_range({}, 2, 5);            // 2, 3, 4 ascending, once per cell
    rec.block_op({}, 0.0, 2, {{10, 12}});  // 10,10,11,11 — touches consecutive
    rec.block_transfer(20, 30, 2, 0.0, 0.0);  // src range then dst range
    const std::vector<trace::Addr> expected = {7, 2, 3, 4, 10, 10, 11, 11,
                                               20, 21, 30, 31};
    EXPECT_EQ(rec.stream(), expected);
    EXPECT_EQ(rec.extent(), 32u);

    // The identical calls drive a LocalitySink to the identical reference
    // count — the contract that lets the oracle replay recorded streams
    // against profiles. Neither sink reads the (empty) prefix table: the
    // linearization looks at addresses only.
    LocalitySink loc;
    loc.access(7, 1.0);
    loc.access_range({}, 2, 5);
    loc.block_op({}, 0.0, 2, {{10, 12}});
    loc.block_transfer(20, 30, 2, 0.0, 0.0);
    EXPECT_EQ(loc.profile().accesses, rec.stream().size());

    rec.clear();
    EXPECT_TRUE(rec.stream().empty());
    EXPECT_EQ(rec.extent(), 0u);
}

TEST(CacheModel, LevelGeometriesAreTheDoublingBands) {
    const auto levels = level_geometries(3);
    ASSERT_EQ(levels.size(), 3u);
    EXPECT_EQ(levels[0].name, "hmm-level-1");
    EXPECT_EQ(levels[0].capacity_words, 2u);
    EXPECT_EQ(levels[2].capacity_words, 8u);
    for (const auto& g : levels) EXPECT_EQ(g.source, "model");
    EXPECT_TRUE(level_geometries(0).empty());
}

TEST(CacheModel, HostGeometriesParseSysfsAndDegradeToEmpty) {
    namespace fs = std::filesystem;
    const fs::path root = fs::temp_directory_path() / "dbsp_cache_model_test_sysfs";
    fs::remove_all(root);
    const auto write = [&](const char* index, const char* file, const char* text) {
        fs::create_directories(root / index);
        std::ofstream(root / index / file) << text << "\n";
    };
    write("index0", "level", "1");
    write("index0", "type", "Data");
    write("index0", "size", "48K");
    write("index1", "level", "1");
    write("index1", "type", "Instruction");  // skipped: not a data cache
    write("index1", "size", "32K");
    write("index2", "level", "2");
    write("index2", "type", "Unified");
    write("index2", "size", "2M");

    const auto geos = host_cache_geometries(/*word_bytes=*/8, root.string());
    ASSERT_EQ(geos.size(), 2u);
    EXPECT_EQ(geos[0].name, "L1d");
    EXPECT_EQ(geos[0].capacity_words, 48u * 1024 / 8);
    EXPECT_EQ(geos[0].source, "sysfs");
    EXPECT_EQ(geos[1].name, "L2");
    EXPECT_EQ(geos[1].capacity_words, 2u * 1024 * 1024 / 8);
    // Line-granularity capacities for replays that pin one word per line.
    const auto lines = host_cache_geometries(/*word_bytes=*/64, root.string());
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0].capacity_words, 48u * 1024 / 64);
    fs::remove_all(root);

    EXPECT_TRUE(host_cache_geometries(8, (root / "absent").string()).empty());
}

TEST(CacheModel, JsonSectionCarriesMrcAndPerGeometryPredictions) {
    const ProfiledStream ps = profile_synthetic();
    std::vector<CacheGeometry> geos = level_geometries(2);
    geos.push_back({"L1d", "sysfs", 6144});  // non-power-of-two: interpolated
    const report::Json j = cache_model_json(ps.profile, geos);
    EXPECT_EQ(j["schema"].as_string(), "dbsp-cachemodel-v1");
    EXPECT_EQ(j["accesses"].as_double(), static_cast<double>(ps.profile.accesses));
    const report::Json& mrc = j["mrc"];
    ASSERT_TRUE(mrc["log2_capacity_words"].is_array());
    ASSERT_EQ(mrc["log2_capacity_words"].size(), mrc["miss_ratio"].size());
    // The curve in the artifact is the predictor evaluated at powers of two.
    for (std::size_t i = 0; i < mrc["miss_ratio"].size(); ++i) {
        const auto l = static_cast<unsigned>(mrc["log2_capacity_words"].items()[i].as_double());
        EXPECT_EQ(mrc["miss_ratio"].items()[i].as_double(),
                  predicted_miss_ratio(ps.profile, std::uint64_t{1} << l));
    }
    ASSERT_EQ(j["geometries"].size(), 3u);
    const report::Json& l1d = j["geometries"].items()[2];
    EXPECT_EQ(l1d["name"].as_string(), "L1d");
    EXPECT_FALSE(l1d["exact"].as_bool(true));
    EXPECT_EQ(l1d["predicted_miss_ratio"].as_double(),
              predicted_miss_ratio(ps.profile, 6144));
    EXPECT_TRUE(j["geometries"].items()[0]["exact"].as_bool(false));
}

}  // namespace
}  // namespace dbsp::locality
