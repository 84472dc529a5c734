#include "report/provenance.hpp"

#include <ctime>
#include <thread>

#include "perf/counters.hpp"
#include "report/build_info.hpp"
#include "util/parallel.hpp"

namespace dbsp::report {

Provenance Provenance::collect() {
    Provenance p;
    p.git_sha = DBSP_BUILD_GIT_SHA;
    p.build_type = DBSP_BUILD_TYPE;
    p.compiler = DBSP_BUILD_COMPILER;
    p.threads = util::default_threads();
    p.nproc = std::thread::hardware_concurrency();
    p.counters_available = perf::CounterGroup().available();
    std::time_t now = std::time(nullptr);
    std::tm utc{};
    gmtime_r(&now, &utc);
    char buf[32];
    std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &utc);
    p.timestamp = buf;
    return p;
}

Json ProvenanceLeg::to_json() const {
    Json j = Json::object();
    j.set("name", name);
    j.set("wall_seconds", wall_seconds);
    j.set("threads", threads);
    return j;
}

ProvenanceLeg ProvenanceLeg::from_json(const Json& j) {
    ProvenanceLeg leg;
    leg.name = j["name"].is_string() ? j["name"].as_string() : "unknown";
    leg.wall_seconds = j["wall_seconds"].as_double(0.0);
    leg.threads = static_cast<std::uint64_t>(j["threads"].as_double(1.0));
    return leg;
}

Json Provenance::to_json() const {
    Json j = Json::object();
    j.set("git_sha", git_sha);
    j.set("build_type", build_type);
    j.set("compiler", compiler);
    j.set("threads", threads);
    j.set("nproc", nproc);
    j.set("counters_available", counters_available);
    j.set("timestamp", timestamp);
    if (!legs.empty()) {
        Json arr = Json::array();
        for (const auto& leg : legs) arr.push_back(leg.to_json());
        j.set("legs", std::move(arr));
    }
    return j;
}

Provenance Provenance::from_json(const Json& j) {
    Provenance p;
    p.git_sha = j["git_sha"].is_string() ? j["git_sha"].as_string() : "unknown";
    p.build_type = j["build_type"].is_string() ? j["build_type"].as_string() : "unknown";
    p.compiler = j["compiler"].is_string() ? j["compiler"].as_string() : "unknown";
    p.threads = static_cast<std::uint64_t>(j["threads"].as_double(0.0));
    p.nproc = static_cast<std::uint64_t>(j["nproc"].as_double(0.0));
    p.counters_available = j["counters_available"].as_bool(false);
    p.timestamp = j["timestamp"].is_string() ? j["timestamp"].as_string() : "unknown";
    if (j["legs"].is_array()) {
        for (const Json& lj : j["legs"].items()) p.legs.push_back(ProvenanceLeg::from_json(lj));
    }
    return p;
}

}  // namespace dbsp::report
