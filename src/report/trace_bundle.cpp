#include "report/trace_bundle.hpp"

#include <cstdlib>
#include <string_view>

namespace dbsp::report {

TraceBundle TraceBundle::from_env(const char* track) {
    const char* env = std::getenv("DBSP_TRACE");
    if (env == nullptr || *env == '\0' || std::string_view(env) == "0") return {};
    const bool with_chrome = std::string_view(env) != "1";
    TraceBundle bundle(track, with_chrome);
    if (with_chrome) bundle.chrome_path_ = env;
    return bundle;
}

void TraceBundle::report(const char* tool, const std::string& what,
                         double charged_cost) const {
    if (!enabled()) return;
    if (!what.empty()) {
        std::printf("\n--- charge trace: %s ---\n", what.c_str());
    }
    aggregate_->print(stdout, charged_cost);
    if (chrome_ != nullptr && !chrome_path_.empty()) {
        if (chrome_->write(chrome_path_)) {
            std::printf("wrote Chrome trace to %s\n", chrome_path_.c_str());
        } else {
            std::fprintf(stderr, "%s: cannot write \"%s\"\n", tool, chrome_path_.c_str());
        }
    }
}

}  // namespace dbsp::report
