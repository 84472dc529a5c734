#include "model/access_function.hpp"

#include <bit>
#include <cmath>
#include <cstdio>

#include "util/contracts.hpp"

namespace dbsp::model {

namespace {

/// Fixed probe addresses for fingerprinting kCustom functions: a spread of
/// shallow and deep addresses so that any two functions that differ anywhere
/// an experiment can reach them almost surely differ on a probe.
constexpr double kProbes[] = {0.0, 1.0, 7.0, 64.0, 4097.0, 1048576.0, 1e9};

}  // namespace

AccessFunction::AccessFunction(std::string name, Kind kind, double param,
                               std::function<double(double)> charged,
                               std::function<double(double)> pure)
    : name_(std::move(name)), kind_(kind), param_(param), charged_(std::move(charged)),
      pure_(std::move(pure)) {
    DBSP_REQUIRE(charged_ != nullptr);
    DBSP_REQUIRE(pure_ != nullptr);
}

AccessFunction AccessFunction::polynomial(double alpha) {
    DBSP_REQUIRE(alpha > 0.0 && alpha < 1.0);
    char name[32];
    std::snprintf(name, sizeof name, "x^%.2f", alpha);
    return AccessFunction(
        name, Kind::kPolynomial, alpha,
        [alpha](double x) { return std::pow(x + 1.0, alpha); },
        [alpha](double x) { return x > 0.0 ? std::pow(x, alpha) : 0.0; });
}

AccessFunction AccessFunction::logarithmic() {
    return AccessFunction(
        "log x", Kind::kLogarithmic, 0.0, [](double x) { return std::log2(x + 2.0); },
        [](double x) { return x > 1.0 ? std::log2(x) : 0.0; });
}

AccessFunction AccessFunction::constant(double c) {
    DBSP_REQUIRE(c > 0.0);
    return AccessFunction(
        "const", Kind::kConstant, c, [c](double) { return c; },
        [](double) { return 0.0; });
}

AccessFunction AccessFunction::custom(std::string name,
                                      std::function<double(double)> charged,
                                      std::function<double(double)> pure) {
    return AccessFunction(std::move(name), Kind::kCustom, 0.0, std::move(charged),
                          std::move(pure));
}

std::string AccessFunction::key() const {
    std::string k = name_;
    k += '#';
    k += std::to_string(static_cast<int>(kind_));
    if (kind_ != Kind::kCustom) {
        k += '#';
        k += std::to_string(std::bit_cast<std::uint64_t>(param_));
        return k;
    }
    for (double x : kProbes) {
        k += '#';
        k += std::to_string(std::bit_cast<std::uint64_t>(charged_(x)));
    }
    return k;
}

double AccessFunction::iterate(double x, unsigned k) const {
    double v = x;
    for (unsigned i = 0; i < k; ++i) v = pure_(v);
    return v;
}

unsigned AccessFunction::star(double x, unsigned cap) const {
    double v = x;
    for (unsigned k = 1; k <= cap; ++k) {
        v = pure_(v);
        if (v <= 2.0) return k;
    }
    return cap;
}

double AccessFunction::uniformity_constant(std::uint64_t limit) const {
    double worst = 1.0;
    for (std::uint64_t x = 1; 2 * x <= limit; x *= 2) {
        const double fx = (*this)(x);
        DBSP_ASSERT(fx > 0.0);
        worst = std::max(worst, (*this)(2 * x) / fx);
    }
    return worst;
}

bool AccessFunction::is_nondecreasing(std::uint64_t limit) const {
    double prev = (*this)(0);
    for (std::uint64_t x = 1; x <= limit; x = x < 64 ? x + 1 : x + x / 7) {
        const double cur = (*this)(x);
        if (cur + 1e-12 < prev) return false;
        prev = cur;
    }
    return true;
}

}  // namespace dbsp::model
