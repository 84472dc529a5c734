#include "util/stats.hpp"

#include <algorithm>
#include <cmath>

#include "util/contracts.hpp"

namespace dbsp {

LogLogFit fit_loglog(const std::vector<double>& xs, const std::vector<double>& ys) {
    DBSP_REQUIRE(xs.size() == ys.size());
    DBSP_REQUIRE(xs.size() >= 2);
    const std::size_t n = xs.size();
    double sx = 0, sy = 0, sxx = 0, sxy = 0, syy = 0;
    for (std::size_t i = 0; i < n; ++i) {
        DBSP_REQUIRE(xs[i] > 0.0 && ys[i] > 0.0);
        const double lx = std::log(xs[i]);
        const double ly = std::log(ys[i]);
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
        syy += ly * ly;
    }
    const double dn = static_cast<double>(n);
    const double denom = dn * sxx - sx * sx;
    LogLogFit fit;
    // denom = n * variance of the log-xs: it vanishes when all xs are equal
    // (and can round to a tiny non-zero either side of 0), leaving the slope
    // undefined. Return the degenerate horizontal fit through the mean
    // instead of dividing — a NaN here used to poison every downstream bench
    // report silently. The threshold is relative to sxx so it scales with
    // the magnitude of the data.
    if (std::abs(denom) <= 1e-12 * std::max(1.0, dn * sxx)) {
        fit.slope = 0.0;
        fit.intercept = sy / dn;
        fit.r_squared = 0.0;
        fit.max_residual = 0.0;
        return fit;
    }
    fit.slope = (dn * sxy - sx * sy) / denom;
    fit.intercept = (sy - fit.slope * sx) / dn;
    const double ss_tot = syy - sy * sy / dn;
    double ss_res = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double pred = fit.intercept + fit.slope * std::log(xs[i]);
        const double resid = std::log(ys[i]) - pred;
        ss_res += resid * resid;
        fit.max_residual = std::max(fit.max_residual, std::abs(resid));
    }
    fit.r_squared = (ss_tot > 0) ? 1.0 - ss_res / ss_tot : 1.0;
    return fit;
}

double spread(const std::vector<double>& v) {
    DBSP_REQUIRE(!v.empty());
    const auto [lo, hi] = std::minmax_element(v.begin(), v.end());
    DBSP_REQUIRE(*lo > 0.0);
    return *hi / *lo;
}

}  // namespace dbsp
