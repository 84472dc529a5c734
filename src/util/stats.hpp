#pragma once

/// \file stats.hpp
/// Small statistics helpers used by the benchmark harness to compare measured
/// simulated costs against the paper's closed-form predictions: log-log slope
/// fits (growth-exponent estimation) and max/min ratio summaries.

#include <cstddef>
#include <vector>

namespace dbsp {

/// Result of an ordinary least-squares fit of log(y) against log(x).
/// For a cost following y = c * x^e, `slope` estimates e and
/// exp(`intercept`) estimates c.
struct LogLogFit {
    double slope = 0.0;
    double intercept = 0.0;
    double r_squared = 0.0;
    /// Largest |log(y) - fitted log(y)| over the sample points: the worst
    /// multiplicative deviation is exp(max_residual). 0 for the degenerate
    /// all-equal-xs fit (no line was fitted, so residuals are not meaningful).
    double max_residual = 0.0;
};

/// Least-squares fit of log(ys[i]) vs log(xs[i]). Requires xs.size() ==
/// ys.size() >= 2 and all values strictly positive. When the xs are all
/// (numerically) equal the slope is undefined; the fit degenerates to the
/// horizontal line through the mean of log(ys) with r_squared = 0 instead of
/// returning NaNs.
LogLogFit fit_loglog(const std::vector<double>& xs, const std::vector<double>& ys);

/// max(v) / min(v); requires non-empty input of positive values. A spread
/// close to 1 across a parameter sweep is the empirical signature of a
/// Theta(.) bound: measured / predicted stays within a constant band.
double spread(const std::vector<double>& v);

}  // namespace dbsp
