#pragma once

/// \file access_function.hpp
/// Memory access-cost functions f(x) for the HMM and BT models and bandwidth
/// functions g(x) for D-BSP, per Section 2 of the paper.
///
/// The paper restricts attention to nondecreasing (2,c)-uniform functions:
/// there is a constant c >= 1 with f(2x) <= c f(x) for all x. The two
/// case-study functions are the polynomial f(x) = x^alpha (0 < alpha < 1) and
/// the logarithmic f(x) = log x.
///
/// Implementation note: a cost function must be positive and defined at
/// address 0, so the *charged* forms are shifted — poly(alpha) charges
/// (x+1)^alpha and logarithmic() charges log2(x+2). The shift changes neither
/// monotonicity nor the (2,c)-uniformity class nor any asymptotic statement.
/// The un-shifted mathematical form is retained separately for computing the
/// iterated-function quantities f^(k)(x) and f*(x) of Fact 2, which are
/// defined in terms of the pure function.

#include <cstdint>
#include <functional>
#include <string>

namespace dbsp::model {

/// A nondecreasing memory access-cost function. Value-semantic; cheap to copy.
class AccessFunction {
public:
    /// Closed-form family tag. The cost-table builder specializes its prefix
    /// loop on this tag so the O(capacity) build runs on the raw expression
    /// instead of a std::function call per address; kCustom falls back to the
    /// type-erased path.
    enum class Kind { kPolynomial, kLogarithmic, kConstant, kCustom };

    /// f(x) = (x+1)^alpha, the paper's polynomial case study; 0 < alpha < 1.
    static AccessFunction polynomial(double alpha);

    /// f(x) = log2(x+2), the paper's logarithmic case study.
    static AccessFunction logarithmic();

    /// f(x) = c for all x (flat memory / RAM baseline).
    static AccessFunction constant(double c = 1.0);

    /// Arbitrary user-supplied function. \p charged is used for cost
    /// accounting (must be positive, nondecreasing, defined at 0); \p pure is
    /// used for iterated-function computations (may reach values <= 1).
    static AccessFunction custom(std::string name,
                                 std::function<double(double)> charged,
                                 std::function<double(double)> pure);

    /// Charged access cost of address \p x.
    double operator()(std::uint64_t x) const { return charged_(static_cast<double>(x)); }

    /// Charged cost evaluated on a real-valued argument (used by analytic
    /// bound calculators that plug in non-integer cluster sizes).
    double at(double x) const { return charged_(x); }

    /// Pure mathematical form, used for f^(k) and f*.
    double pure(double x) const { return pure_(x); }

    /// f^(k)(x): the pure function applied k times; k = 0 returns x.
    double iterate(double x, unsigned k) const;

    /// f*(x) = min{ k >= 1 : f^(k)(x) <= 2 }, per Fact 2. The threshold is 2
    /// rather than 1 because x^alpha has fixed point 1 and only *approaches*
    /// it from above; the standard convention (any constant > 1 gives the
    /// same Theta class) makes f*(n) = Theta(log log n) for x^alpha and
    /// Theta(log* n) for log x. Capped at \p cap to guarantee termination.
    unsigned star(double x, unsigned cap = 256) const;

    /// Empirical (2,c)-uniformity constant: max over x in {1,2,4,...,limit/2}
    /// of f(2x)/f(x) using the charged form. The paper's class requires this
    /// to be bounded; for poly it is 2^alpha, for log it tends to 1.
    double uniformity_constant(std::uint64_t limit) const;

    /// True iff the charged form is nondecreasing on sampled points <= limit.
    bool is_nondecreasing(std::uint64_t limit) const;

    const std::string& name() const { return name_; }

    /// Family tag and its numeric parameter (alpha for kPolynomial, c for
    /// kConstant; unused otherwise).
    Kind kind() const { return kind_; }
    double param() const { return param_; }

    /// The charged form without the operator() indirection layer; used by the
    /// cost-table builder for kCustom functions.
    const std::function<double(double)>& charged_fn() const { return charged_; }

    /// Stable identity string, the cost-table cache's key: name, family tag
    /// and parameter for closed-form kinds; name and the bits of the charged
    /// values on a fixed probe set for kCustom. Two functions with equal keys
    /// are observably the same cost function.
    std::string key() const;

private:
    AccessFunction(std::string name, Kind kind, double param,
                   std::function<double(double)> charged,
                   std::function<double(double)> pure);

    std::string name_;
    Kind kind_;
    double param_;
    std::function<double(double)> charged_;
    std::function<double(double)> pure_;
};

}  // namespace dbsp::model
