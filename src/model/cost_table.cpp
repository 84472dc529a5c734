#include "model/cost_table.hpp"

#include <cmath>

#include "util/contracts.hpp"

namespace dbsp::model {

namespace {

/// Run the prefix loop with \p charge(x) inlined per family so the O(capacity)
/// build does not pay a std::function call per address. Each specialization
/// evaluates the exact same expression as the family's charged lambda, so the
/// resulting prefix values are bit-identical to the type-erased path.
template <typename Charge>
void build_prefix(std::vector<double>& prefix, std::uint64_t capacity, Charge&& charge) {
    prefix[0] = 0.0;
    for (std::uint64_t x = 0; x < capacity; ++x) {
        prefix[x + 1] = prefix[x] + charge(static_cast<double>(x));
    }
}

}  // namespace

CostTable::CostTable(AccessFunction f, std::uint64_t capacity)
    : f_(std::move(f)), capacity_(capacity) {
    auto storage = std::make_shared<std::vector<double>>(capacity_ + 1);
    std::vector<double>& prefix = *storage;
    switch (f_.kind()) {
        case AccessFunction::Kind::kPolynomial: {
            const double alpha = f_.param();
            build_prefix(prefix, capacity_,
                         [alpha](double x) { return std::pow(x + 1.0, alpha); });
            break;
        }
        case AccessFunction::Kind::kLogarithmic:
            build_prefix(prefix, capacity_, [](double x) { return std::log2(x + 2.0); });
            break;
        case AccessFunction::Kind::kConstant: {
            const double c = f_.param();
            build_prefix(prefix, capacity_, [c](double) { return c; });
            break;
        }
        case AccessFunction::Kind::kCustom: {
            const auto& fn = f_.charged_fn();
            build_prefix(prefix, capacity_, [&fn](double x) { return fn(x); });
            break;
        }
    }
    storage_ = std::move(storage);
    prefix_ = storage_->data();
}

CostTable::CostTable(const CostTable& parent, std::uint64_t capacity)
    : f_(parent.f_), capacity_(capacity), storage_(parent.storage_),
      prefix_(parent.prefix_) {
    DBSP_REQUIRE(capacity <= parent.capacity_);
}

}  // namespace dbsp::model
