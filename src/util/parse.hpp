#pragma once

/// \file parse.hpp
/// The one strict reader of a decimal number, shared by the tools' numeric
/// flags (tools::parse_f64) and the access-function grammar's exponent
/// (serve::parse_function), so a value means the same wherever it is typed.

#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <system_error>

namespace dbsp::util {

/// The whole of \p text must be one finite number in fixed or scientific
/// form ("0.5", ".5", "5e-1", "-2"). A leading space or '+', trailing text,
/// an empty string, a hex form, a value out of range, NaN or an infinity
/// gives nullopt. Callers check their own range after it.
inline std::optional<double> parse_decimal(std::string_view text) {
    double x = 0.0;
    const char* const end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, x);
    if (ec != std::errc{} || ptr != end || text.empty() || !std::isfinite(x)) {
        return std::nullopt;
    }
    return x;
}

}  // namespace dbsp::util
