#include "report/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace dbsp::report {

const Json& Json::operator[](std::string_view key) const {
    static const Json null;
    const Json* found = find(key);
    return found != nullptr ? *found : null;
}

const Json* Json::find(std::string_view key) const {
    if (!is_object()) return nullptr;
    for (const auto& [k, v] : members_) {
        if (k == key) return &v;
    }
    return nullptr;
}

Json& Json::set(std::string key, Json value) {
    if (is_null()) type_ = Type::kObject;
    for (auto& [k, v] : members_) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(std::move(key), std::move(value));
    return *this;
}

Json& Json::push_back(Json value) {
    if (is_null()) type_ = Type::kArray;
    array_.push_back(std::move(value));
    return *this;
}

namespace {

void write_escaped(std::string& out, const std::string& s) {
    out += '"';
    for (unsigned char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (c < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += static_cast<char>(c);
                }
        }
    }
    out += '"';
}

void write_number(std::string& out, double d) {
    // Integral values inside the exactly-representable range print as
    // integers: counters and sizes stay readable and diff-stable.
    if (std::nearbyint(d) == d && std::fabs(d) < 9.007199254740992e15) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.0f", d);
        out += buf;
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out += buf;
}

void indent_to(std::string& out, int indent) { out.append(static_cast<std::size_t>(indent) * 2, ' '); }

}  // namespace

void Json::write_compact(std::string& out) const {
    switch (type_) {
        case Type::kNull: out += "null"; return;
        case Type::kBool: out += bool_ ? "true" : "false"; return;
        case Type::kNumber: write_number(out, number_); return;
        case Type::kString: write_escaped(out, string_); return;
        case Type::kArray: {
            out += '[';
            for (std::size_t i = 0; i < array_.size(); ++i) {
                if (i > 0) out += ',';
                array_[i].write_compact(out);
            }
            out += ']';
            return;
        }
        case Type::kObject: {
            out += '{';
            for (std::size_t i = 0; i < members_.size(); ++i) {
                if (i > 0) out += ',';
                write_escaped(out, members_[i].first);
                out += ':';
                members_[i].second.write_compact(out);
            }
            out += '}';
            return;
        }
    }
}

void Json::write(std::string& out, int indent) const {
    switch (type_) {
        case Type::kNull: out += "null"; return;
        case Type::kBool: out += bool_ ? "true" : "false"; return;
        case Type::kNumber: write_number(out, number_); return;
        case Type::kString: write_escaped(out, string_); return;
        case Type::kArray: {
            if (array_.empty()) {
                out += "[]";
                return;
            }
            // Arrays of scalars print on one line (series data stays compact);
            // arrays holding containers go one element per line.
            bool scalar = true;
            for (const auto& v : array_) {
                if (v.is_array() || v.is_object()) scalar = false;
            }
            if (scalar) {
                out += '[';
                for (std::size_t i = 0; i < array_.size(); ++i) {
                    if (i > 0) out += ", ";
                    array_[i].write(out, indent);
                }
                out += ']';
                return;
            }
            out += "[\n";
            for (std::size_t i = 0; i < array_.size(); ++i) {
                indent_to(out, indent + 1);
                array_[i].write(out, indent + 1);
                if (i + 1 < array_.size()) out += ',';
                out += '\n';
            }
            indent_to(out, indent);
            out += ']';
            return;
        }
        case Type::kObject: {
            if (members_.empty()) {
                out += "{}";
                return;
            }
            out += "{\n";
            for (std::size_t i = 0; i < members_.size(); ++i) {
                indent_to(out, indent + 1);
                write_escaped(out, members_[i].first);
                out += ": ";
                members_[i].second.write(out, indent + 1);
                if (i + 1 < members_.size()) out += ',';
                out += '\n';
            }
            indent_to(out, indent);
            out += '}';
            return;
        }
    }
}

std::string Json::dump() const {
    std::string out;
    write(out, 0);
    out += '\n';
    return out;
}

std::string Json::dump_compact() const {
    std::string out;
    write_compact(out);
    return out;
}

// --- parser -----------------------------------------------------------------

namespace {

class Parser {
public:
    Parser(std::string_view text, const ParseLimits& limits)
        : text_(text), limits_(limits) {}

    std::optional<Json> run(std::string* error) {
        if (limits_.max_bytes != 0 && text_.size() > limits_.max_bytes) {
            fail("document exceeds " + std::to_string(limits_.max_bytes) + " bytes");
            emit(error);
            return std::nullopt;
        }
        skip_ws();
        Json value;
        if (!parse_value(value)) {
            emit(error);
            return std::nullopt;
        }
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing characters after JSON document");
            emit(error);
            return std::nullopt;
        }
        return value;
    }

private:
    void emit(std::string* error) const {
        if (error == nullptr) return;
        std::size_t line = 1;
        for (std::size_t i = 0; i < error_pos_ && i < text_.size(); ++i) {
            if (text_[i] == '\n') ++line;
        }
        *error = "line " + std::to_string(line) + ": " + error_;
    }

    bool fail(const std::string& message) {
        if (error_.empty()) {
            error_ = message;
            error_pos_ = pos_;
        }
        return false;
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    bool literal(std::string_view word) {
        if (text_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    bool parse_value(Json& out) {
        if (pos_ >= text_.size()) return fail("unexpected end of input");
        switch (text_[pos_]) {
            case 'n': return literal("null") ? (out = Json(), true) : fail("bad literal");
            case 't': return literal("true") ? (out = Json(true), true) : fail("bad literal");
            case 'f': return literal("false") ? (out = Json(false), true) : fail("bad literal");
            case '"': return parse_string_into(out);
            case '[': return parse_array(out);
            case '{': return parse_object(out);
            default: return parse_number(out);
        }
    }

    bool parse_number(Json& out) {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            pos_ = start;
            return fail("invalid value");
        }
        const std::size_t int_start = pos_;
        while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
        if (text_[int_start] == '0' && pos_ - int_start > 1) {
            return fail("leading zero in number");
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                return fail("digit expected after decimal point");
            }
            while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
            if (pos_ >= text_.size() || !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                return fail("digit expected in exponent");
            }
            while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) ++pos_;
        }
        const std::string token(text_.substr(start, pos_ - start));
        const double value = std::strtod(token.c_str(), nullptr);
        if (!std::isfinite(value)) return fail("number out of range");
        out = Json(value);
        return true;
    }

    bool parse_string(std::string& out) {
        ++pos_;  // opening quote
        out.clear();
        while (true) {
            // Copy the run of plain bytes up to the next quote, backslash or
            // control byte in one append.
            const std::size_t run = pos_;
            while (pos_ < text_.size()) {
                const unsigned char c = static_cast<unsigned char>(text_[pos_]);
                if (c == '"' || c == '\\' || c < 0x20) break;
                ++pos_;
            }
            out.append(text_.data() + run, pos_ - run);
            if (pos_ >= text_.size()) return fail("unterminated string");
            const unsigned char c = static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return true;
            }
            if (c < 0x20) return fail("raw control character in string");
            ++pos_;  // backslash
            if (pos_ >= text_.size()) return fail("unterminated escape");
            switch (text_[pos_]) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    if (pos_ + 4 >= text_.size()) return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int k = 1; k <= 4; ++k) {
                        const char h = text_[pos_ + static_cast<std::size_t>(k)];
                        code <<= 4;
                        if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
                        else return fail("invalid hex digit in \\u escape");
                    }
                    pos_ += 4;
                    // Encode the code point as UTF-8 (surrogates pass through
                    // as-is; the artifacts we emit never contain them).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xC0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    } else {
                        out += static_cast<char>(0xE0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
                        out += static_cast<char>(0x80 | (code & 0x3F));
                    }
                    break;
                }
                default: return fail("invalid escape character");
            }
            ++pos_;
        }
    }

    bool parse_string_into(Json& out) {
        std::string s;
        if (!parse_string(s)) return false;
        out = Json(std::move(s));
        return true;
    }

    /// Container-entry guard: depth is checked *before* recursing, so a
    /// `[[[[...` bomb is rejected with a diagnostic long before the stack
    /// frames of the recursive descent can overflow.
    bool enter() {
        if (limits_.max_depth != 0 && depth_ >= limits_.max_depth) {
            return fail("nesting depth exceeds " + std::to_string(limits_.max_depth));
        }
        ++depth_;
        return true;
    }

    bool parse_array(Json& out) {
        if (!enter()) return false;
        ++pos_;  // '['
        out = Json::array();
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            Json element;
            skip_ws();
            if (!parse_value(element)) return false;
            out.push_back(std::move(element));
            skip_ws();
            if (pos_ >= text_.size()) return fail("unterminated array");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == ']') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("',' or ']' expected in array");
        }
    }

    bool parse_object(Json& out) {
        if (!enter()) return false;
        ++pos_;  // '{'
        out = Json::object();
        skip_ws();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            --depth_;
            return true;
        }
        while (true) {
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != '"') return fail("object key expected");
            std::string key;
            if (!parse_string(key)) return false;
            if (out.contains(key)) return fail("duplicate object key \"" + key + "\"");
            skip_ws();
            if (pos_ >= text_.size() || text_[pos_] != ':') return fail("':' expected after key");
            ++pos_;
            skip_ws();
            Json value;
            if (!parse_value(value)) return false;
            out.set(std::move(key), std::move(value));
            skip_ws();
            if (pos_ >= text_.size()) return fail("unterminated object");
            if (text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (text_[pos_] == '}') {
                ++pos_;
                --depth_;
                return true;
            }
            return fail("',' or '}' expected in object");
        }
    }

    std::string_view text_;
    ParseLimits limits_;
    std::size_t pos_ = 0;
    std::size_t depth_ = 0;
    std::string error_;
    std::size_t error_pos_ = 0;
};

}  // namespace

std::optional<Json> Json::parse(std::string_view text, std::string* error,
                                const ParseLimits& limits) {
    return Parser(text, limits).run(error);
}

std::optional<Json> Json::load_file(const std::string& path, std::string* error) {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
        if (error != nullptr) *error = "cannot open \"" + path + "\"";
        return std::nullopt;
    }
    std::string text;
    char buf[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, got);
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
        if (error != nullptr) *error = "read error on \"" + path + "\"";
        return std::nullopt;
    }
    std::string parse_error;
    auto parsed = parse(text, &parse_error);
    if (!parsed && error != nullptr) *error = path + ": " + parse_error;
    return parsed;
}

bool Json::save_file(const std::string& path, std::string* error) const {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
        if (error != nullptr) *error = "cannot open \"" + path + "\" for writing";
        return false;
    }
    const std::string text = dump();
    const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
    const bool closed = std::fclose(f) == 0;
    if (!(ok && closed)) {
        if (error != nullptr) *error = "write error on \"" + path + "\"";
        return false;
    }
    return true;
}

}  // namespace dbsp::report
