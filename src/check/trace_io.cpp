#include "check/trace_io.hpp"

#include <charconv>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <type_traits>

/// \file trace_io.cpp
/// One-pass reader and writer for the dbsp-spec v1 and dbsp-trace v2 text
/// formats. Both sit on the serve request path (every op:"run" parses a spec,
/// and the cache fingerprint hashes its re-serialization), so they scan and
/// append plain strings rather than going through iostreams.
///
/// The grammar the reader accepts (pinned by the TraceIo tests):
///  * Lines end at '\n'; the last one needs no newline. A line is skipped
///    when its first byte other than space, tab and CR is '#', or when it has
///    no such byte.
///  * Tokens are separated by C isspace bytes (space, \t, \n, \v, \f, \r).
///    A line's first token is its keyword. A line with no token, such as one
///    holding only "\v", keeps the previous line's keyword and has no fields.
///  * An integer field is an optional '+' or '-' and a run of decimal
///    digits. The digits must fit the field's type, or the field fails; '-'
///    on an unsigned field then wraps modulo 2^bits, as strtoull does.
///    Reading stops at the first non-digit, so trailing tokens and glued
///    suffixes ("1x") are ignored.

namespace dbsp::check {

using model::Message;
using model::ProcId;
using model::StepIndex;
using model::Word;

namespace {

constexpr const char* kSpecHeader = "dbsp-spec v1";
constexpr const char* kTraceHeader = "dbsp-trace v2";

/// Geometry ceilings enforced *before* any event-table allocation. A repro
/// file is a few kilobytes and the fuzz corpus stays under v=16, steps=8 —
/// but the same parser now also reads untrusted dbsp_serve requests, where
/// "v 1152921504606846976" must produce an error reply, not an out-of-memory
/// abort while sizing the event matrix. The per-field caps are generous
/// (64Ki processors, 4Ki supersteps); the cell cap bounds the one allocation
/// the header controls, steps x v event slots.
constexpr std::uint64_t kMaxProcessors = 1ull << 16;
constexpr std::uint64_t kMaxSupersteps = 1ull << 12;
constexpr std::uint64_t kMaxDataWords = 1ull << 12;
constexpr std::uint64_t kMaxMessages = 1ull << 12;
constexpr std::uint64_t kMaxEventCells = 1ull << 20;

/// Initial capacity of a serialization (serve-mix's 8-superstep specs: 4-35 KiB).
constexpr std::size_t kReserveBytes = 16384;

bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Line scanner with one-token lookahead on the line keyword; see the file
/// comment for the grammar.
class LineReader {
public:
    explicit LineReader(std::string_view text) : text_(text) { advance(); }

    bool eof() const { return eof_; }
    std::string_view keyword() const { return keyword_; }

    void advance() {
        while (next_ < text_.size()) {
            std::size_t end = text_.find('\n', next_);
            if (end == std::string_view::npos) end = text_.size();
            rest_ = text_.substr(next_, end - next_);
            next_ = end + 1;
            const std::size_t i = rest_.find_first_not_of(" \t\r");
            if (i == std::string_view::npos || rest_[i] == '#') continue;
            token(keyword_);  // no token: the previous keyword stays
            return;
        }
        eof_ = true;
        keyword_ = {};
    }

    /// The next whitespace-delimited token of the current line.
    bool token(std::string_view& out) {
        while (!rest_.empty() && is_space(rest_.front())) rest_.remove_prefix(1);
        std::size_t n = 0;
        while (n < rest_.size() && !is_space(rest_[n])) ++n;
        if (n == 0) return false;
        out = rest_.substr(0, n);
        rest_.remove_prefix(n);
        return true;
    }

    /// The next integer field of the current line.
    template <typename T>
    bool field(T& out) {
        while (!rest_.empty() && is_space(rest_.front())) rest_.remove_prefix(1);
        const bool negative = !rest_.empty() && rest_.front() == '-';
        if (negative || (!rest_.empty() && rest_.front() == '+')) rest_.remove_prefix(1);
        std::uint64_t magnitude = 0;
        const auto [end, ec] =
            std::from_chars(rest_.data(), rest_.data() + rest_.size(), magnitude);
        if (ec != std::errc()) return false;  // no digits, or past 2^64 - 1
        rest_.remove_prefix(static_cast<std::size_t>(end - rest_.data()));
        const std::uint64_t max = static_cast<std::uint64_t>(std::numeric_limits<T>::max());
        if (magnitude > max + (std::is_signed_v<T> && negative ? 1 : 0)) return false;
        out = static_cast<T>(negative ? 0 - magnitude : magnitude);
        return true;
    }

    /// Several integer fields in order; false as soon as one fails.
    template <typename... Ts>
    bool fields(Ts&... out) {
        return (field(out) && ...);
    }

private:
    std::string_view text_;
    std::size_t next_ = 0;    ///< start of the line after the current one
    std::string_view rest_;   ///< unread part of the current line
    std::string_view keyword_;
    bool eof_ = false;
};

bool fail(std::string* error, const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
}

struct Header {
    std::uint64_t v = 0;
    std::size_t data_words = 0;
    std::size_t max_messages = 0;
    std::uint64_t seed = 0;
    std::vector<unsigned> labels;
};

/// Parse the shared v/D/B/seed/steps/labels preamble; stops before the first
/// "event" line.
bool parse_header(LineReader& reader, Header* h, std::string* error) {
    std::size_t steps = 0;
    bool have_steps = false;
    bool have_v = false, have_d = false, have_b = false, have_seed = false,
         have_labels = false;
    // Each section may appear at most once: a duplicate "v"/"labels"/... line
    // in a hand-edited (or adversarial) file silently overriding or extending
    // the earlier one is exactly the kind of ambiguity a strict parser must
    // reject.
    const auto once = [&](bool& seen, const char* what) {
        if (seen) return fail(error, std::string("duplicate ") + what + " line");
        seen = true;
        return true;
    };
    while (!reader.eof()) {
        const std::string_view kw = reader.keyword();
        if (kw == "event" || kw == "end") break;
        if (kw == "v") {
            if (!once(have_v, "v")) return false;
            if (!reader.fields(h->v)) return fail(error, "bad v line");
        } else if (kw == "D") {
            if (!once(have_d, "D")) return false;
            if (!reader.fields(h->data_words)) return fail(error, "bad D line");
        } else if (kw == "B") {
            if (!once(have_b, "B")) return false;
            if (!reader.fields(h->max_messages)) return fail(error, "bad B line");
        } else if (kw == "seed") {
            if (!once(have_seed, "seed")) return false;
            if (!reader.fields(h->seed)) return fail(error, "bad seed line");
        } else if (kw == "steps") {
            if (!once(have_steps, "steps")) return false;
            if (!reader.fields(steps)) return fail(error, "bad steps line");
        } else if (kw == "labels") {
            if (!once(have_labels, "labels")) return false;
            unsigned l = 0;
            while (reader.field(l)) {
                if (h->labels.size() >= kMaxSupersteps) {
                    return fail(error, "too many labels");
                }
                h->labels.push_back(l);
            }
        } else {
            return fail(error, "unknown header keyword: " + std::string(kw));
        }
        reader.advance();
    }
    if (h->v == 0) return fail(error, "missing v");
    if (h->max_messages == 0) return fail(error, "missing B");
    if (!have_steps || h->labels.size() != steps) {
        return fail(error, "steps/labels mismatch");
    }
    if (h->labels.empty()) return fail(error, "no supersteps");
    // Geometry ceilings — checked here, before the caller sizes the
    // steps x v event matrix off these fields.
    if (h->v > kMaxProcessors) return fail(error, "v exceeds parser limit");
    if (h->data_words > kMaxDataWords) return fail(error, "D exceeds parser limit");
    if (h->max_messages > kMaxMessages) return fail(error, "B exceeds parser limit");
    if (h->labels.size() > kMaxSupersteps) {
        return fail(error, "steps exceeds parser limit");
    }
    if (h->labels.size() * h->v > kMaxEventCells) {
        return fail(error, "steps * v exceeds parser limit");
    }
    return true;
}

/// Append \p x in decimal.
void put(std::string& out, std::uint64_t x) {
    char digits[20];
    out.append(digits, std::to_chars(digits, digits + sizeof digits, x).ptr);
}

/// Append one record line: the keyword, " <field>" per field, then '\n'.
template <typename... Ts>
void put_line(std::string& out, std::string_view keyword, Ts... fields) {
    out += keyword;
    ((out += ' ', put(out, fields)), ...);
    out += '\n';
}

void write_header(std::string& out, std::uint64_t v, std::size_t data_words,
                  std::size_t max_messages, std::uint64_t seed,
                  const std::vector<unsigned>& labels) {
    put_line(out, "v", v);
    put_line(out, "D", data_words);
    put_line(out, "B", max_messages);
    if (seed != 0) put_line(out, "seed", seed);
    put_line(out, "steps", labels.size());
    out += "labels";
    for (unsigned l : labels) {
        out += ' ';
        put(out, l);
    }
    out += '\n';
}

}  // namespace

std::string serialize_spec(const ProgramSpec& spec) {
    std::string out;
    out.reserve(kReserveBytes);
    out += kSpecHeader;
    out += "\n# ";
    out += spec.describe();
    out += '\n';
    write_header(out, spec.processors, spec.data_words, spec.max_messages, spec.seed,
                 spec.labels);
    for (StepIndex s = 0; s < spec.events.size(); ++s) {
        for (ProcId p = 0; p < spec.events[s].size(); ++p) {
            const ProgramSpec::Event& ev = spec.events[s][p];
            if (ev.extra_ops == 0 && !ev.read_inbox && !ev.touch_data && ev.sends.empty()) {
                continue;  // all-default events are implicit
            }
            put_line(out, "event", s, p, ev.extra_ops, ev.read_inbox, ev.touch_data,
                     ev.sends.size());
            for (const ProgramSpec::Send& send : ev.sends) {
                put_line(out, "send", send.dest, send.payload0, send.payload1);
            }
        }
    }
    out += "end\n";
    return out;
}

bool parse_spec(const std::string& text, ProgramSpec* out, std::string* error) {
    LineReader reader(text);
    if (reader.eof() || reader.keyword() != "dbsp-spec") {
        return fail(error, "not a dbsp-spec file");
    }
    std::string_view version;
    reader.token(version);
    if (version != "v1") return fail(error, "unsupported dbsp-spec version");
    reader.advance();

    Header h;
    if (!parse_header(reader, &h, error)) return false;
    ProgramSpec spec;
    spec.processors = h.v;
    spec.data_words = h.data_words;
    spec.max_messages = h.max_messages;
    spec.seed = h.seed;
    spec.labels = h.labels;
    spec.events.assign(spec.labels.size(), std::vector<ProgramSpec::Event>(spec.processors));

    while (!reader.eof() && reader.keyword() == "event") {
        StepIndex s = 0;
        ProcId p = 0;
        std::uint64_t extra_ops = 0;
        int read_inbox = 0;
        int touch_data = 0;
        std::size_t nsends = 0;
        if (!reader.fields(s, p, extra_ops, read_inbox, touch_data, nsends)) {
            return fail(error, "bad event line");
        }
        if (s >= spec.labels.size() || p >= spec.processors) {
            return fail(error, "event index out of range");
        }
        ProgramSpec::Event& ev = spec.events[s][p];
        ev.extra_ops = extra_ops;
        ev.read_inbox = read_inbox != 0;
        ev.touch_data = touch_data != 0;
        reader.advance();
        for (std::size_t k = 0; k < nsends; ++k) {
            if (reader.eof() || reader.keyword() != "send") {
                return fail(error, "missing send line");
            }
            ProgramSpec::Send send;
            if (!reader.fields(send.dest, send.payload0, send.payload1)) {
                return fail(error, "bad send line");
            }
            ev.sends.push_back(send);
            reader.advance();
        }
    }
    if (reader.eof() || reader.keyword() != "end") return fail(error, "missing end line");

    std::string why;
    if (!spec_valid(spec, &why)) return fail(error, "invalid spec: " + why);
    *out = std::move(spec);
    return true;
}

std::string serialize_trace(const model::Trace& trace) {
    std::string out;
    out.reserve(kReserveBytes);
    out += kTraceHeader;
    out += '\n';
    write_header(out, trace.processors, trace.data_words, trace.max_messages, /*seed=*/0,
                 trace.labels);
    for (StepIndex s = 0; s < trace.events.size(); ++s) {
        for (ProcId p = 0; p < trace.events[s].size(); ++p) {
            const model::Trace::Event& ev = trace.events[s][p];
            if (ev.ops == 0 && !ev.read_inbox && ev.messages.empty()) continue;
            put_line(out, "event", s, p, ev.ops, ev.read_inbox, ev.messages.size());
            for (const Message& m : ev.messages) {
                put_line(out, "msg", m.src, m.dest, m.payload0, m.payload1);
            }
        }
    }
    out += "end\n";
    return out;
}

bool parse_trace(const std::string& text, model::Trace* out, std::string* error) {
    LineReader reader(text);
    if (reader.eof() || reader.keyword() != "dbsp-trace") {
        return fail(error, "not a dbsp-trace file");
    }
    std::string_view version;
    reader.token(version);
    if (version != "v2") return fail(error, "unsupported dbsp-trace version");
    reader.advance();

    Header h;
    if (!parse_header(reader, &h, error)) return false;
    model::Trace trace;
    trace.processors = h.v;
    trace.max_messages = h.max_messages;
    trace.data_words = h.data_words == 0 ? 2 : h.data_words;
    trace.labels = h.labels;
    if (trace.labels.back() != 0) return fail(error, "last label != 0");
    trace.events.assign(trace.labels.size(),
                        std::vector<model::Trace::Event>(trace.processors));

    while (!reader.eof() && reader.keyword() == "event") {
        StepIndex s = 0;
        ProcId p = 0;
        std::uint64_t ops = 0;
        int read_inbox = 0;
        std::size_t nmsgs = 0;
        if (!reader.fields(s, p, ops, read_inbox, nmsgs)) {
            return fail(error, "bad event line");
        }
        if (s >= trace.labels.size() || p >= trace.processors) {
            return fail(error, "event index out of range");
        }
        model::Trace::Event& ev = trace.events[s][p];
        ev.ops = ops;
        ev.read_inbox = read_inbox != 0;
        reader.advance();
        for (std::size_t k = 0; k < nmsgs; ++k) {
            if (reader.eof() || reader.keyword() != "msg") {
                return fail(error, "missing msg line");
            }
            Message m;
            if (!reader.fields(m.src, m.dest, m.payload0, m.payload1)) {
                return fail(error, "bad msg line");
            }
            if (m.dest >= trace.processors) return fail(error, "msg dest out of range");
            ev.messages.push_back(m);
            reader.advance();
        }
    }
    if (reader.eof() || reader.keyword() != "end") return fail(error, "missing end line");
    *out = std::move(trace);
    return true;
}

std::unique_ptr<model::Program> Repro::make_program() const {
    if (spec.has_value()) return std::make_unique<GeneratedProgram>(*spec);
    if (trace.has_value()) return std::make_unique<model::RecordedProgram>(*trace);
    return nullptr;
}

bool parse_repro(const std::string& text, Repro* out, std::string* error) {
    // Sniff the first non-blank, non-comment line.
    LineReader reader(text);
    if (reader.eof()) return fail(error, "empty repro");
    if (reader.keyword() == "dbsp-spec") {
        ProgramSpec spec;
        if (!parse_spec(text, &spec, error)) return false;
        out->spec = std::move(spec);
        out->trace.reset();
        return true;
    }
    if (reader.keyword() == "dbsp-trace") {
        model::Trace trace;
        if (!parse_trace(text, &trace, error)) return false;
        out->trace = std::move(trace);
        out->spec.reset();
        return true;
    }
    return fail(error, "unrecognized repro header: " + std::string(reader.keyword()));
}

bool load_repro_file(const std::string& path, Repro* out, std::string* error) {
    std::ifstream in(path);
    if (!in) return fail(error, "cannot open " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse_repro(buf.str(), out, error);
}

void mutate(std::string* text, SplitMix64& rng) {
    if (text->empty()) {
        text->assign(1, 'x');
        return;
    }
    switch (rng.next_below(6)) {
        case 0: {  // flip one byte
            (*text)[rng.next_below(text->size())] =
                static_cast<char>(rng.next_below(256));
            break;
        }
        case 1: {  // truncate
            text->resize(rng.next_below(text->size()));
            break;
        }
        case 2: {  // duplicate a random line (header sections included)
            const std::size_t at = rng.next_below(text->size());
            const std::size_t begin = text->rfind('\n', at) + 1;  // npos+1 == 0
            std::size_t end = text->find('\n', at);
            if (end == std::string::npos) end = text->size();
            const std::string line = text->substr(begin, end - begin) + "\n";
            text->insert(begin, line);
            break;
        }
        case 3: {  // splice a huge count over a random position
            static const char* kHuge[] = {"1152921504606846976", "18446744073709551615",
                                          "99999999999999999999", "-1"};
            text->insert(rng.next_below(text->size()), kHuge[rng.next_below(4)]);
            break;
        }
        case 4: {  // delete a random chunk
            const std::size_t begin = rng.next_below(text->size());
            const std::size_t len = 1 + rng.next_below(text->size() - begin);
            text->erase(begin, len);
            break;
        }
        case 5: {  // splice a keyword somewhere
            static const char* kWords[] = {"\nevent ", "\nsend ", "\nlabels ", "\nend\n",
                                           "\nv ",     "\nmsg ",  " "};
            text->insert(rng.next_below(text->size()), kWords[rng.next_below(7)]);
            break;
        }
    }
}

}  // namespace dbsp::check
