#include "capbench/report/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace capbench::report {

namespace {

[[noreturn]] void kind_error(const char* wanted) {
    throw std::runtime_error(std::string("json: value is not ") + wanted);
}

void append_escaped(std::string& out, std::string_view s) {
    static constexpr char kHex[] = "0123456789abcdef";
    out += '"';
    // Characters that need no escape are appended in runs.
    std::size_t run = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        const auto c = static_cast<unsigned char>(s[i]);
        if (c >= 0x20 && c != '"' && c != '\\') [[likely]] continue;
        out.append(s, run, i - run);
        run = i + 1;
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            case '\b': out += "\\b"; break;
            case '\f': out += "\\f"; break;
            default: {
                const char esc[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
                out.append(esc, sizeof esc);
            }
        }
    }
    out.append(s, run, s.size() - run);
    out += '"';
}

void append_int(std::string& out, std::int64_t i) {
    char buf[24];  // INT64_MIN takes 20
    const auto res = std::to_chars(buf, buf + sizeof buf, i);
    out.append(buf, res.ptr);
}

void append_double(std::string& out, double d) {
    if (!std::isfinite(d)) {
        // JSON has no Infinity/NaN; null is the conventional stand-in.
        out += "null";
        return;
    }
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, d);
    const std::string_view text(buf, static_cast<std::size_t>(res.ptr - buf));
    out += text;
    // Keep doubles distinguishable from integers on re-parse.
    if (text.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

/// Serializes one document into `out`, each newline with its indentation
/// in one append.
class Dumper {
public:
    Dumper(std::string& out, int indent) : out_(out), indent_(std::max(indent, 0)) {}

    void dump(const JsonValue& v) { value(v, 0); }

private:
    void newline(int level) {
        if (indent_ <= 0) return;
        const std::size_t n = 1 + static_cast<std::size_t>(level * indent_);
        if (pad_.size() < n) pad_.resize(n, ' ');
        out_.append(pad_, 0, n);
    }

    void value(const JsonValue& v, int depth) {
        if (v.is_null()) {
            out_ += "null";
        } else if (v.is_bool()) {
            out_ += v.as_bool() ? "true" : "false";
        } else if (v.is_int()) {
            append_int(out_, v.as_int());
        } else if (v.is_double()) {
            append_double(out_, v.as_double());
        } else if (v.is_string()) {
            append_escaped(out_, v.as_string());
        } else if (v.is_array()) {
            const auto& a = v.as_array();
            if (a.empty()) {
                out_ += "[]";
                return;
            }
            out_ += '[';
            for (std::size_t i = 0; i < a.size(); ++i) {
                if (i > 0) out_ += ',';
                newline(depth + 1);
                value(a[i], depth + 1);
            }
            newline(depth);
            out_ += ']';
        } else {
            const auto& o = v.as_object();
            if (o.empty()) {
                out_ += "{}";
                return;
            }
            out_ += '{';
            for (std::size_t i = 0; i < o.size(); ++i) {
                if (i > 0) out_ += ',';
                newline(depth + 1);
                append_escaped(out_, o[i].first);
                out_ += indent_ > 0 ? ": " : ":";
                value(o[i].second, depth + 1);
            }
            newline(depth);
            out_ += '}';
        }
    }

    std::string& out_;
    int indent_;
    std::string pad_ = "\n";  // a newline and the deepest indentation so far
};

class Parser {
public:
    explicit Parser(std::string_view text) : text_(text) {}

    JsonValue parse_document() {
        JsonValue v = parse_value(0);
        skip_ws();
        if (pos_ != text_.size()) fail("trailing characters after document");
        return v;
    }

private:
    static constexpr int kMaxDepth = 256;

    [[noreturn]] void fail(const std::string& what) const {
        throw std::runtime_error("json parse error at offset " + std::to_string(pos_) + ": " +
                                 what);
    }

    void skip_ws() {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= text_.size()) fail("unexpected end of input");
        return text_[pos_];
    }

    void expect(char c) {
        if (peek() != c) fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool consume_literal(std::string_view lit) {
        if (text_.substr(pos_, lit.size()) != lit) return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue parse_value(int depth) {
        if (depth > kMaxDepth) fail("document nested too deeply");
        skip_ws();
        const char c = peek();
        switch (c) {
            case '{': return parse_object(depth);
            case '[': return parse_array(depth);
            case '"': return JsonValue{parse_string()};
            case 't':
                if (consume_literal("true")) return JsonValue{true};
                fail("invalid literal");
            case 'f':
                if (consume_literal("false")) return JsonValue{false};
                fail("invalid literal");
            case 'n':
                if (consume_literal("null")) return JsonValue{nullptr};
                fail("invalid literal");
            default: return parse_number();
        }
    }

    JsonValue parse_object(int depth) {
        expect('{');
        JsonValue::Object members;
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return JsonValue{std::move(members)};
        }
        for (;;) {
            skip_ws();
            std::string key = parse_string();
            for (const auto& [existing, unused] : members) {
                (void)unused;
                if (existing == key) fail("duplicate object key '" + key + "'");
            }
            skip_ws();
            expect(':');
            members.emplace_back(std::move(key), parse_value(depth + 1));
            skip_ws();
            const char next = peek();
            if (next == ',') {
                ++pos_;
                continue;
            }
            if (next == '}') {
                ++pos_;
                return JsonValue{std::move(members)};
            }
            fail("expected ',' or '}' in object");
        }
    }

    JsonValue parse_array(int depth) {
        expect('[');
        JsonValue::Array elements;
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return JsonValue{std::move(elements)};
        }
        for (;;) {
            elements.push_back(parse_value(depth + 1));
            skip_ws();
            const char next = peek();
            if (next == ',') {
                ++pos_;
                continue;
            }
            if (next == ']') {
                ++pos_;
                return JsonValue{std::move(elements)};
            }
            fail("expected ',' or ']' in array");
        }
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20) fail("unescaped control character");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size()) fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'u': out += parse_unicode_escape(); break;
                default: fail("invalid escape");
            }
        }
    }

    std::string parse_unicode_escape() {
        if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            code <<= 4;
            if (c >= '0' && c <= '9')
                code |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                code |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                code |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("invalid \\u escape digit");
        }
        // UTF-8 encode the BMP code point (surrogate pairs are not needed
        // for anything capbench emits; reject them outright).
        if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate \\u escapes unsupported");
        std::string out;
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
        return out;
    }

    JsonValue parse_number() {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
        bool is_double = false;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
                is_double = true;
                ++pos_;
            } else {
                break;
            }
        }
        const std::string_view token = text_.substr(start, pos_ - start);
        if (token.empty() || token == "-") fail("invalid number");
        if (!is_double) {
            std::int64_t i = 0;
            const auto res = std::from_chars(token.data(), token.data() + token.size(), i);
            if (res.ec == std::errc{} && res.ptr == token.data() + token.size())
                return JsonValue{i};
            // fall through: out-of-range integers become doubles
        }
        double d = 0.0;
        const auto res = std::from_chars(token.data(), token.data() + token.size(), d);
        if (res.ec != std::errc{} || res.ptr != token.data() + token.size())
            fail("invalid number '" + std::string(token) + "'");
        return JsonValue{d};
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

}  // namespace

bool JsonValue::as_bool() const {
    if (!is_bool()) kind_error("a bool");
    return std::get<bool>(value_);
}

std::int64_t JsonValue::as_int() const {
    if (!is_int()) kind_error("an integer");
    return std::get<std::int64_t>(value_);
}

double JsonValue::as_double() const {
    if (is_int()) return static_cast<double>(std::get<std::int64_t>(value_));
    if (!is_double()) kind_error("a number");
    return std::get<double>(value_);
}

const std::string& JsonValue::as_string() const {
    if (!is_string()) kind_error("a string");
    return std::get<std::string>(value_);
}

const JsonValue::Array& JsonValue::as_array() const {
    if (!is_array()) kind_error("an array");
    return std::get<Array>(value_);
}

const JsonValue::Object& JsonValue::as_object() const {
    if (!is_object()) kind_error("an object");
    return std::get<Object>(value_);
}

const JsonValue* JsonValue::find(std::string_view key) const {
    if (!is_object()) return nullptr;
    for (const auto& [k, v] : std::get<Object>(value_))
        if (k == key) return &v;
    return nullptr;
}

const JsonValue& JsonValue::at(std::string_view key) const {
    const JsonValue* v = find(key);
    if (v == nullptr)
        throw std::runtime_error("json: missing object member '" + std::string(key) + "'");
    return *v;
}

void JsonValue::set(std::string key, JsonValue value) {
    if (!is_object()) kind_error("an object");
    std::get<Object>(value_).emplace_back(std::move(key), std::move(value));
}

void JsonValue::push_back(JsonValue value) {
    if (!is_array()) kind_error("an array");
    std::get<Array>(value_).push_back(std::move(value));
}

std::string dump_json(const JsonValue& value, int indent) {
    std::string out;
    Dumper{out, indent}.dump(value);
    return out;
}

JsonValue parse_json(std::string_view text) { return Parser{text}.parse_document(); }

}  // namespace capbench::report
