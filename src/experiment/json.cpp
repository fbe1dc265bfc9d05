#include "experiment/json.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "experiment/atomic_file.hpp"

namespace hap::experiment {

Json Json::boolean(bool b) {
    Json j;
    j.type_ = Type::Bool;
    j.bool_ = b;
    return j;
}

Json Json::number(double v) {
    Json j;
    j.type_ = Type::Number;
    j.num_ = v;
    return j;
}

Json Json::integer(std::int64_t v) {
    Json j;
    j.type_ = Type::Int;
    j.int_ = v;
    return j;
}

Json Json::string(std::string s) {
    Json j;
    j.type_ = Type::String;
    j.str_ = std::move(s);
    return j;
}

Json Json::array() {
    Json j;
    j.type_ = Type::Array;
    return j;
}

Json Json::object() {
    Json j;
    j.type_ = Type::Object;
    return j;
}

Json& Json::set(const std::string& key, Json value) {
    if (type_ != Type::Object) throw std::logic_error("Json::set on non-object");
    for (auto& [k, v] : members_) {
        if (k == key) {
            v = std::move(value);
            return *this;
        }
    }
    members_.emplace_back(key, std::move(value));
    return *this;
}

Json& Json::add(Json value) {
    if (type_ != Type::Array) throw std::logic_error("Json::add on non-array");
    items_.push_back(std::move(value));
    return *this;
}

const Json* Json::find(std::string_view key) const noexcept {
    if (type_ != Type::Object) return nullptr;
    for (const auto& [k, v] : members_)
        if (k == key) return &v;
    return nullptr;
}

const Json& Json::at(std::string_view key) const {
    const Json* v = find(key);
    if (v == nullptr) throw std::out_of_range("Json::at: no key " + std::string(key));
    return *v;
}

std::size_t Json::size() const noexcept {
    if (type_ == Type::Array) return items_.size();
    if (type_ == Type::Object) return members_.size();
    return 0;
}

double Json::as_number() const {
    if (type_ == Type::Number) return num_;
    if (type_ == Type::Int) return static_cast<double>(int_);
    throw std::logic_error("Json::as_number on non-number");
}

std::int64_t Json::as_int() const {
    if (type_ != Type::Int) throw std::logic_error("Json::as_int on non-integer");
    return int_;
}

std::uint64_t Json::as_uint() const {
    const std::int64_t v = as_int();
    if (v < 0) throw std::logic_error("Json::as_uint on negative integer");
    return static_cast<std::uint64_t>(v);
}

const std::string& Json::as_string() const {
    if (type_ != Type::String) throw std::logic_error("Json::as_string on non-string");
    return str_;
}

bool Json::as_bool() const {
    if (type_ != Type::Bool) throw std::logic_error("Json::as_bool on non-bool");
    return bool_;
}

namespace {

// Recursive-descent parser over the builder's own value model. Strict JSON
// (no comments, no trailing commas); a depth limit keeps hostile nesting from
// overflowing the stack.
class Parser {
public:
    explicit Parser(std::string_view text) : s_(text) {}

    Json run() {
        Json v = value(0);
        skip_ws();
        if (pos_ != s_.size()) fail("trailing content");
        return v;
    }

private:
    static constexpr int kMaxDepth = 128;

    [[noreturn]] void fail(const char* what) const {
        throw std::invalid_argument("Json::parse: " + std::string(what) +
                                    " at offset " + std::to_string(pos_));
    }

    void skip_ws() {
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
            ++pos_;
        }
    }

    char peek() {
        if (pos_ >= s_.size()) fail("unexpected end of input");
        return s_[pos_];
    }

    void expect(char c) {
        if (pos_ >= s_.size() || s_[pos_] != c) fail("unexpected character");
        ++pos_;
    }

    bool consume_literal(std::string_view lit) {
        if (s_.compare(pos_, lit.size(), lit) != 0) return false;
        pos_ += lit.size();
        return true;
    }

    Json value(int depth) {
        if (depth > kMaxDepth) fail("nesting too deep");
        skip_ws();
        const char c = peek();
        switch (c) {
            case '{': return object(depth);
            case '[': return array(depth);
            case '"': return Json::string(string_token());
            case 't':
                if (!consume_literal("true")) fail("bad literal");
                return Json::boolean(true);
            case 'f':
                if (!consume_literal("false")) fail("bad literal");
                return Json::boolean(false);
            case 'n':
                if (!consume_literal("null")) fail("bad literal");
                return Json::null();
            default: return number_token();
        }
    }

    Json object(int depth) {
        expect('{');
        Json obj = Json::object();
        skip_ws();
        if (peek() == '}') {
            ++pos_;
            return obj;
        }
        for (;;) {
            skip_ws();
            if (peek() != '"') fail("expected object key");
            std::string key = string_token();
            skip_ws();
            expect(':');
            obj.set(key, value(depth + 1));
            skip_ws();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return obj;
            }
            fail("expected ',' or '}'");
        }
    }

    Json array(int depth) {
        expect('[');
        Json arr = Json::array();
        skip_ws();
        if (peek() == ']') {
            ++pos_;
            return arr;
        }
        for (;;) {
            arr.add(value(depth + 1));
            skip_ws();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return arr;
            }
            fail("expected ',' or ']'");
        }
    }

    void append_utf8(std::string& out, unsigned cp) {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    unsigned hex4() {
        if (pos_ + 4 > s_.size()) fail("truncated \\u escape");
        unsigned cp = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = s_[pos_++];
            cp <<= 4;
            if (c >= '0' && c <= '9')
                cp |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                cp |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                cp |= static_cast<unsigned>(c - 'A' + 10);
            else
                fail("bad \\u escape");
        }
        return cp;
    }

    std::string string_token() {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size()) fail("unterminated string");
            const char c = s_[pos_++];
            if (c == '"') return out;
            if (static_cast<unsigned char>(c) < 0x20) fail("raw control character");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size()) fail("truncated escape");
            const char e = s_[pos_++];
            switch (e) {
                case '"': out += '"'; break;
                case '\\': out += '\\'; break;
                case '/': out += '/'; break;
                case 'b': out += '\b'; break;
                case 'f': out += '\f'; break;
                case 'n': out += '\n'; break;
                case 'r': out += '\r'; break;
                case 't': out += '\t'; break;
                case 'u': {
                    unsigned cp = hex4();
                    if (cp >= 0xD800 && cp <= 0xDBFF) {
                        // Surrogate pair.
                        if (pos_ + 1 >= s_.size() || s_[pos_] != '\\' ||
                            s_[pos_ + 1] != 'u')
                            fail("unpaired surrogate");
                        pos_ += 2;
                        const unsigned lo = hex4();
                        if (lo < 0xDC00 || lo > 0xDFFF) fail("bad low surrogate");
                        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                        fail("unpaired surrogate");
                    }
                    append_utf8(out, cp);
                    break;
                }
                default: fail("bad escape");
            }
        }
    }

    Json number_token() {
        const std::size_t start = pos_;
        if (pos_ < s_.size() && s_[pos_] == '-') ++pos_;
        bool integral = true;
        while (pos_ < s_.size()) {
            const char c = s_[pos_];
            if (c >= '0' && c <= '9') {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        const char* first = s_.data() + start;
        const char* last = s_.data() + pos_;
        if (first == last) fail("expected value");
        if (integral) {
            std::int64_t iv = 0;
            const auto res = std::from_chars(first, last, iv);
            if (res.ec == std::errc() && res.ptr == last) return Json::integer(iv);
            // Out-of-range integers fall through to the double path.
        }
        double dv = 0.0;
        const auto res = std::from_chars(first, last, dv);
        if (res.ec != std::errc() || res.ptr != last) fail("bad number");
        return Json::number(dv);
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).run(); }

void append_json_string(std::string& out, std::string_view s) {
    out += '"';
    for (char c : s) {
        const auto u = static_cast<unsigned char>(c);
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\r': out += "\\r"; break;
            case '\t': out += "\\t"; break;
            default:
                if (u < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof(buf), "\\u%04x", u);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    out += '"';
}

void append_json_number(std::string& out, double v) {
    if (!std::isfinite(v)) {
        out += "null";  // JSON has no NaN/Inf
        return;
    }
    // Shortest round-trip representation.
    char buf[32];
    const auto res = std::to_chars(buf, buf + sizeof(buf), v);
    out.append(buf, res.ptr);
}

namespace {

void newline_indent(std::string& out, int indent, int depth) {
    if (indent <= 0) return;
    out += '\n';
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(depth), ' ');
}

}  // namespace

void Json::write(std::string& out, int indent, int depth) const {
    switch (type_) {
        case Type::Null:
            out += "null";
            break;
        case Type::Bool:
            out += bool_ ? "true" : "false";
            break;
        case Type::Number:
            append_json_number(out, num_);
            break;
        case Type::Int: {
            char buf[24];
            const auto res = std::to_chars(buf, buf + sizeof(buf), int_);
            out.append(buf, res.ptr);
            break;
        }
        case Type::String:
            append_json_string(out, str_);
            break;
        case Type::Array: {
            if (items_.empty()) {
                out += "[]";
                break;
            }
            out += '[';
            for (std::size_t i = 0; i < items_.size(); ++i) {
                if (i > 0) out += ',';
                newline_indent(out, indent, depth + 1);
                items_[i].write(out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out += ']';
            break;
        }
        case Type::Object: {
            if (members_.empty()) {
                out += "{}";
                break;
            }
            out += '{';
            for (std::size_t i = 0; i < members_.size(); ++i) {
                if (i > 0) out += ',';
                newline_indent(out, indent, depth + 1);
                append_json_string(out, members_[i].first);
                out += indent > 0 ? ": " : ":";
                members_[i].second.write(out, indent, depth + 1);
            }
            newline_indent(out, indent, depth);
            out += '}';
            break;
        }
    }
}

std::string Json::dump(int indent) const {
    std::string out;
    write(out, indent, 0);
    return out;
}

bool write_json_file(const std::string& path, const Json& doc) {
    return atomic_write_file(path, doc.dump(2) + "\n");
}

}  // namespace hap::experiment
