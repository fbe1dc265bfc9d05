// Minimal JSON document builder + parser for machine-readable experiment
// results and checkpoints. Deliberately tiny (no external dependency):
// objects keep insertion order so the emitted schema is stable and diffable
// across runs, and doubles round-trip exactly (std::to_chars shortest form
// out, std::from_chars back in), which is what makes checkpoint resume
// bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hap::experiment {

class Json {
public:
    enum class Type { Null, Bool, Number, Int, String, Array, Object };

    Json() noexcept : type_(Type::Null) {}

    static Json null() { return Json(); }
    static Json boolean(bool b);
    static Json number(double v);  // non-finite values serialize as null
    static Json integer(std::int64_t v);
    static Json integer(std::uint64_t v) { return integer(static_cast<std::int64_t>(v)); }
    static Json string(std::string s);
    static Json array();
    static Json object();

    Type type() const noexcept { return type_; }
    bool is_null() const noexcept { return type_ == Type::Null; }
    bool is_object() const noexcept { return type_ == Type::Object; }
    bool is_string() const noexcept { return type_ == Type::String; }
    bool is_bool() const noexcept { return type_ == Type::Bool; }
    bool is_number() const noexcept {
        return type_ == Type::Number || type_ == Type::Int;
    }

    // Object: insert or overwrite a key (insertion order preserved).
    Json& set(const std::string& key, Json value);
    // Array: append an element.
    Json& add(Json value);

    // --- Read access (for parsed documents) ---
    // Object lookup: nullptr when absent or when this is not an object.
    const Json* find(std::string_view key) const noexcept;
    // Object lookup that throws std::out_of_range when the key is absent.
    const Json& at(std::string_view key) const;
    // Array / object element count (0 for scalars).
    std::size_t size() const noexcept;
    const std::vector<Json>& items() const noexcept { return items_; }
    const std::vector<std::pair<std::string, Json>>& members() const noexcept {
        return members_;
    }
    // Scalar extractors; throw std::logic_error on a type mismatch.
    double as_number() const;            // Number or Int
    std::int64_t as_int() const;         // Int only
    std::uint64_t as_uint() const;       // nonnegative Int
    const std::string& as_string() const;
    bool as_bool() const;

    // Parse one JSON document (the whole string must be consumed apart from
    // trailing whitespace). Throws std::invalid_argument on malformed input.
    static Json parse(std::string_view text);

    // Serialize; indent > 0 pretty-prints with that many spaces per level.
    std::string dump(int indent = 2) const;

private:
    void write(std::string& out, int indent, int depth) const;

    Type type_;
    bool bool_ = false;
    double num_ = 0.0;
    std::int64_t int_ = 0;
    std::string str_;
    std::vector<Json> items_;                              // Array
    std::vector<std::pair<std::string, Json>> members_;    // Object
};

// Append exactly the bytes Json::dump writes for a string (quoted, escaped)
// or a double (shortest round-trip; non-finite as null), without building a
// Json. Callers that splice JSON text by hand go through these so their
// bytes cannot drift from the document writer's.
void append_json_string(std::string& out, std::string_view s);
void append_json_number(std::string& out, double v);

// Write `doc` to `path` (pretty-printed, trailing newline) atomically via
// experiment::atomic_write_file; false on I/O error, in which case `path` is
// left untouched.
bool write_json_file(const std::string& path, const Json& doc);

}  // namespace hap::experiment
