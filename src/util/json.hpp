// Minimal JSON document type for the machine-readable benchmark output.
//
// The bench binaries write --json reports, perfbench writes its run
// records, and the test suite round-trips every report (emit -> parse ->
// field-by-field compare), so this module carries both a serializer and a
// parser.  Scope is deliberately small: the six JSON value kinds,
// order-preserving objects (stable artifact diffs), exact double
// round-tripping, and NaN/Inf mapped to `null` on output (JSON has no
// representation for them; `null` is the schema's "no data" marker).
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace lcrq {

class Json {
  public:
    using Array = std::vector<Json>;
    // Insertion-ordered key/value pairs; lookups are linear, which is fine
    // at report sizes (tens of keys).
    using Object = std::vector<std::pair<std::string, Json>>;

    Json() = default;  // null
    Json(std::nullptr_t) {}
    Json(bool b) : v_(b) {}
    // NaN/Inf normalize to null at construction (JSON cannot represent
    // them; null is the schema's "no data"), so the in-memory value always
    // matches what dump() emits and parse(dump(x)) == x holds.
    Json(double d) {
        if (std::isfinite(d)) v_ = d;
    }
    Json(int n) : v_(static_cast<double>(n)) {}
    Json(std::int64_t n) : v_(static_cast<double>(n)) {}
    Json(std::uint64_t n) : v_(static_cast<double>(n)) {}
    Json(std::string s) : v_(std::move(s)) {}
    Json(std::string_view s) : v_(std::string(s)) {}
    Json(const char* s) : v_(std::string(s)) {}

    static Json array() {
        Json j;
        j.v_ = Array{};
        return j;
    }
    static Json object() {
        Json j;
        j.v_ = Object{};
        return j;
    }

    bool is_null() const noexcept { return std::holds_alternative<std::monostate>(v_); }
    bool is_bool() const noexcept { return std::holds_alternative<bool>(v_); }
    bool is_number() const noexcept { return std::holds_alternative<double>(v_); }
    bool is_string() const noexcept { return std::holds_alternative<std::string>(v_); }
    bool is_array() const noexcept { return std::holds_alternative<Array>(v_); }
    bool is_object() const noexcept { return std::holds_alternative<Object>(v_); }

    bool as_bool(bool def = false) const noexcept {
        return is_bool() ? std::get<bool>(v_) : def;
    }
    double as_double(double def = 0.0) const noexcept {
        return is_number() ? std::get<double>(v_) : def;
    }
    std::int64_t as_int(std::int64_t def = 0) const noexcept {
        return is_number() ? static_cast<std::int64_t>(std::get<double>(v_)) : def;
    }
    const std::string& as_string() const noexcept {
        static const std::string empty;
        return is_string() ? std::get<std::string>(v_) : empty;
    }

    // --- object interface --------------------------------------------------
    // set() overwrites an existing key; calling it on a non-object turns the
    // value into an object (convenient for building documents field by field).
    Json& set(std::string_view key, Json value);
    const Json* find(std::string_view key) const noexcept;
    // Null-object pattern: missing keys read as JSON null.
    const Json& at(std::string_view key) const noexcept;
    const Object& members() const noexcept {
        static const Object empty;
        return is_object() ? std::get<Object>(v_) : empty;
    }

    // --- array interface ---------------------------------------------------
    Json& push_back(Json value);
    const Array& items() const noexcept {
        static const Array empty;
        return is_array() ? std::get<Array>(v_) : empty;
    }
    std::size_t size() const noexcept {
        return is_array() ? items().size() : (is_object() ? members().size() : 0);
    }

    // Structural equality (arrays ordered, objects compared as ordered
    // key/value sequences) — exactly what the round-trip tests need.
    bool operator==(const Json& other) const noexcept { return v_ == other.v_; }

    // Serialize.  indent > 0 pretty-prints with that many spaces per level;
    // indent == 0 emits one line.  Doubles print with enough digits to
    // round-trip exactly; integral values within 2^53 print without a
    // fraction part.  NaN/Inf serialize as `null`.
    std::string dump(int indent = 2) const;

    // Parse a complete JSON document (trailing whitespace allowed, trailing
    // garbage rejected).  Returns nullopt on any syntax error.
    static std::optional<Json> parse(std::string_view text);

  private:
    std::variant<std::monostate, bool, double, std::string, Array, Object> v_;
};

}  // namespace lcrq
