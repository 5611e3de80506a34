// stgcc -- minimal ordered JSON value tree for the observability layer.
//
// The repo deliberately carries no third-party JSON dependency; this small
// tree type covers everything the tracer, the metrics registry, the
// `stgcheck --json` report, the bench harness and the on-disk result cache
// (src/cache/) need: build a value, `dump()` it, `parse()` it back.  Object
// keys keep insertion order so exported reports and golden files are
// byte-stable across runs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace stgcc::obs {

class Json {
public:
    enum class Kind { Null, Bool, Int, Uint, Double, String, Array, Object };

    Json() : kind_(Kind::Null) {}
    Json(bool v) : kind_(Kind::Bool), bool_(v) {}
    Json(const char* v) : kind_(Kind::String), str_(v) {}
    Json(std::string v) : kind_(Kind::String), str_(std::move(v)) {}

    /// Numeric constructor; picks Int / Uint / Double by static type.
    template <class T,
              std::enable_if_t<std::is_arithmetic_v<T> && !std::is_same_v<T, bool>,
                               int> = 0>
    Json(T v) {
        if constexpr (std::is_floating_point_v<T>) {
            kind_ = Kind::Double;
            dbl_ = static_cast<double>(v);
        } else if constexpr (std::is_signed_v<T>) {
            kind_ = Kind::Int;
            int_ = static_cast<std::int64_t>(v);
        } else {
            kind_ = Kind::Uint;
            uint_ = static_cast<std::uint64_t>(v);
        }
    }

    [[nodiscard]] static Json object() {
        Json j;
        j.kind_ = Kind::Object;
        return j;
    }
    [[nodiscard]] static Json array() {
        Json j;
        j.kind_ = Kind::Array;
        return j;
    }

    [[nodiscard]] Kind kind() const noexcept { return kind_; }

    // Value accessors.  Wrong-kind access returns the type's default value
    // (consumers such as the result cache treat malformed documents as
    // misses, so these are deliberately forgiving rather than throwing).
    [[nodiscard]] bool as_bool() const noexcept {
        return kind_ == Kind::Bool && bool_;
    }
    [[nodiscard]] std::int64_t as_int() const noexcept {
        if (kind_ == Kind::Int) return int_;
        if (kind_ == Kind::Uint) return static_cast<std::int64_t>(uint_);
        if (kind_ == Kind::Double) return static_cast<std::int64_t>(dbl_);
        return 0;
    }
    [[nodiscard]] std::uint64_t as_uint() const noexcept {
        if (kind_ == Kind::Uint) return uint_;
        if (kind_ == Kind::Int && int_ >= 0)
            return static_cast<std::uint64_t>(int_);
        if (kind_ == Kind::Double && dbl_ >= 0)
            return static_cast<std::uint64_t>(dbl_);
        return 0;
    }
    [[nodiscard]] double as_double() const noexcept {
        if (kind_ == Kind::Double) return dbl_;
        if (kind_ == Kind::Int) return static_cast<double>(int_);
        if (kind_ == Kind::Uint) return static_cast<double>(uint_);
        return 0.0;
    }
    [[nodiscard]] const std::string& as_string() const noexcept { return str_; }

    /// Array element access; requires kind() == Array and i < size().
    [[nodiscard]] const Json& at(std::size_t i) const { return items_[i]; }

    /// Object member access by insertion index (key, value).
    [[nodiscard]] const std::pair<std::string, Json>& member(std::size_t i) const {
        return members_[i];
    }

    /// Object insertion (keeps insertion order); returns *this for chaining.
    Json& set(std::string key, Json value) {
        members_.emplace_back(std::move(key), std::move(value));
        return *this;
    }

    /// Append every member of `other` (no-op unless it is an object);
    /// returns *this for chaining.
    Json& merge(const Json& other) {
        if (other.kind_ == Kind::Object)
            members_.insert(members_.end(), other.members_.begin(),
                            other.members_.end());
        return *this;
    }

    /// Array append; returns *this for chaining.
    Json& push(Json value) {
        items_.push_back(std::move(value));
        return *this;
    }

    [[nodiscard]] std::size_t size() const noexcept {
        return kind_ == Kind::Object ? members_.size() : items_.size();
    }

    /// Object member lookup; nullptr when absent (or not an object).
    [[nodiscard]] const Json* find(const std::string& key) const {
        for (const auto& [k, v] : members_)
            if (k == key) return &v;
        return nullptr;
    }

    /// Serialise.  indent == 0 emits a single line; indent > 0 pretty-prints
    /// with that many spaces per nesting level.
    [[nodiscard]] std::string dump(int indent = 0) const;

    /// JSON string escaping ('"', '\\', control characters).
    [[nodiscard]] static std::string escape(const std::string& s);

    /// Parse a JSON document.  Returns nullopt on any syntax error (no
    /// exceptions: the result cache treats unreadable entries as misses).
    /// Accepts exactly what dump() produces plus arbitrary whitespace and
    /// the standard escape set; numbers without '.', 'e' or sign parse as
    /// Uint, with a leading '-' as Int, otherwise as Double.
    [[nodiscard]] static std::optional<Json> parse(const std::string& text);

private:
    void dump_to(std::string& out, int indent, int depth) const;

    Kind kind_;
    bool bool_ = false;
    std::int64_t int_ = 0;
    std::uint64_t uint_ = 0;
    double dbl_ = 0.0;
    std::string str_;
    std::vector<Json> items_;                            // Array
    std::vector<std::pair<std::string, Json>> members_;  // Object
};

/// Write `j` to `path` (pretty-printed, trailing newline).  Returns false on
/// IO failure instead of throwing: observability must never kill a check.
bool save_json(const std::string& path, const Json& j, int indent = 2);

}  // namespace stgcc::obs
