// Value: the dynamically-typed scalar flowing through the iterator engine.
//
// The engine is tuple-at-a-time (the getnext model of the paper is defined on
// iterator calls, so a row-oriented engine is the faithful substrate). A
// Value is a small tagged union over the SQL types the TPC-H / SkyServer
// workloads need: NULL, BOOLEAN, BIGINT, DOUBLE, DATE and VARCHAR.

#ifndef QPROG_TYPES_VALUE_H_
#define QPROG_TYPES_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace qprog {

enum class TypeId : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kDate = 4,    // int32 days since 1970-01-01
  kString = 5,
};

/// Returns "NULL", "BOOLEAN", "BIGINT", "DOUBLE", "DATE" or "VARCHAR".
const char* TypeIdToString(TypeId type);

/// True for BIGINT, DOUBLE and DATE (types that order numerically).
bool IsNumericType(TypeId type);

/// A dynamically typed scalar. Copyable; strings are owned.
class Value {
 public:
  /// SQL NULL.
  Value() : type_(TypeId::kNull) {}

  // A copy touches string_ only when either side is a string, so a numeric,
  // date, bool or NULL copy is a tag + union copy. Non-string values always
  // hold an empty string_.
  Value(const Value& other) : type_(other.type_), u_(other.u_) {
    if (other.type_ == TypeId::kString) string_ = other.string_;
  }
  Value& operator=(const Value& other) {
    if (type_ == TypeId::kString || other.type_ == TypeId::kString) {
      string_ = other.string_;
    }
    type_ = other.type_;
    u_ = other.u_;
    return *this;
  }
  Value(Value&&) noexcept = default;
  Value& operator=(Value&&) noexcept = default;

  static Value Null() { return Value(); }
  static Value Bool(bool v);
  static Value Int64(int64_t v);
  static Value Double(double v);
  static Value Date(int32_t days);
  static Value String(std::string v);

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  /// Typed accessors; abort on type mismatch (programmer error).
  bool bool_value() const;
  int64_t int64_value() const;
  double double_value() const;
  int32_t date_value() const;
  const std::string& string_value() const;

  /// Numeric view: BIGINT/DOUBLE/DATE/BOOL coerced to double; aborts
  /// otherwise. Used by arithmetic and aggregation.
  double AsDouble() const;

  /// SQL three-valued-logic equality/comparison collapse: any comparison with
  /// NULL is "unknown" and callers treat it as false. `Compare` returns
  /// negative/zero/positive; both inputs must be non-NULL and of comparable
  /// types (numeric with numeric, string with string, bool with bool).
  int Compare(const Value& other) const;

  /// Strict equality used by hash tables and DISTINCT: NULL equals NULL,
  /// 1 (BIGINT) equals 1.0 (DOUBLE), strings compare bytewise.
  bool EqualsForGrouping(const Value& other) const;

  /// Hash consistent with EqualsForGrouping.
  size_t Hash() const;

  /// SQL-text rendering (strings unquoted; dates as YYYY-MM-DD).
  std::string ToString() const;

  /// Equality operator matches EqualsForGrouping (used by tests).
  friend bool operator==(const Value& a, const Value& b) {
    return a.EqualsForGrouping(b);
  }

 private:
  TypeId type_;
  union {
    bool bool_;
    int64_t int64_;
    double double_;
    int32_t date_;
  } u_ = {};
  std::string string_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// A tuple: a flat vector of values positionally matched to a Schema.
using Row = std::vector<Value>;

/// Renders "(v1, v2, ...)" for debugging.
std::string RowToString(const Row& row);

/// RowHash's seed and per-value fold, shared with the in-place key hash of
/// exec/row_hash_table.h so both give the same bits.
inline constexpr size_t kRowHashSeed = 0x84222325u;
inline size_t RowHashStep(size_t h, size_t value_hash) {
  return h ^ (value_hash + 0x9E3779B97F4A7C15ULL + (h << 6) + (h >> 2));
}

/// Hash/equality over whole rows (grouping semantics), usable as functors in
/// unordered containers keyed by Row.
struct RowHash {
  size_t operator()(const Row& row) const;
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const;
};

}  // namespace qprog

#endif  // QPROG_TYPES_VALUE_H_
