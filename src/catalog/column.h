#ifndef MICROSPEC_CATALOG_COLUMN_H_
#define MICROSPEC_CATALOG_COLUMN_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "common/types.h"

namespace microspec {

/// Per-attribute catalog metadata, the analog of PostgreSQL's
/// Form_pg_attribute. The fields attlen / attalign / attcacheoff /
/// attnotnull are exactly the variables the paper's Listing 1 consults in the
/// generic slot_deform_tuple() loop — and exactly the invariants a relation
/// bee (GCL/SCL) folds into straight-line code at schema-definition time.
class Column {
 public:
  Column() = default;

  /// Creates a column of `type`. For kChar, `declared_length` is the fixed
  /// byte length (char(n)); it is ignored for other types.
  Column(std::string name, TypeId type, bool not_null = false,
         int32_t declared_length = 0)
      : name_(std::move(name)),
        type_(type),
        not_null_(not_null) {
    if (type == TypeId::kChar) {
      attlen_ = declared_length;
    } else {
      attlen_ = TypeFixedLength(type);
    }
    attalign_ = TypeAlign(type);
    byval_ = TypeByVal(type);
  }

  const std::string& name() const { return name_; }
  TypeId type() const { return type_; }

  /// Physical length in bytes; kVariableLength (-1) for varchar.
  int32_t attlen() const { return attlen_; }
  /// Required storage alignment: 1, 4, or 8.
  int32_t attalign() const { return attalign_; }
  /// Whether the value lives inside the Datum (true) or is a pointer (false).
  bool byval() const { return byval_; }
  /// NOT NULL constraint; a relation with all columns NOT NULL lets the GCL
  /// bee drop the null-bitmap test entirely (Section II).
  bool not_null() const { return not_null_; }

  /// Cached byte offset of this attribute within a tuple, or -1 when the
  /// offset is not constant (attribute preceded by a variable-length or
  /// nullable attribute). Maintained lazily by the generic deform loop, just
  /// like PG's attcacheoff. Concurrent scans race to fill it; every writer
  /// stores the same value, and the relaxed atomic accesses make that race
  /// defined (a plain int32_t here would be a C++ data race).
  int32_t attcacheoff() const {
    return std::atomic_ref<int32_t>(attcacheoff_).load(
        std::memory_order_relaxed);
  }
  void set_attcacheoff(int32_t off) const {
    std::atomic_ref<int32_t>(attcacheoff_).store(off,
                                                 std::memory_order_relaxed);
  }

  /// DBA annotation marking a low-cardinality attribute eligible for
  /// tuple-bee value specialization (Section IV-A "Annotations").
  bool low_cardinality() const { return low_cardinality_; }
  void set_low_cardinality(bool v) { low_cardinality_ = v; }

  bool operator==(const Column& other) const {
    return name_ == other.name_ && type_ == other.type_ &&
           attlen_ == other.attlen_ && not_null_ == other.not_null_ &&
           low_cardinality_ == other.low_cardinality_;
  }

 private:
  std::string name_;
  TypeId type_ = TypeId::kInt32;
  int32_t attlen_ = 4;
  int32_t attalign_ = 4;
  bool byval_ = true;
  bool not_null_ = false;
  bool low_cardinality_ = false;
  mutable int32_t attcacheoff_ = -1;
};

}  // namespace microspec

#endif  // MICROSPEC_CATALOG_COLUMN_H_
