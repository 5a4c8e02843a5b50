// RowHashTable: the one hash table behind every hash operator — HashJoin's
// build table (in memory, per Grace partition and per parallel partition
// task) and the group index of HashAggregate, its partition replay tasks,
// PartialAggregate and FinalAggregate (DESIGN.md §18).
//
// Flat open addressing with linear probing over {hash, first, last, count}
// slots. The table stores no keys: entries are dense ids 0, 1, 2, ... that
// index the caller's own storage (the join's build rows, an aggregate's
// group_keys_/group_states_), and each slot chains its entries in insertion
// order through one shared `next` vector. Keys are hashed and compared in
// place through a RowKey, so building, probing and group lookup allocate no
// key Row, map node or per-key bucket.

#ifndef QPROG_EXEC_ROW_HASH_TABLE_H_
#define QPROG_EXEC_ROW_HASH_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/macros.h"
#include "expr/expr.h"
#include "types/value.h"

namespace qprog {

/// A key — a list of expressions over a row — read in place. A column
/// reference is read straight from the row; any other expression is
/// evaluated into a scratch row reused across Load calls. Not thread-safe:
/// each thread that reads keys owns its RowKey.
class RowKey {
 public:
  /// Key = `exprs` evaluated over the row (borrowed; must outlive this).
  explicit RowKey(const std::vector<ExprPtr>& exprs);
  /// Key = the columns `cols` of the row.
  explicit RowKey(std::vector<size_t> cols);

  /// Points the key at `row`, which must stay alive and unchanged while the
  /// key is read.
  void Load(const Row& row) {
    row_ = &row;
    for (size_t i = 0; i < exprs_.size(); ++i) {
      if (exprs_[i] != nullptr) scratch_[i] = exprs_[i]->Eval(row);
    }
  }

  size_t size() const { return cols_.size(); }
  const Value& value(size_t i) const {
    return cols_[i] == kEvaluated ? scratch_[i] : (*row_)[cols_[i]];
  }

  bool HasNull() const {
    for (size_t i = 0; i < size(); ++i) {
      if (value(i).is_null()) return true;
    }
    return false;
  }

  /// Equals RowHash()(Materialize()) bit for bit, so Grace and aggregate
  /// spill routing (GracePartitionIndex) is that of a materialized key.
  size_t Hash() const {
    size_t h = kRowHashSeed;
    for (size_t i = 0; i < size(); ++i) h = RowHashStep(h, value(i).Hash());
    return h;
  }

  /// Grouping equality (RowEq) against a materialized key or another
  /// loaded key of the same width.
  bool Equals(const Row& key) const {
    for (size_t i = 0; i < size(); ++i) {
      if (!value(i).EqualsForGrouping(key[i])) return false;
    }
    return true;
  }
  bool Equals(const RowKey& other) const {
    for (size_t i = 0; i < size(); ++i) {
      if (!value(i).EqualsForGrouping(other.value(i))) return false;
    }
    return true;
  }

  /// Copies the loaded key into a Row (once per new group, not per row).
  Row Materialize() const;

 private:
  static constexpr size_t kEvaluated = ~size_t{0};

  std::vector<size_t> cols_;        // column index, or kEvaluated
  std::vector<const Expr*> exprs_;  // the kEvaluated expressions, else null
  Row scratch_;                     // their values for the loaded row
  const Row* row_ = nullptr;
};

class RowHashTable {
 public:
  /// End of an entry chain.
  static constexpr uint32_t kEnd = ~uint32_t{0};

  struct Slot {
    uint64_t hash = 0;
    uint32_t first = kEnd;  // first entry with this key
    uint32_t last = kEnd;   // last entry with this key
    uint32_t count = 0;     // entries with this key; 0 = empty slot
  };

  /// The slot whose key has `hash` and satisfies `eq(slot.first)`, or null.
  template <typename Eq>
  const Slot* Find(uint64_t hash, Eq&& eq) const {
    if (slots_.empty()) return nullptr;
    const Slot& s = slots_[Probe(hash, eq)];
    return s.count == 0 ? nullptr : &s;
  }

  /// Find, or the empty slot the key goes to (*inserted = true), which the
  /// caller fills with Append; an empty slot left unfilled stays empty. The
  /// pointer is valid until the next FindOrInsert.
  template <typename Eq>
  Slot* FindOrInsert(uint64_t hash, Eq&& eq, bool* inserted) {
    if ((num_keys_ + 1) * 2 > slots_.size()) Grow();
    Slot& s = slots_[Probe(hash, eq)];
    *inserted = s.count == 0;
    s.hash = hash;
    return &s;
  }

  /// Appends the next entry id (the number of entries so far) to `slot`'s
  /// chain and returns it.
  uint32_t Append(Slot* slot) {
    QPROG_CHECK(next_.size() < kEnd);
    const uint32_t id = static_cast<uint32_t>(next_.size());
    if (slot->count == 0) {
      slot->first = id;
      ++num_keys_;
    } else {
      next_[slot->last] = id;
    }
    slot->last = id;
    ++slot->count;
    next_.push_back(kEnd);
    return id;
  }

  /// The entry after `entry` in its key's chain, or kEnd.
  uint32_t next(uint32_t entry) const { return next_[entry]; }

  size_t num_keys() const { return num_keys_; }

  /// Empties the table, keeping its capacity.
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    next_.clear();
    num_keys_ = 0;
  }

 private:
  /// Fibonacci hashing onto the slot array: takes the product's high bits,
  /// so keys routed to one Grace partition (equal low hash bits) still
  /// spread over the whole table.
  size_t Home(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  /// Index of the slot holding the key, or of the empty slot ending its
  /// probe sequence.
  template <typename Eq>
  size_t Probe(uint64_t hash, Eq& eq) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(hash);; i = (i + 1) & mask) {
      const Slot& s = slots_[i];
      if (s.count == 0 || (s.hash == hash && eq(s.first))) return i;
    }
  }

  void Grow();

  std::vector<Slot> slots_;     // power-of-two size, at most half full
  std::vector<uint32_t> next_;  // per entry: next entry of the same key
  size_t num_keys_ = 0;
  int shift_ = 64;
};

/// Group lookup shared by the hash aggregates, whose entry ids are group
/// indexes into `keys` (first-seen order): the slot of the group whose key
/// is loaded in `key`. For a new group the slot comes back empty
/// (*inserted = true); AddGroup creates the group there, and a slot left
/// alone stays empty.
inline RowHashTable::Slot* FindGroup(RowHashTable* index,
                                     const std::vector<Row>& keys,
                                     const RowKey& key, bool* inserted) {
  return index->FindOrInsert(
      key.Hash(), [&](uint32_t g) { return key.Equals(keys[g]); }, inserted);
}

/// Appends the group whose key is loaded in `key` to `keys` and `slot`.
inline void AddGroup(RowHashTable* index, RowHashTable::Slot* slot,
                     std::vector<Row>* keys, const RowKey& key) {
  index->Append(slot);
  keys->push_back(key.Materialize());
}

}  // namespace qprog

#endif  // QPROG_EXEC_ROW_HASH_TABLE_H_
