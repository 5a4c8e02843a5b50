#include "exec/row_hash_table.h"

#include <utility>

namespace qprog {

RowKey::RowKey(const std::vector<ExprPtr>& exprs)
    : cols_(exprs.size(), kEvaluated),
      exprs_(exprs.size(), nullptr),
      scratch_(exprs.size()) {
  for (size_t i = 0; i < exprs.size(); ++i) {
    if (exprs[i]->kind() == ExprKind::kColumnRef) {
      cols_[i] = static_cast<const ColumnRefExpr&>(*exprs[i]).index();
    } else {
      exprs_[i] = exprs[i].get();
    }
  }
}

RowKey::RowKey(std::vector<size_t> cols) : cols_(std::move(cols)) {}

Row RowKey::Materialize() const {
  Row key;
  key.reserve(size());
  for (size_t i = 0; i < size(); ++i) key.push_back(value(i));
  return key;
}

void RowHashTable::Grow() {
  std::vector<Slot> old = std::move(slots_);
  const size_t size = std::max<size_t>(16, old.size() * 2);
  slots_.assign(size, Slot{});
  shift_ = 64;
  for (size_t s = size; s > 1; s >>= 1) --shift_;
  const size_t mask = size - 1;
  for (const Slot& s : old) {
    if (s.count == 0) continue;
    size_t i = Home(s.hash);
    while (slots_[i].count != 0) i = (i + 1) & mask;
    slots_[i] = s;
  }
}

}  // namespace qprog
