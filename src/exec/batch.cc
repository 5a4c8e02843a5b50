#include "exec/batch.h"

#include <utility>

#include "exec/fault_injector.h"
#include "exec/filter_project.h"
#include "exec/scan.h"
#include "expr/expr.h"

namespace qprog {

namespace {

/// Recognizes `column <op> literal` with a non-null literal. A NULL literal
/// (or any other shape) stays on the generic Eval path: the fast form below
/// assumes the right side never nulls out the comparison. The returned
/// literal pointer borrows from the operator-owned expression tree, which
/// outlives the chain.
bool MatchFastPred(const Expr* e, size_t* col, CompareOp* op,
                   const Value** lit) {
  if (e == nullptr || e->kind() != ExprKind::kCompare) return false;
  const auto* cmp = static_cast<const CompareExpr*>(e);
  if (cmp->left()->kind() != ExprKind::kColumnRef ||
      cmp->right()->kind() != ExprKind::kLiteral) {
    return false;
  }
  const Value& v = static_cast<const LiteralExpr*>(cmp->right())->value();
  if (v.is_null()) return false;
  *col = static_cast<const ColumnRefExpr*>(cmp->left())->index();
  *op = cmp->op();
  *lit = &v;
  return true;
}

}  // namespace

FusedChain::FusedChain(SeqScan* scan, std::vector<Level> levels)
    : scan_(scan), levels_(std::move(levels)) {
  scan_fast_pred_ = MatchFastPred(scan_->predicate_.get(), &scan_pred_col_,
                                  &scan_pred_op_, &scan_pred_lit_);
}

std::unique_ptr<FusedChain> FusedChain::TryBuild(PhysicalOperator* top) {
  std::vector<Level> levels;
  PhysicalOperator* op = top;
  for (;;) {
    OpKind k = op->kind();
    if (k == OpKind::kSeqScan) {
      return std::unique_ptr<FusedChain>(
          new FusedChain(static_cast<SeqScan*>(op), std::move(levels)));
    }
    if (k != OpKind::kFilter && k != OpKind::kProject && k != OpKind::kLimit) {
      return nullptr;
    }
    Level level;
    level.op = op;
    level.kind = k;
    if (k == OpKind::kFilter) {
      Filter* f = static_cast<Filter*>(op);
      level.fast_pred = MatchFastPred(f->predicate_.get(), &level.pred_col,
                                      &level.pred_op, &level.pred_lit);
    } else if (k == OpKind::kProject) {
      Project* p = static_cast<Project*>(op);
      level.fast_proj = true;
      for (const ExprPtr& e : p->exprs_) {
        if (e->kind() != ExprKind::kColumnRef) {
          level.fast_proj = false;
          level.proj_cols.clear();
          break;
        }
        level.proj_cols.push_back(
            static_cast<const ColumnRefExpr*>(e.get())->index());
      }
    }
    levels.push_back(std::move(level));
    op = op->child(0);
  }
}

int FusedChain::Produce(ExecContext* ctx, size_t depth, const Row** src,
                        Row* top_dst) {
  if (depth == levels_.size()) {
    // -- leaf: SeqScan::DoNext, minus the copy into *out -----------------
    ++scan_calls_;
    if (!ctx->ok() ||
        ctx->ConsultFault(faults::kSeqScanNext, scan_->node_id())) {
      return -1;
    }
    while (scan_->cursor_ < scan_->end_) {
      const Row& row = scan_->table_->row(scan_->cursor_++);
      ctx->CountRow(scan_->node_id(), scan_->is_root());
      if (!ctx->ok()) return -1;  // guard tripped while counting
      if (scan_->predicate_ != nullptr) {
        if (scan_fast_pred_) {
          const Value& l = row[scan_pred_col_];
          if (l.is_null() ||
              !EvalCompareOp(scan_pred_op_, l.Compare(*scan_pred_lit_))) {
            continue;
          }
        } else {
          Value keep = scan_->predicate_->Eval(row);
          if (keep.is_null() || !keep.bool_value()) continue;
        }
      }
      ++scan_->emitted_;
      ++scan_rows_;
      if (scan_->pruned_) {
        // A pruned scan gathers its kept columns into a reused row: the
        // batch slot when only pass-through levels sit above, else scratch.
        Row* dst = top_dst != nullptr ? top_dst : &scan_scratch_;
        scan_->GatherColumns(row, dst);
        *src = dst;
      } else {
        *src = &row;
      }
      return 1;
    }
    scan_->finished_ = true;
    return 0;
  }

  Level& level = levels_[depth];
  ++level.calls;
  switch (level.kind) {
    case OpKind::kFilter: {
      Filter* f = static_cast<Filter*>(level.op);
      if (!ctx->ok() || ctx->ConsultFault(faults::kFilterNext, f->node_id())) {
        return -1;
      }
      for (;;) {
        const Row* child_src = nullptr;
        int r = Produce(ctx, depth + 1, &child_src, top_dst);
        if (r < 0) return -1;
        if (r == 0) {
          f->finished_ = true;
          return 0;
        }
        bool keep_row;
        if (level.fast_pred) {
          const Value& l = (*child_src)[level.pred_col];
          keep_row = !l.is_null() &&
                     EvalCompareOp(level.pred_op, l.Compare(*level.pred_lit));
        } else {
          Value keep = f->predicate_->Eval(*child_src);
          keep_row = !keep.is_null() && keep.bool_value();
        }
        if (keep_row) {
          *src = child_src;
          ++level.rows;
          ctx->CountRow(f->node_id(), f->is_root());
          return 1;
        }
        // Rejected: pull the child again, within this same emulated call —
        // exactly the tuple Filter's inner while loop.
      }
    }
    case OpKind::kProject: {
      Project* p = static_cast<Project*>(level.op);
      if (!ctx->ok() || ctx->ConsultFault(faults::kProjectNext, p->node_id())) {
        return -1;
      }
      // This Project consumes the batch slot (if one reached it through the
      // pass-through levels above); deeper Projects fall back to their level
      // scratch, so no two materializations ever alias.
      const Row* child_src = nullptr;
      int r = Produce(ctx, depth + 1, &child_src, nullptr);
      if (r < 0) return -1;
      if (r == 0) {
        p->finished_ = true;
        return 0;
      }
      Row* dst = top_dst != nullptr ? top_dst : &level.scratch;
      dst->clear();
      dst->reserve(p->exprs_.size());
      if (level.fast_proj) {
        for (size_t c : level.proj_cols) dst->push_back((*child_src)[c]);
      } else {
        for (const ExprPtr& e : p->exprs_) dst->push_back(e->Eval(*child_src));
      }
      *src = dst;
      ++level.rows;
      ctx->CountRow(p->node_id(), p->is_root());
      return 1;
    }
    case OpKind::kLimit: {
      Limit* l = static_cast<Limit*>(level.op);
      if (!ctx->ok() || ctx->ConsultFault(faults::kLimitNext, l->node_id())) {
        return -1;
      }
      if (l->produced_ >= l->limit_) {
        l->finished_ = true;
        return 0;
      }
      int r = Produce(ctx, depth + 1, src, top_dst);
      if (r < 0) return -1;
      if (r == 0) {
        l->finished_ = true;
        return 0;
      }
      ++l->produced_;
      ++level.rows;
      ctx->CountRow(l->node_id(), l->is_root());
      return 1;
    }
    default:
      break;
  }
  QPROG_CHECK_MSG(false, "unreachable: non-chain kind in FusedChain");
  return -1;
}

bool FusedChain::Fill(ExecContext* ctx, RowBatch* out) {
  const bool record = ctx->telemetry() != nullptr;
  while (!out->full()) {
    // The loop-top ok() check mirrors the tuple driver's
    // `while (ctx->ok() && root->Next(...))`: a row produced concurrently
    // with a guard trip stays in the batch (the tuple driver delivers it
    // too), and no further getnext is emulated once the run has failed.
    if (!ctx->ok()) {
      FlushStats(out, record);
      return false;
    }
    Row* slot = out->AppendSlot();
    const Row* src = nullptr;
    int r = Produce(ctx, 0, &src, slot);
    if (r != 1) {
      out->PopLast();
      FlushStats(out, record);
      return false;
    }
    if (src != slot) *slot = *src;
  }
  FlushStats(out, record);
  return true;
}

bool FusedChain::ProduceOne(ExecContext* ctx, Row* out) {
  const Row* src = nullptr;
  int r = Produce(ctx, 0, &src, out);
  if (r != 1) return false;
  if (src != out) *out = *src;
  return true;
}

void FusedChain::FlushStats(RowBatch* out, bool record) {
  for (Level& level : levels_) {
    if (record && (level.calls > 0 || level.rows > 0)) {
      out->stats.push_back({level.op->node_id(), level.rows, level.calls});
    }
    level.rows = 0;
    level.calls = 0;
  }
  if (record && (scan_calls_ > 0 || scan_rows_ > 0)) {
    out->stats.push_back({scan_->node_id(), scan_rows_, scan_calls_});
  }
  scan_rows_ = 0;
  scan_calls_ = 0;
}

}  // namespace qprog
