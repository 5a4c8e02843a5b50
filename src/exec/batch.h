// FusedChain: the monomorphized kernel behind the native NextBatch
// implementations (DESIGN.md §15).
//
// A chain is a stack of streaming operators — Filter, Project, Limit, in any
// order — over a SeqScan leaf. TryBuild recognizes the shape; Fill/ProduceOne
// then execute the whole chain inline, per output row, with no virtual
// dispatch and no intermediate Row copies (levels hand a `const Row*` up the
// chain; only a Project materializes, and the outermost Project writes
// straight into the batch slot). A pruned scan leaf (SeqScan column list)
// gathers its kept columns once, into the batch slot when only Filter/Limit
// levels sit above it and into a reused scratch row otherwise.
//
// The kernel is an exact emulation of the tuple-at-a-time engine, not an
// approximation of it. Per emulated DoNext call it preserves, in order:
//   * the `!ctx->ok()` entry check and the ConsultFault at each level's
//     fault site (one consult per emulated call, including the final
//     end-of-stream call — fault schedules are hit-indexed);
//   * every ExecContext::CountRow, at the exact point the tuple engine makes
//     it — so work counters, guard charging, observation checkpoints and
//     budget trips land on the same row at every batch size;
//   * the operators' own progress state (cursor_/emitted_/produced_/
//     finished_), so FillProgressState snapshots taken inside a mid-batch
//     checkpoint are indistinguishable from tuple-at-a-time ones.
// A mid-batch fault or guard trip therefore splits the batch at the exact
// row it would have stopped a tuple run: the partial batch is delivered and
// the sticky error cascades to the driver.

#ifndef QPROG_EXEC_BATCH_H_
#define QPROG_EXEC_BATCH_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "exec/operator.h"
#include "exec/row_batch.h"
#include "types/compare_op.h"
#include "types/value.h"

namespace qprog {

class SeqScan;

/// Batches smaller than this bypass the fused kernel and run through the
/// generic per-row adapter instead: at tiny vector sizes the per-batch
/// framing is pure overhead and fusion buys nothing, so the engine keeps the
/// classic vectorized-execution cost curve (vector size 1 ≈ tuple-at-a-time,
/// large vectors amortize dispatch — cf. MonetDB/X100).
inline constexpr size_t kMinFusedCapacity = 16;

class FusedChain {
 public:
  /// Builds a fused chain for the subtree rooted at `top` when it is a stack
  /// of {Filter, Project, Limit} over a SeqScan; returns null for any other
  /// shape (callers then fall back to the generic adapter). The operators are
  /// borrowed and must outlive the chain.
  static std::unique_ptr<FusedChain> TryBuild(PhysicalOperator* top);

  /// Appends rows to `out` until it is full, the stream ends, or the
  /// execution errors. Returns true iff it stopped because the batch filled
  /// (more rows may remain). Flushes per-node stats into `out->stats` when
  /// telemetry is attached.
  bool Fill(ExecContext* ctx, RowBatch* out);

  /// Produces exactly one row — one emulated top-level DoNext call. Used for
  /// the probe side of a batched HashJoin, where the join's own loop needs
  /// tuple granularity. Stats accumulate until FlushStats.
  bool ProduceOne(ExecContext* ctx, Row* out);

  /// Appends the accumulated per-node (rows, calls) deltas to `out->stats`
  /// when `record` is true, and zeroes the accumulators either way.
  void FlushStats(RowBatch* out, bool record);

 private:
  /// One non-leaf operator of the chain, outermost first.
  struct Level {
    PhysicalOperator* op = nullptr;
    OpKind kind = OpKind::kFilter;
    Row scratch;          // materialization target for a mid-chain Project
    uint64_t rows = 0;    // per-batch telemetry accumulators
    uint64_t calls = 0;
    // Specialized predicate for the `column <op> literal` shape (Filter
    // levels only): skips two virtual Eval calls and three Value
    // temporaries per row while computing the identical keep decision —
    // CompareExpr::Eval followed by the null-rejecting keep test reduces to
    // `!col.is_null() && EvalCompareOp(op, col.Compare(lit))` once the
    // literal is known non-null. The literal is borrowed from the
    // operator-owned expression tree.
    bool fast_pred = false;
    size_t pred_col = 0;
    CompareOp pred_op = CompareOp::kEq;
    const Value* pred_lit = nullptr;
    // Specialized projection when every expression is a plain column
    // reference: copies the columns directly instead of virtual Eval.
    bool fast_proj = false;
    std::vector<size_t> proj_cols;
  };

  FusedChain(SeqScan* scan, std::vector<Level> levels);

  /// Emulates one DoNext call at levels_[depth] (depth == levels_.size() is
  /// the scan). Returns 1 with *src pointing at the produced row, 0 at clean
  /// end-of-stream, -1 on error/abort (mirroring a tuple DoNext that returns
  /// false with !ctx->ok()). `top_dst` is the batch slot the outermost level
  /// may materialize into directly.
  int Produce(ExecContext* ctx, size_t depth, const Row** src, Row* top_dst);

  SeqScan* scan_;
  std::vector<Level> levels_;
  uint64_t scan_rows_ = 0;
  uint64_t scan_calls_ = 0;
  // Specialized form of the scan's merged predicate (same shape and
  // semantics as Level::fast_pred).
  bool scan_fast_pred_ = false;
  size_t scan_pred_col_ = 0;
  CompareOp scan_pred_op_ = CompareOp::kEq;
  const Value* scan_pred_lit_ = nullptr;
  Row scan_scratch_;  // gather target of a pruned scan below a Project
};

}  // namespace qprog

#endif  // QPROG_EXEC_BATCH_H_
