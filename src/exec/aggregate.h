// Aggregation operators: HashAggregate (γ, blocking build then emit) and
// StreamAggregate (input pre-sorted on the grouping keys, streaming).

#ifndef QPROG_EXEC_AGGREGATE_H_
#define QPROG_EXEC_AGGREGATE_H_

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "exec/operator.h"
#include "exec/row_hash_table.h"
#include "exec/spill.h"
#include "expr/expr.h"

namespace qprog {

class TaskContext;
class WorkerPool;
struct OrderedTaskBudget;

enum class AggFunc {
  kCount,  // COUNT(*) when arg is null, else COUNT(arg)
  kSum,
  kAvg,
  kMin,
  kMax,
  kCountDistinct,
};

const char* AggFuncToString(AggFunc func);

/// One aggregate in the output list.
struct AggregateDesc {
  AggFunc func = AggFunc::kCount;
  ExprPtr arg;  // null for COUNT(*)
  std::string output_name;

  AggregateDesc() = default;
  AggregateDesc(AggFunc f, ExprPtr a, std::string name)
      : func(f), arg(std::move(a)), output_name(std::move(name)) {}
};

/// Running state for one aggregate within one group.
class AggAccumulator {
 public:
  explicit AggAccumulator(AggFunc func) : func_(func) {}
  void Add(const Value& v);
  void AddCountStar() { ++count_; }
  Value Result() const;

 private:
  struct ValueHasher {
    size_t operator()(const Value& v) const { return v.Hash(); }
  };
  struct ValueEq {
    bool operator()(const Value& a, const Value& b) const {
      return a.EqualsForGrouping(b);
    }
  };

  AggFunc func_;
  uint64_t count_ = 0;  // non-null inputs seen
  double sum_ = 0.0;
  Value min_, max_;
  std::unordered_set<Value, ValueHasher, ValueEq> distinct_;
};

/// γ via hashing. Output schema: group columns (named by `group_names`),
/// then one column per aggregate. Groups are emitted in first-seen order
/// (deterministic). A grouping-free ("scalar") aggregate emits exactly one
/// row even over empty input.
///
/// Memory-adaptive: when the group table would exceed the guard's soft
/// budget and a SpillManager is attached, rows for *unseen* keys are routed
/// raw to kSpillFanout hash partitions on disk (groups already in memory
/// keep accumulating there — no work is thrown away). After the build, any
/// partition whose row count exceeds the kill headroom is recursively
/// re-split with the depth-salted GracePartitionIndex (depth <=
/// kMaxGraceDepth, the join's Grace recursion transplanted here); then, after
/// the in-memory groups are emitted, each leaf partition is re-read and
/// aggregated in turn. Keys never straddle memory and disk, so no group is
/// double-counted. Unlike the join, an unsplittable (single-key skew) or
/// depth-capped partition is *not* an abort: aggregate memory is #groups,
/// not #rows, so such a partition may still fit — it is admitted alone and
/// the per-group kill-threshold charge stays the tripwire if it does not.
///
/// With a WorkerPool attached, the partition replay runs as one task per
/// partition instead of the serial loop: tasks admit their exact memory need
/// against a shared OrderedTaskBudget (the Grace join's reservation
/// protocol), aggregate their partition privately, and emit result rows —
/// the in-memory prefix up to the budget's allowance, the rest to an
/// unaccounted side run. Results fold in partition order, so output rows are
/// identical to the serial replay at every pool size.
class HashAggregate : public PhysicalOperator {
 public:
  HashAggregate(OperatorPtr child, std::vector<ExprPtr> group_exprs,
                std::vector<std::string> group_names,
                std::vector<AggregateDesc> aggregates);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kHashAggregate; }
  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 1; }
  PhysicalOperator* child(size_t) override { return child_.get(); }
  std::string label() const override;
  void FillProgressState(const ExecContext& ctx,
                         ProgressState* state) const override;

  /// True once this execution spilled unseen-key rows to partitions.
  bool spilled() const { return spilled_; }

  static constexpr int kSpillFanout = 8;
  /// Maximum Grace re-split depth for oversized spilled partitions.
  static constexpr int kMaxGraceDepth = 4;

 private:
  /// One replayable spilled partition after Grace refinement: the run plus
  /// its position in the recursion tree (depth 0, path p = the original
  /// fanout partition p when no re-split was needed; deeper leaves are
  /// minted by RefineOne). depth and path are the replay task's full data
  /// identity — the same leaf gets the same forked fault schedule whether it
  /// came from a depth-0 pass or a depth-3 re-split.
  struct AggLeaf {
    SpillRunPtr run;
    int depth = 0;
    uint64_t path = 0;
  };
  /// One parallel partition replay's results, filled by a worker task.
  /// Result rows up to the budget's allowance stay in `rows`; the remainder
  /// overflows to an unaccounted side run, so a high-cardinality partition's
  /// output never breaks the bounded-memory contract.
  struct PartitionAggOut {
    size_t part = 0;          // partition index (== admission order)
    uint64_t reserved = 0;    // budget rows held while the task runs
    std::vector<Row> rows;    // in-memory result prefix (<= allowance)
    SpillRunPtr overflow;     // results beyond the allowance, if any
    bool overflow_open = false;
    uint64_t charged_rows = 0;  // prefix rows charged to the plan account
    uint64_t groups = 0;        // distinct groups found in this partition
    uint64_t rows_read = 0;     // partition rows re-aggregated by the task
  };

  void Build(ExecContext* ctx);
  /// Routes one raw input row to the partition of its key hash (creating the
  /// partition runs on first use).
  bool SpillRow(ExecContext* ctx, size_t hash, const Row& row);
  /// Moves the build-phase partitions into leaves_, recursively re-splitting
  /// any whose row count exceeds the current kill headroom. Query thread
  /// only (run creation order is part of the deterministic trace).
  bool RefinePartitions(ExecContext* ctx);
  /// Emits `run` as a leaf if small enough (or unsplittable, or at the depth
  /// cap — admit-alone fallback), else redistributes it into kSpillFanout
  /// children under the next level's salt and recurses.
  bool RefineOne(ExecContext* ctx, SpillRunPtr run, int depth, uint64_t path,
                 uint64_t capacity);
  /// Aggregates leaf `part_next_` into a fresh group table and resets
  /// the emit cursor over it.
  bool LoadNextPartition(ExecContext* ctx);
  /// Replays all spilled partitions on the pool, folding results into
  /// agg_outs_ in partition order. Returns ctx->ok().
  bool ParallelReplayPartitions(ExecContext* ctx, WorkerPool* pool);
  /// Worker-side body of one partition replay: admits `out->part` against
  /// the shared budget, re-aggregates `run` into a private group table, and
  /// emits result rows into `out` in first-seen order (overflowing to a side
  /// run past the budget's allowance), releasing the unretained budget.
  void ReplayPartitionTask(TaskContext* tc, SpillRun* run, SpillManager* spill,
                           OrderedTaskBudget* budget,
                           PartitionAggOut* out) const;
  /// Streams the next parallel-replay result row: each partition's in-memory
  /// prefix, then its overflow side run, releasing the partition's charge as
  /// it drains. Returns false at end of output or on error.
  bool NextReplayOutput(ExecContext* ctx, Row* out);

  OperatorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggregateDesc> aggregates_;
  Schema schema_;

  bool built_ = false;
  RowHashTable group_index_;     // entry ids index group_keys_
  std::vector<Row> group_keys_;  // first-seen order
  std::vector<std::vector<AggAccumulator>> group_states_;
  RowKey group_key_;  // query thread's; a replay task owns its own
  size_t cursor_ = 0;
  uint64_t charged_ = 0;  // groups charged to the context's buffer budget

  // Partition-spill state (unused until the group table overflows).
  bool spilled_ = false;
  std::vector<SpillRunPtr> parts_;  // build-phase fanout; drained by Refine
  std::vector<AggLeaf> leaves_;    // replayable leaves after refinement
  size_t part_next_ = 0;           // next leaf to replay serially
  uint64_t prior_groups_ = 0;  // groups emitted before the current table
  // Query-thread spill accounting (never read from SpillRun counters — a
  // task may own the runs). Rows appended to partition runs (initial spill
  // plus every re-partitioning rewrite), and rows read back from them
  // (re-aggregated or re-partitioned); 2x the former is this node's total
  // spill work, and their difference is the rows still sitting in leaves.
  uint64_t agg_rows_spilled_ = 0;
  uint64_t agg_rows_replayed_ = 0;

  // Parallel-replay state (pool-backed executions only).
  bool parallel_replayed_ = false;
  std::vector<PartitionAggOut> agg_outs_;
  size_t agg_part_ = 0;       // next partition to drain
  size_t agg_pos_ = 0;        // next prefix row within that partition
  uint64_t par_groups_ = 0;   // groups discovered by folded replay tasks
};

/// γ over an input already sorted by the grouping expressions; emits each
/// group as soon as it closes (non-blocking between groups).
class StreamAggregate : public PhysicalOperator {
 public:
  StreamAggregate(OperatorPtr child, std::vector<ExprPtr> group_exprs,
                  std::vector<std::string> group_names,
                  std::vector<AggregateDesc> aggregates);

  void DoOpen(ExecContext* ctx) override;
  bool DoNext(ExecContext* ctx, Row* out) override;
  void DoClose(ExecContext* ctx) override;

  OpKind kind() const override { return OpKind::kStreamAggregate; }
  const Schema& output_schema() const override { return schema_; }
  size_t num_children() const override { return 1; }
  PhysicalOperator* child(size_t) override { return child_.get(); }
  std::string label() const override;
  void FillProgressState(const ExecContext& ctx,
                         ProgressState* state) const override;

 private:
  void Accumulate(const Row& row);
  Row EmitGroup();

  OperatorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggregateDesc> aggregates_;
  Schema schema_;

  bool group_open_ = false;
  bool input_done_ = false;
  bool any_input_ = false;
  uint64_t groups_emitted_ = 0;
  Row current_key_;
  std::vector<AggAccumulator> current_state_;
  Row pending_row_;
  bool pending_valid_ = false;
};

}  // namespace qprog

#endif  // QPROG_EXEC_AGGREGATE_H_
