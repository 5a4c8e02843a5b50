#include "exec/aggregate.h"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "common/macros.h"
#include "common/strings.h"
#include "exec/fault_injector.h"
#include "exec/query_guard.h"
#include "exec/worker_pool.h"

namespace qprog {

const char* AggFuncToString(AggFunc func) {
  switch (func) {
    case AggFunc::kCount:
      return "count";
    case AggFunc::kSum:
      return "sum";
    case AggFunc::kAvg:
      return "avg";
    case AggFunc::kMin:
      return "min";
    case AggFunc::kMax:
      return "max";
    case AggFunc::kCountDistinct:
      return "count-distinct";
  }
  return "?";
}

// --------------------------------------------------------------------------
// AggAccumulator

void AggAccumulator::Add(const Value& v) {
  if (v.is_null()) return;  // SQL aggregates skip NULLs
  ++count_;
  switch (func_) {
    case AggFunc::kCount:
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      sum_ += v.AsDouble();
      break;
    case AggFunc::kMin:
      if (min_.is_null() || v.Compare(min_) < 0) min_ = v;
      break;
    case AggFunc::kMax:
      if (max_.is_null() || v.Compare(max_) > 0) max_ = v;
      break;
    case AggFunc::kCountDistinct:
      distinct_.insert(v);
      break;
  }
}

Value AggAccumulator::Result() const {
  switch (func_) {
    case AggFunc::kCount:
      return Value::Int64(static_cast<int64_t>(count_));
    case AggFunc::kSum:
      return count_ == 0 ? Value::Null() : Value::Double(sum_);
    case AggFunc::kAvg:
      return count_ == 0 ? Value::Null()
                         : Value::Double(sum_ / static_cast<double>(count_));
    case AggFunc::kMin:
      return min_;
    case AggFunc::kMax:
      return max_;
    case AggFunc::kCountDistinct:
      return Value::Int64(static_cast<int64_t>(distinct_.size()));
  }
  return Value::Null();
}

namespace {

Schema MakeAggSchema(const std::vector<std::string>& group_names,
                     const std::vector<AggregateDesc>& aggregates) {
  std::vector<Field> fields;
  fields.reserve(group_names.size() + aggregates.size());
  for (const std::string& name : group_names) {
    fields.emplace_back(name, TypeId::kNull);
  }
  for (const AggregateDesc& agg : aggregates) {
    fields.emplace_back(agg.output_name, TypeId::kNull);
  }
  return Schema(std::move(fields));
}

std::vector<AggAccumulator> MakeStates(
    const std::vector<AggregateDesc>& aggregates) {
  std::vector<AggAccumulator> states;
  states.reserve(aggregates.size());
  for (const AggregateDesc& agg : aggregates) {
    states.emplace_back(agg.func);
  }
  return states;
}

void AccumulateRow(const std::vector<AggregateDesc>& aggregates,
                   std::vector<AggAccumulator>* states, const Row& row) {
  for (size_t i = 0; i < aggregates.size(); ++i) {
    const AggregateDesc& agg = aggregates[i];
    if (agg.arg == nullptr) {
      QPROG_DCHECK(agg.func == AggFunc::kCount);
      (*states)[i].AddCountStar();
    } else {
      (*states)[i].Add(agg.arg->Eval(row));
    }
  }
}

Row ResultRow(const Row& key, const std::vector<AggAccumulator>& states) {
  Row out;
  out.reserve(key.size() + states.size());
  out.insert(out.end(), key.begin(), key.end());
  for (const AggAccumulator& acc : states) out.push_back(acc.Result());
  return out;
}

// Task-key layout for the parallel partition replay, mirroring the join's
// (DESIGN.md §10): the leaf's recursion depth (bits 48..55) and partition
// path (3 bits per level, level 0 lowest) are the task's full data identity
// — one replay task per leaf, at most once per execution. A depth-0 leaf's
// key equals the pre-refinement kAggReplayTaskTag | p, so executions that
// never re-split keep their exact PR-4 fault schedules.
constexpr uint64_t kAggReplayTaskTag = 0x54ULL << 56;

uint64_t AggLeafTaskKey(int depth, uint64_t path) {
  return kAggReplayTaskTag | (static_cast<uint64_t>(depth) << 48) | path;
}

}  // namespace

// --------------------------------------------------------------------------
// HashAggregate

HashAggregate::HashAggregate(OperatorPtr child, std::vector<ExprPtr> group_exprs,
                             std::vector<std::string> group_names,
                             std::vector<AggregateDesc> aggregates)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)),
      schema_(MakeAggSchema(group_names, aggregates_)),
      group_key_(group_exprs_) {
  QPROG_CHECK(child_ != nullptr);
  QPROG_CHECK(group_names.size() == group_exprs_.size());
  set_is_linear(true);
}

void HashAggregate::DoOpen(ExecContext* ctx) {
  finished_ = false;
  built_ = false;
  group_index_.Clear();
  group_keys_.clear();
  group_states_.clear();
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
  cursor_ = 0;
  spilled_ = false;
  parts_.clear();
  leaves_.clear();
  part_next_ = 0;
  prior_groups_ = 0;
  agg_rows_spilled_ = 0;
  agg_rows_replayed_ = 0;
  parallel_replayed_ = false;
  agg_outs_.clear();
  agg_part_ = 0;
  agg_pos_ = 0;
  par_groups_ = 0;
  child_->Open(ctx);
}

bool HashAggregate::SpillRow(ExecContext* ctx, size_t hash,
                             const Row& row) {
  if (parts_.empty()) {
    parts_.reserve(kSpillFanout);
    for (int i = 0; i < kSpillFanout; ++i) {
      SpillRunPtr run =
          ctx->spill_manager()->CreateRun(ctx, node_id(), "hashagg.build");
      if (run == nullptr) return false;
      parts_.push_back(std::move(run));
    }
  }
  size_t part = GracePartitionIndex(hash, 0, kSpillFanout);
  if (!parts_[part]->Append(ctx, node_id(), row)) return false;
  ++agg_rows_spilled_;
  return true;
}

void HashAggregate::Build(ExecContext* ctx) {
  Row row;
  bool any_input = false;
  while (ctx->ok() && child_->Next(ctx, &row)) {
    if (ctx->ConsultFault(faults::kHashAggregateBuild, node_id())) return;
    any_input = true;
    group_key_.Load(row);
    bool inserted = false;
    RowHashTable::Slot* slot =
        FindGroup(&group_index_, group_keys_, group_key_, &inserted);
    if (!inserted) {
      // Known group: keep accumulating in memory, spilled or not.
      AccumulateRow(aggregates_, &group_states_[slot->first], row);
      continue;
    }
    if (spilled_) {
      // New key after the overflow: its raw rows go to a partition.
      if (!SpillRow(ctx, group_key_.Hash(), row)) return;
      continue;
    }
    ChargeVerdict verdict = ctx->ChargeBufferedRowsOrSpill(1);
    if (verdict == ChargeVerdict::kFailed) return;
    if (verdict == ChargeVerdict::kSpill && !group_exprs_.empty()) {
      spilled_ = true;
      if (!SpillRow(ctx, group_key_.Hash(), row)) return;
      continue;
    }
    if (verdict == ChargeVerdict::kSpill) {
      // Scalar aggregate: a single group is the minimum working set and
      // there is nothing to spill, so charge it against the kill threshold
      // like a reloaded partition rather than aborting on a soft budget
      // that other operators may be holding.
      if (!ctx->ChargeBufferedRowsPostSpill(1)) return;
    }
    ++charged_;
    AddGroup(&group_index_, slot, &group_keys_, group_key_);
    group_states_.push_back(MakeStates(aggregates_));
    AccumulateRow(aggregates_, &group_states_.back(), row);
  }
  if (!ctx->ok()) return;  // partial aggregation: do not emit
  if (spilled_) {
    for (auto& run : parts_) {
      if (!run->FinishWrite(ctx, node_id())) return;
    }
    if (!RefinePartitions(ctx)) return;
  }
  // A scalar aggregate produces one row even over empty input.
  if (group_exprs_.empty() && !any_input) {
    group_keys_.emplace_back();
    group_states_.push_back(MakeStates(aggregates_));
  }
  built_ = true;
}

bool HashAggregate::RefinePartitions(ExecContext* ctx) {
  // Capacity is the kill headroom above what the plan already holds at this
  // instant — the geometry the serial LoadNextPartition enforces per group
  // and the parallel replay admits against. A leaf at or under it cannot
  // trip the kill threshold even if every row opens its own group; anything
  // larger is re-split so the replay never *has* to rely on the tripwire.
  const QueryGuard* guard = ctx->guard();
  const uint64_t kill = guard != nullptr ? guard->max_buffered_rows_kill()
                                         : QueryGuard::kNoLimit;
  uint64_t capacity = QueryGuard::kNoLimit;
  if (kill != QueryGuard::kNoLimit) {
    capacity = kill - std::min(kill, ctx->buffered_rows());
  }
  leaves_.clear();
  leaves_.reserve(static_cast<size_t>(kSpillFanout));
  for (int p = 0; p < kSpillFanout; ++p) {
    if (!RefineOne(ctx, std::move(parts_[static_cast<size_t>(p)]), 0,
                   static_cast<uint64_t>(p), capacity)) {
      return false;
    }
  }
  parts_.clear();
  return ctx->ok();
}

bool HashAggregate::RefineOne(ExecContext* ctx, SpillRunPtr run, int depth,
                              uint64_t path, uint64_t capacity) {
  // Admit-alone fallback at the depth cap: a partition still oversized after
  // kMaxGraceDepth salted passes is emitted as a leaf rather than aborted —
  // its memory need is its *group* count, which may be far under its row
  // count, and the per-group kill-threshold charge remains the tripwire.
  if (run->rows_written() <= capacity || depth >= kMaxGraceDepth) {
    leaves_.push_back(AggLeaf{std::move(run), depth, path});
    return true;
  }
  // Redistribute into kSpillFanout children under the next level's salt.
  // Query thread only: run creation order (and the spill_begin events
  // carrying the new depth) must stay part of the deterministic trace. Every
  // re-read and re-write below is accounted spill work, so total(Q) grows by
  // exactly two units per re-partitioned row and the 2*spilled-done pending
  // identity holds at every checkpoint mid-refinement.
  const int child_depth = depth + 1;
  const uint64_t parent_rows = run->rows_written();
  std::vector<SpillRunPtr> children;
  children.reserve(static_cast<size_t>(kSpillFanout));
  for (int i = 0; i < kSpillFanout; ++i) {
    SpillRunPtr child = ctx->spill_manager()->CreateRun(
        ctx, node_id(), "hashagg.build", child_depth);
    if (child == nullptr) return false;
    children.push_back(std::move(child));
  }
  Row row;
  if (!run->OpenRead(ctx, node_id())) return false;
  while (run->ReadNext(ctx, node_id(), &row)) {
    group_key_.Load(row);
    ++agg_rows_replayed_;
    size_t part = GracePartitionIndex(group_key_.Hash(), child_depth,
                                      kSpillFanout);
    if (!children[part]->Append(ctx, node_id(), row)) return false;
    ++agg_rows_spilled_;
  }
  if (!ctx->ok()) return false;
  run.reset();  // parent temp file gone before the tree grows further
  uint64_t biggest_child = 0;
  for (auto& child : children) {
    biggest_child = std::max(biggest_child, child->rows_written());
    if (!child->FinishWrite(ctx, node_id())) return false;
  }
  if (biggest_child >= parent_rows) {
    // The salt moved nothing: every row shares one key (or one hash value).
    // No recursion depth will ever spread this partition, so emit the
    // children as leaves directly — one group (or few) may well fit, and if
    // not, the kill tripwire catches it during replay (the join must abort
    // here because it materializes *rows*, not groups).
    for (int i = 0; i < kSpillFanout; ++i) {
      leaves_.push_back(
          AggLeaf{std::move(children[static_cast<size_t>(i)]), child_depth,
                  path | (static_cast<uint64_t>(i) << (3 * child_depth))});
    }
    return true;
  }
  for (int i = 0; i < kSpillFanout; ++i) {
    if (!RefineOne(ctx, std::move(children[static_cast<size_t>(i)]),
                   child_depth,
                   path | (static_cast<uint64_t>(i) << (3 * child_depth)),
                   capacity)) {
      return false;
    }
  }
  return true;
}

bool HashAggregate::LoadNextPartition(ExecContext* ctx) {
  prior_groups_ += group_keys_.size();
  group_index_.Clear();
  group_keys_.clear();
  group_states_.clear();
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
  cursor_ = 0;
  SpillRun* run = leaves_[part_next_].run.get();
  if (!run->OpenRead(ctx, node_id())) return false;
  Row row;
  while (run->ReadNext(ctx, node_id(), &row)) {
    group_key_.Load(row);
    bool inserted = false;
    RowHashTable::Slot* slot =
        FindGroup(&group_index_, group_keys_, group_key_, &inserted);
    if (inserted) {
      // One partition's groups answer to the kill threshold only.
      if (!ctx->ChargeBufferedRowsPostSpill(1)) return false;
      ++charged_;
      AddGroup(&group_index_, slot, &group_keys_, group_key_);
      group_states_.push_back(MakeStates(aggregates_));
    }
    AccumulateRow(aggregates_, &group_states_[slot->first], row);
    ++agg_rows_replayed_;
  }
  if (!ctx->ok()) return false;
  leaves_[part_next_].run.reset();  // delete this partition's temp file
  ++part_next_;
  return true;
}

bool HashAggregate::ParallelReplayPartitions(ExecContext* ctx,
                                             WorkerPool* pool) {
  // Budget geometry, identical to the parallel Grace join's and computed on
  // the query thread before any task runs: capacity is the kill headroom
  // above what the plan already holds, and the result allowance splits half
  // of it evenly across partitions (the other half carries the per-task
  // group tables). Every term is data-derived, so the in-memory/overflow
  // split is identical at every pool size.
  QPROG_DCHECK(part_next_ == 0);  // pool mode never replays serially first
  const QueryGuard* guard = ctx->guard();
  const uint64_t kill = guard != nullptr ? guard->max_buffered_rows_kill()
                                         : QueryGuard::kNoLimit;
  const bool unlimited = kill == QueryGuard::kNoLimit;
  const uint64_t base = ctx->buffered_rows();
  const uint64_t capacity = unlimited ? 0 : kill - std::min(kill, base);
  const size_t num_parts = leaves_.size();
  const uint64_t allowance =
      unlimited ? std::numeric_limits<uint64_t>::max()
                : capacity / (2 * std::max<uint64_t>(num_parts, 1));
  OrderedTaskBudget budget(unlimited, capacity, allowance);
  agg_outs_.clear();
  agg_outs_.resize(num_parts);
  std::vector<std::unique_ptr<TaskContext>> tcs;
  tcs.reserve(num_parts);
  {
    TaskGroup group(pool);
    for (size_t p = 0; p < num_parts; ++p) {
      auto tc = std::make_unique<TaskContext>(
          ctx, AggLeafTaskKey(leaves_[p].depth, leaves_[p].path));
      TaskContext* tcp = tc.get();
      SpillRun* run = leaves_[p].run.get();
      PartitionAggOut* out = &agg_outs_[p];
      out->part = p;
      // The run sealed on the query thread, so its row count is exact and
      // bounds the partition's group count: reserve the whole group table
      // plus the result allowance, capped at capacity so an oversized
      // partition can still be admitted alone (its task then trips the kill
      // tripwire, as the serial replay would).
      out->reserved =
          unlimited ? 0
                    : std::min<uint64_t>(run->rows_written() + allowance,
                                         capacity);
      group.Submit([this, tcp, run, spill = ctx->spill_manager(),
                    budget_ptr = &budget, out] {
        ReplayPartitionTask(tcp, run, spill, budget_ptr, out);
      });
      tcs.push_back(std::move(tc));
    }
    Status escaped = group.Wait();
    for (size_t p = 0; p < num_parts; ++p) {
      if (!ctx->ok()) break;
      tcs[p]->FoldInto(ctx);
      if (!ctx->ok()) break;
      par_groups_ += agg_outs_[p].groups;
      agg_rows_replayed_ += agg_outs_[p].rows_read;
      leaves_[p].run.reset();  // delete this partition's temp file
    }
    if (ctx->ok() && !escaped.ok()) ctx->RaiseError(std::move(escaped));
  }
  part_next_ = num_parts;  // every partition consumed
  if (!ctx->ok()) return false;
  // Move the retained result prefixes into the plan-wide account, where they
  // stay visible to the guard until NextReplayOutput drains them. Cannot
  // trip the kill threshold: admission kept the sum within capacity.
  if (!unlimited) {
    uint64_t prefix_total = 0;
    for (PartitionAggOut& po : agg_outs_) {
      po.charged_rows = po.rows.size();
      prefix_total += po.charged_rows;
    }
    if (!ctx->ChargeBufferedRowsPostSpill(prefix_total)) return false;
    charged_ += prefix_total;
  }
  return ctx->ok();
}

void HashAggregate::ReplayPartitionTask(TaskContext* tc, SpillRun* run,
                                        SpillManager* spill,
                                        OrderedTaskBudget* budget,
                                        PartitionAggOut* out) const {
  // The task owns its partition end to end: a private group table, the
  // partition's spill reads, and the result buffer. It runs only once the
  // shared budget admits its reservation, so the *sum* of concurrent
  // partition memory stays under the guard's kill threshold; the per-task
  // kill-threshold charge below mirrors the serial LoadNextPartition charge.
  if (!budget->Admit(out->part, out->reserved, tc)) return;
  RowHashTable index;
  std::vector<Row> keys;
  std::vector<std::vector<AggAccumulator>> states;
  RowKey key(group_exprs_);
  Row row;
  bool ok = run->OpenRead(tc, node_id());
  while (ok && run->ReadNext(tc, node_id(), &row)) {
    key.Load(row);
    bool inserted = false;
    RowHashTable::Slot* slot = FindGroup(&index, keys, key, &inserted);
    if (inserted) {
      // One partition's groups answer to the kill threshold only.
      if (!tc->ChargeBufferedRowsPostSpill(1)) {
        ok = false;
        break;
      }
      AddGroup(&index, slot, &keys, key);
      states.push_back(MakeStates(aggregates_));
    }
    AccumulateRow(aggregates_, &states[slot->first], row);
    ++out->rows_read;
  }
  ok = ok && tc->ok();
  out->groups = keys.size();
  // Emit result rows in first-seen order — the order the serial replay
  // emits this partition's groups — keeping the prefix in memory up to the
  // allowance and overflowing the rest to an unaccounted side run (created
  // lazily here; thread-safe, trace-silent).
  for (size_t g = 0; ok && g < keys.size(); ++g) {
    Row result = ResultRow(keys[g], states[g]);
    if (out->rows.size() < budget->out_allowance) {
      out->rows.push_back(std::move(result));
      continue;
    }
    if (out->overflow == nullptr) {
      out->overflow = spill->CreateSideRun(tc, node_id());
      if (out->overflow == nullptr) {
        ok = false;
        break;
      }
    }
    ok = out->overflow->Append(tc, node_id(), result);
  }
  if (tc->ok() && out->overflow != nullptr) {
    out->overflow->FinishWrite(tc, node_id());
  }
  // Hand back the slack between the reservation and the rows the partition
  // actually keeps in memory; the prefix itself stays reserved until the
  // query thread charges it to the plan account after the fold.
  uint64_t kept = std::min<uint64_t>(out->rows.size(), out->reserved);
  budget->Retain(kept);
  budget->Release(out->reserved - kept);
}

bool HashAggregate::NextReplayOutput(ExecContext* ctx, Row* out) {
  while (ctx->ok() && agg_part_ < agg_outs_.size()) {
    PartitionAggOut& po = agg_outs_[agg_part_];
    if (agg_pos_ < po.rows.size()) {
      *out = std::move(po.rows[agg_pos_++]);
      Emit(ctx);
      return true;
    }
    if (po.overflow != nullptr) {
      if (!po.overflow_open) {
        if (!po.overflow->OpenRead(ctx, node_id())) return false;
        po.overflow_open = true;
      }
      if (po.overflow->ReadNext(ctx, node_id(), out)) {
        Emit(ctx);
        return true;
      }
      if (!ctx->ok()) return false;
      po.overflow.reset();  // end of side run: delete the temp file now
    }
    // Partition fully drained: give back its in-memory prefix.
    po.rows = std::vector<Row>();
    ctx->ReleaseBufferedRows(po.charged_rows);
    charged_ -= std::min<uint64_t>(charged_, po.charged_rows);
    po.charged_rows = 0;
    agg_pos_ = 0;
    ++agg_part_;
  }
  if (!ctx->ok()) return false;
  finished_ = true;
  return false;
}

bool HashAggregate::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok()) return false;
  if (!built_) {
    Build(ctx);
    if (!ctx->ok()) return false;
  }
  for (;;) {
    if (!ctx->ok()) return false;
    if (cursor_ < group_keys_.size()) {
      *out = ResultRow(group_keys_[cursor_], group_states_[cursor_]);
      ++cursor_;
      Emit(ctx);
      return true;
    }
    if (parallel_replayed_) return NextReplayOutput(ctx, out);
    if (!spilled_ || part_next_ >= leaves_.size()) {
      finished_ = true;
      return false;
    }
    if (ctx->worker_pool() != nullptr) {
      if (!ParallelReplayPartitions(ctx, ctx->worker_pool())) return false;
      parallel_replayed_ = true;
      continue;
    }
    if (!LoadNextPartition(ctx)) return false;
  }
}

void HashAggregate::DoClose(ExecContext* ctx) {
  child_->Close(ctx);
  group_index_ = RowHashTable();
  group_keys_.clear();
  group_states_.clear();
  parts_.clear();     // deletes any remaining spill temp files
  leaves_.clear();    // ... and any refined leaves not yet replayed
  agg_outs_.clear();  // deletes any remaining overflow side runs
  ctx->ReleaseBufferedRows(charged_);
  charged_ = 0;
}

std::string HashAggregate::label() const {
  return StringPrintf("HashAggregate(%zu groups cols, %zu aggs)",
                      group_exprs_.size(), aggregates_.size());
}

void HashAggregate::FillProgressState(const ExecContext& ctx,
                                      ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  // Spilled runs keep the conservative !build_done path: group counts are
  // not final until every partition has been re-aggregated.
  state->build_done = built_ && !spilled_;
  state->groups_so_far = prior_groups_ + group_keys_.size() + par_groups_;
  state->scalar_aggregate = group_exprs_.empty();
  // Every row appended to a partition run — the initial spill plus each
  // re-partitioning rewrite — is written once and read back exactly once, so
  // this node's total spill work is 2x the rows appended so far; deriving
  // pending from the same work counter the checkpoint just advanced keeps
  // (done + pending) consistent at every sampling instant, and never reads
  // SpillRun counters a replay task may be mutating (see sort.cc, join.cc).
  uint64_t spill_total = 2 * agg_rows_spilled_;
  state->spill_rows_pending = spill_total > state->spill_work_done
                                  ? spill_total - state->spill_work_done
                                  : 0;
  // Row count for the group-cardinality bound: spilled rows that have not
  // been re-aggregated yet (each may still open a fresh group). Appends
  // minus reads — a re-partitioned row moves both counters, so this is
  // exactly the rows sitting unread in leaves. Distinct from
  // spill_rows_pending, which is in *work units* and would overstate the
  // unseen rows by the unfinished write pass.
  state->spill_rows_unread =
      agg_rows_spilled_ > agg_rows_replayed_
          ? agg_rows_spilled_ - agg_rows_replayed_
          : 0;
}

// --------------------------------------------------------------------------
// StreamAggregate

StreamAggregate::StreamAggregate(OperatorPtr child,
                                 std::vector<ExprPtr> group_exprs,
                                 std::vector<std::string> group_names,
                                 std::vector<AggregateDesc> aggregates)
    : child_(std::move(child)),
      group_exprs_(std::move(group_exprs)),
      aggregates_(std::move(aggregates)),
      schema_(MakeAggSchema(group_names, aggregates_)) {
  QPROG_CHECK(child_ != nullptr);
  QPROG_CHECK(group_names.size() == group_exprs_.size());
  set_is_linear(true);
}

void StreamAggregate::DoOpen(ExecContext* ctx) {
  finished_ = false;
  group_open_ = false;
  input_done_ = false;
  any_input_ = false;
  groups_emitted_ = 0;
  pending_valid_ = false;
  child_->Open(ctx);
}

void StreamAggregate::Accumulate(const Row& row) {
  AccumulateRow(aggregates_, &current_state_, row);
}

Row StreamAggregate::EmitGroup() {
  ++groups_emitted_;
  group_open_ = false;
  return ResultRow(current_key_, current_state_);
}

bool StreamAggregate::DoNext(ExecContext* ctx, Row* out) {
  if (!ctx->ok() ||
      ctx->ConsultFault(faults::kStreamAggregateNext, node_id())) {
    return false;
  }
  if (input_done_ && !group_open_) {
    // Scalar aggregate over empty input still yields one row.
    if (group_exprs_.empty() && !any_input_ && groups_emitted_ == 0) {
      current_key_.clear();
      current_state_ = MakeStates(aggregates_);
      ++groups_emitted_;
      *out = ResultRow(current_key_, current_state_);
      Emit(ctx);
      return true;
    }
    finished_ = true;
    return false;
  }
  for (;;) {
    Row row;
    bool have_row;
    if (pending_valid_) {
      row = std::move(pending_row_);
      pending_valid_ = false;
      have_row = true;
    } else {
      have_row = child_->Next(ctx, &row);
    }
    if (!have_row) {
      if (!ctx->ok()) return false;  // child stopped on error: no final group
      input_done_ = true;
      if (group_open_) {
        *out = EmitGroup();
        Emit(ctx);
        return true;
      }
      return Next(ctx, out);  // handles the empty-scalar case above
    }
    any_input_ = true;
    Row key;
    key.reserve(group_exprs_.size());
    for (const ExprPtr& e : group_exprs_) key.push_back(e->Eval(row));
    if (!group_open_) {
      current_key_ = std::move(key);
      current_state_ = MakeStates(aggregates_);
      group_open_ = true;
      Accumulate(row);
      continue;
    }
    if (RowEq()(key, current_key_)) {
      Accumulate(row);
      continue;
    }
    // Group boundary: emit the finished group, stash the new row.
    pending_row_ = std::move(row);
    pending_valid_ = true;
    Row result = EmitGroup();
    current_key_ = std::move(key);
    *out = std::move(result);
    Emit(ctx);
    return true;
  }
}

void StreamAggregate::DoClose(ExecContext* ctx) { child_->Close(ctx); }

std::string StreamAggregate::label() const {
  return StringPrintf("StreamAggregate(%zu group cols, %zu aggs)",
                      group_exprs_.size(), aggregates_.size());
}

void StreamAggregate::FillProgressState(const ExecContext& ctx,
                                        ProgressState* state) const {
  PhysicalOperator::FillProgressState(ctx, state);
  state->groups_so_far = groups_emitted_ + (group_open_ ? 1 : 0);
  state->scalar_aggregate = group_exprs_.empty();
  state->build_done = input_done_;
}

}  // namespace qprog
